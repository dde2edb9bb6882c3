package job

import (
	"encoding/json"
	"fmt"

	"repro/internal/worker"
)

// NewSpec encodes payload as the JSON spec of the given kind, fingerprinted
// by its bytes.
func NewSpec(kind string, payload any) (worker.Spec, error) {
	b, err := json.Marshal(payload)
	if err != nil {
		return worker.Spec{}, err
	}
	return worker.Spec{Kind: kind, Fingerprint: worker.PayloadFingerprint(kind, b), Payload: b}, nil
}

// Factory is the worker-side inverse of NewSpec: the returned
// worker.Factory checks the spec kind and the payload fingerprint, decodes
// the JSON payload into a T and hands it to build.
func Factory[T any](kind string, build func(T) (worker.Runner, error)) worker.Factory {
	return func(spec worker.Spec) (worker.Runner, error) {
		if spec.Kind != kind {
			return nil, fmt.Errorf("worker spec kind %q, this worker serves %q", spec.Kind, kind)
		}
		if fp := worker.PayloadFingerprint(spec.Kind, spec.Payload); fp != spec.Fingerprint {
			return nil, fmt.Errorf("spec fingerprint %016x does not match payload hash %016x", spec.Fingerprint, fp)
		}
		var v T
		if err := json.Unmarshal(spec.Payload, &v); err != nil {
			return nil, err
		}
		return build(v)
	}
}
