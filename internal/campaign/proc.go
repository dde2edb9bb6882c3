package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/fault"
	"repro/internal/injector"
	"repro/internal/job"
	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// This file is the remote half of the campaign executor: with
// Config.Isolation set to IsolationProc, units execute in supervised worker
// subprocesses (internal/worker) instead of goroutines, and with
// Config.Fabric set they are sharded over executor hosts (see fabric.go);
// internal/job wires both backends. The campaign plan is never shipped over
// the wire — both sides rebuild it deterministically from the serialized
// Config and cross-check the plan fingerprint in the handshake — so the
// protocol carries only unit indices out and verdicts back, and the Result
// stays bit-identical to in-process execution for any worker count or
// fleet: the same units, in the same slots, folded in the same planning
// order.

// Isolation selects where campaign units execute; see job.Isolation.
type Isolation = job.Isolation

const (
	IsolationInProc = job.IsolationInProc
	IsolationProc   = job.IsolationProc
)

// ProcOptions tunes the worker pool used under IsolationProc; see
// job.ProcOptions.
type ProcOptions = job.ProcOptions

// SpecKindCampaign is the worker.Spec kind for class campaigns (§6).
const SpecKindCampaign = "campaign/v1"

// procSpec is the JSON worker spec payload: exactly the Config fields that
// determine the campaign plan (everything planFingerprint hashes is derived
// from these plus the compiled programs), with execution-only knobs reduced
// to the ones the worker itself enforces per unit.
type procSpec struct {
	Programs      []string       `json:"programs"`
	Classes       []int          `json:"classes"`
	CasesPerFault int            `json:"cases_per_fault"`
	ChosenAssign  map[string]int `json:"chosen_assign,omitempty"`
	ChosenCheck   map[string]int `json:"chosen_check,omitempty"`
	Seed          int64          `json:"seed"`
	Mode          int            `json:"mode"`
	MetricGuided  bool           `json:"metric_guided"`
	NoFastForward bool           `json:"no_fast_forward"`
	InterpOnly    bool           `json:"interp_only"`
	UnitTimeoutMS int64          `json:"unit_timeout_ms"`
}

// procSpecFromConfig serializes a filled Config into the wire spec.
func procSpecFromConfig(cfg *Config, fp uint64) (worker.Spec, error) {
	classes := make([]int, len(cfg.Classes))
	for i, c := range cfg.Classes {
		classes[i] = int(c)
	}
	payload, err := json.Marshal(procSpec{
		Programs:      cfg.Programs,
		Classes:       classes,
		CasesPerFault: cfg.CasesPerFault,
		ChosenAssign:  cfg.ChosenAssign,
		ChosenCheck:   cfg.ChosenCheck,
		Seed:          cfg.Seed,
		Mode:          int(cfg.Mode),
		MetricGuided:  cfg.MetricGuided,
		NoFastForward: cfg.NoFastForward,
		InterpOnly:    cfg.InterpOnly,
		UnitTimeoutMS: cfg.UnitTimeout.Milliseconds(),
	})
	if err != nil {
		return worker.Spec{}, err
	}
	return worker.Spec{Kind: SpecKindCampaign, Fingerprint: fp, Payload: payload}, nil
}

// configFromProcSpec is the worker-side inverse.
func configFromProcSpec(payload []byte) (Config, error) {
	var s procSpec
	if err := json.Unmarshal(payload, &s); err != nil {
		return Config{}, fmt.Errorf("campaign: bad worker spec: %w", err)
	}
	classes := make([]fault.Class, len(s.Classes))
	for i, c := range s.Classes {
		classes[i] = fault.Class(c)
	}
	return Config{
		Programs:      s.Programs,
		Classes:       classes,
		CasesPerFault: s.CasesPerFault,
		ChosenAssign:  s.ChosenAssign,
		ChosenCheck:   s.ChosenCheck,
		Seed:          s.Seed,
		Mode:          injector.Mode(s.Mode),
		MetricGuided:  s.MetricGuided,
		NoFastForward: s.NoFastForward,
		InterpOnly:    s.InterpOnly,
		UnitTimeout:   time.Duration(s.UnitTimeoutMS) * time.Millisecond,
	}, nil
}

// replan rebuilds the campaign plan from a worker spec, on a worker process
// or an executor host, and verifies the rebuilt fingerprint against the
// spec's: a mismatch means differing builds or program tables, and
// executing under a wrong unit numbering would corrupt the campaign
// silently. The returned executor serves units through the same per-unit
// isolation path (runIsolated) the in-process executor uses, so
// panic-retry, timeout and cycle-quota semantics are identical everywhere;
// it keeps one machine pool per local worker.
func replan(spec worker.Spec, workers int) (*unitExecutor, error) {
	if spec.Kind != SpecKindCampaign {
		return nil, fmt.Errorf("campaign: spec kind %q, this build serves %q", spec.Kind, SpecKindCampaign)
	}
	cfg, err := configFromProcSpec(spec.Payload)
	if err != nil {
		return nil, err
	}
	pc, err := planCampaign(&cfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: re-planning from the spec failed: %w", err)
	}
	if pc.fp != spec.Fingerprint {
		return nil, fmt.Errorf("campaign: rebuilt plan fingerprint %016x does not match the spec's %016x; differing builds or configuration", pc.fp, spec.Fingerprint)
	}
	return &unitExecutor{
		opts:  execOpts{unitTimeout: cfg.UnitTimeout, interpOnly: cfg.InterpOnly},
		units: pc.units,
		pools: make([]*machinePool, workers),
	}, nil
}

// WorkerFactory is the worker.Factory for campaign specs. Worker
// subprocesses are single-threaded unit servers (parallelism lives in the
// pool, one unit in flight per process), so slot 0 is the only machine
// pool.
func WorkerFactory(spec worker.Spec) (worker.Runner, error) {
	ex, err := replan(spec, 1)
	if err != nil {
		return nil, err
	}
	return campaignRunner{ex}, nil
}

// campaignRunner executes units inside a worker process.
type campaignRunner struct{ ex *unitExecutor }

func (r campaignRunner) Units() int { return len(r.ex.units) }

// testProcUnitHook, when non-nil (worker processes in tests only), runs
// before each unit a campaignRunner serves; it may kill or stop the worker
// process to exercise the supervisor.
var testProcUnitHook func(unit int)

func (r campaignRunner) Run(unit int) (journal.Outcome, []byte, error) {
	if h := testProcUnitHook; h != nil {
		h(unit)
	}
	o, err := r.ex.runIsolated(0, &r.ex.units[unit])
	if err != nil {
		return journal.Outcome{}, nil, err
	}
	return o.journal(), nil, nil
}

// executeUnitsRemote is the counterpart of executeUnitsOpts for both remote
// backends, a worker pool (IsolationProc) and an executor fleet
// (Config.Fabric): journaled units are replayed exactly as in-process, the
// rest run on the backend, and every verdict is journaled as it arrives.
// Only the error tails differ. A tripped pool circuit breaker degrades the
// campaign to in-process execution for the missing units, the completed
// verdicts carried over as prefilled slots; a fleet keeps its scheduling
// sidecar until the campaign completes.
func executeUnitsRemote(cfg *Config, o execOpts, units []runUnit, fp uint64) ([]unitOutcome, []telemetry.HostStats, error) {
	ctx := o.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	out, todo := replayJournal(o, units)
	if len(todo) == 0 {
		return out, nil, nil
	}
	spec, err := procSpecFromConfig(cfg, fp)
	if err != nil {
		return nil, nil, err
	}
	b := &job.Backend{
		Workers:  o.workers,
		Proc:     cfg.Proc,
		Fabric:   cfg.Fabric,
		Registry: cfg.Telemetry.Registry(),
		Tracer:   o.tracer,
		Log:      job.Logger("campaign"),
	}
	lost := "crashed its worker subprocess on every delivery; quarantined by the supervisor"
	var side *journal.SideLog
	if cfg.Fabric != nil {
		lost = "went down with its executor host on every delivery; quarantined by the coordinator"
		// A crashed coordinator restarted with -resume finds the sidecar
		// and rebuilds the session table and outstanding ranges; a
		// completed campaign removes it — only the canonical journal
		// outlives the run.
		if side, err = openFabricSide(o.journal, fp, job.JournalWrap(cfg.StorageChaos)); err != nil {
			return nil, nil, err
		}
	}
	hosts, err := b.Run(ctx, job.Job{
		Spec:        spec,
		Units:       len(units),
		Todo:        todo,
		Quarantine:  journal.Outcome{Mode: uint8(HostFault)},
		UnitTimeout: o.unitTimeout,
		Side:        side,
		// OnResult is serialized by the pool and by the coordinator's
		// event loop alike, so the slot writes and journal appends need no
		// further locking.
		OnResult: func(r worker.Result) error {
			u := &units[r.Index]
			if r.Quarantined {
				quarantineLog(u, lost, nil)
			}
			out[r.Index] = outcomeFromJournal(r.Outcome)
			o.met.noteVerdict(0, out[r.Index])
			if o.tracer != nil {
				v := traceUnit(telemetry.KindVerdict, r.Index, u, 0)
				v.Mode = out[r.Index].mode.String()
				o.tracer.Emit(v)
			}
			if o.journal != nil {
				if err := o.journal.Append(r.Index, r.Outcome); err != nil {
					return fmt.Errorf("campaign: %w", err)
				}
			}
			return nil
		},
	})
	if side != nil {
		if err == nil {
			// Completed campaign: the scheduling state is spent.
			if rerr := side.Remove(); rerr != nil {
				fmt.Fprintf(os.Stderr, "campaign: removing fabric sidecar: %v\n", rerr)
			}
		} else {
			// Interrupted or failed: keep the sidecar on disk — it is
			// exactly what a restarted coordinator needs to recover its
			// sessions.
			side.Close()
		}
	}
	switch {
	case err == nil:
		return out, hosts, nil
	case errors.Is(err, worker.ErrCircuitOpen):
		// Graceful degradation: process isolation is unavailable on this
		// host right now, but the campaign itself is fine. Finish the
		// missing units in-process; completed verdicts ride along as
		// prefilled slots (and are already journaled).
		fmt.Fprintf(os.Stderr, "campaign: process isolation degraded to in-process execution (%v)\n", err)
		o.prefill = out
		out, err = executeUnitsOpts(o, units)
		return out, nil, err
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return out, hosts, err
	default:
		return nil, nil, err
	}
}
