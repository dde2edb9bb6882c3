package job

import (
	"context"
	"time"

	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// JoinOptions configures one executor host (Join).
type JoinOptions struct {
	// Name identifies this host in coordinator logs and per-host metrics;
	// empty picks the hostname.
	Name string
	// Workers is the local parallelism; 0 picks GOMAXPROCS.
	Workers int
	// Isolation selects how this host runs its units: in-process
	// goroutines (default) or supervised worker subprocesses.
	Isolation Isolation
	// Proc tunes the local worker pool under IsolationProc.
	Proc *ProcOptions
	// UnitPace, when positive, floors each unit's wall time on this host —
	// a fixed per-host service rate, honoured by the campaign's in-process
	// batches. Production paths leave it zero (run flat out); the loopback
	// scaling benchmark sets it so N executors sharing one machine's CPU
	// still model N independent hosts.
	UnitPace time.Duration
	// DialTimeout caps the initial connection establishment, retries
	// included; ReconnectWindow caps re-establishment after a lost
	// connection. Zero keeps the fabric defaults (10s / 60s).
	DialTimeout     time.Duration
	ReconnectWindow time.Duration
	// Chaos, when non-nil and enabled, wraps the dialed coordinator
	// connection with deterministic network-fault injection, and its
	// storage/IPC keys fault this host's worker pipes and checkpoints.
	Chaos *chaos.Config
	// Registry, when non-nil, receives the executor-side fabric, worker
	// and chaos instruments.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records this executor's unit lifecycle events;
	// with federation on they are also pushed to the coordinator's merged
	// trace. Nil with federation on creates a private tracer so the merged
	// trace still has a source.
	Tracer *telemetry.Tracer
	// NoFederation disables the telemetry federation plane: no snapshot or
	// trace frames are pushed to the coordinator. Federation is passive and
	// best-effort, so this switches observability only — it is the
	// benchmark's A/B control, not a production knob.
	NoFederation bool
	// FederationInterval floors the time between periodic federation pushes
	// (zero keeps the fabric default of 1s). Tests and benchmarks lower it
	// to exercise the push path at heartbeat speed.
	FederationInterval time.Duration
	// Log receives per-session fabric events; nil silences them.
	Log func(format string, args ...any)
}

// Host is what Join resolved for this executor, handed to Local.Batch: the
// local parallelism, the tracer (never nil with federation on; it feeds the
// merged trace) and the storage/IPC chaos injector (see StorageChaos).
type Host struct {
	Workers int
	Tracer  *telemetry.Tracer
	Storage *chaos.Chaos
}

// Local is how an executor serves the spec kinds it knows.
type Local struct {
	// Tool prefixes the log lines of the local worker pools.
	Tool string
	// Quarantine is the verdict a local worker pool records for a unit
	// that took down every worker it was delivered to.
	Quarantine journal.Outcome
	// Batch builds the session's in-process batch runner from the
	// coordinator's spec. It runs once per session, so it is where the
	// spec is decoded, re-planned and fingerprint-checked. Under
	// IsolationProc the runner only supplies the unit count (and, through
	// a UnitTimeout() time.Duration method, the per-unit deadline): every
	// batch then runs on a fresh local worker pool that rebuilds the spec
	// itself.
	Batch func(spec worker.Spec, h Host) (fabric.BatchRunner, error)
}

// InProc adapts a worker.Factory into a Local.Batch that runs one runner
// per local worker goroutine.
func InProc(f worker.Factory) func(worker.Spec, Host) (fabric.BatchRunner, error) {
	return func(spec worker.Spec, h Host) (fabric.BatchRunner, error) {
		return fabric.InProcBatch(f, h.Workers)(spec)
	}
}

// Join connects to a coordinator and serves assigned unit ranges until the
// job completes (nil), the context is cancelled, or the session fails. The
// spec — and with it every planning input — comes from the coordinator, so
// the joining process needs no job flags of its own.
func Join(ctx context.Context, addr string, opts JoinOptions, l Local) error {
	workers := parallel.DefaultWorkers(opts.Workers)
	// Telemetry federation: unless disabled, every executor-side instrument
	// registers on the federation's registry and every unit lifecycle event
	// lands in its trace buffer, both pushed to the coordinator on the
	// heartbeat cadence. The push is best-effort by construction, so the
	// wiring here changes what the coordinator can observe, never what it
	// merges.
	reg, tr := opts.Registry, opts.Tracer
	var fed *fabric.Federation
	if !opts.NoFederation {
		if tr == nil {
			tr = telemetry.NewTracer(telemetry.DefaultTraceCap)
		}
		fed = fabric.NewFederation(reg, tr)
		reg = fed.Registry
	}
	// Executor-side storage/IPC chaos: pipe faults hit this host's worker
	// pools, and Local.Batch may poison checkpoints from the same injector.
	// The verdicts live on the coordinator, so there is no disk to wrap.
	h := Host{Workers: workers, Tracer: tr, Storage: StorageChaos(opts.Chaos, reg)}
	pool := Backend{Workers: workers, Registry: reg, Tracer: tr, Log: Logger(l.Tool)}
	if opts.Isolation == IsolationProc {
		p := ProcOptions{}
		if opts.Proc != nil {
			p = *opts.Proc
		}
		if w := PipeWrap(h.Storage); w != nil {
			p.WrapPipes = w
		}
		pool.Proc = &p
	}
	return fabric.Join(ctx, addr, fabric.ExecutorOptions{
		Name:               opts.Name,
		Workers:            workers,
		DialTimeout:        opts.DialTimeout,
		ReconnectWindow:    opts.ReconnectWindow,
		WrapConn:           ConnWrap(opts.Chaos, reg),
		Metrics:            fabric.NewExecutorMetrics(reg),
		Federation:         fed,
		FederationInterval: opts.FederationInterval,
		Log:                opts.Log,
		Batch: func(spec worker.Spec) (fabric.BatchRunner, error) {
			r, err := l.Batch(spec, h)
			if err != nil || pool.Proc == nil {
				return r, err
			}
			j := Job{Spec: spec, Units: r.Units(), Quarantine: l.Quarantine}
			if d, ok := r.(interface{ UnitTimeout() time.Duration }); ok {
				j.UnitTimeout = d.UnitTimeout()
			}
			return &procBatch{pool: pool, job: j}, nil
		},
	})
}

// procBatch serves each batch through a fresh local worker pool: the full
// sandbox semantics of IsolationProc, one subprocess fleet per batch.
// Units stolen after the batch was cut are filtered only at the start —
// the pool owns in-flight dispatch — so a mid-batch steal can execute
// twice; the coordinator's merge drops the duplicate.
type procBatch struct {
	pool Backend
	job  Job
}

func (b *procBatch) Units() int { return b.job.Units }

func (b *procBatch) RunBatch(ctx context.Context, batch []int, skip func(int) bool, emit func(int, journal.Outcome, []byte) error) error {
	todo := make([]int, 0, len(batch))
	for _, u := range batch {
		if !skip(u) {
			todo = append(todo, u)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	j := b.job
	j.Todo = todo
	j.OnResult = func(r worker.Result) error {
		return emit(r.Index, r.Outcome, r.Payload)
	}
	_, err := b.pool.Run(ctx, j)
	return err
}
