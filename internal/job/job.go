// Package job owns the decision of how a job's units execute off the
// in-process path: on a supervised pool of worker subprocesses, on a fabric
// coordinator (Backend), or as a fabric executor that runs its batches
// in-process or on a local worker pool (Join). Spawning, heartbeats, pool
// tuning, the fleet tracker, federation, the chaos wraps, metrics, tracing
// and the log prefix are wired here once for every CLI and the campaign.
// What a unit computes is the spec kind's business: workers rebuild a
// worker.Runner from the spec (Factory), executors a batch runner (Local).
package job

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// Isolation selects where an executor host runs its units.
type Isolation int

const (
	// IsolationInProc runs units on goroutines in this process (the
	// default; fastest, but a hard host failure in one unit can take the
	// whole job down with it).
	IsolationInProc Isolation = iota
	// IsolationProc runs units in supervised worker subprocesses: a host
	// crash, OOM-kill or wedge costs one worker and at most one in-flight
	// unit delivery, never the job.
	IsolationProc
)

// ProcOptions tunes a worker-subprocess pool. The zero value (and a nil
// *ProcOptions) selects the worker package defaults plus self re-exec
// spawning; tests override Spawn and the cadences.
type ProcOptions struct {
	// Spawn builds one (not yet started) worker subprocess. nil re-executes
	// the current binary with the single argument -worker-mode, which every
	// CLI wires to worker.Serve.
	Spawn func() *exec.Cmd

	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	MaxDeliveries     int
	MaxRestarts       int
	MemQuota          int64
	BackoffBase       time.Duration
	BackoffMax        time.Duration

	// WrapPipes, when non-nil, interposes on every worker subprocess's
	// stdin/stdout pair — the storage/IPC chaos plane's hook for corrupting,
	// truncating or severing supervisor pipes (see worker.Options.WrapPipes).
	// Production paths leave it nil.
	WrapPipes func(w io.WriteCloser, r io.Reader) (io.WriteCloser, io.Reader)
}

// FabricOptions configures the coordinator side of a distributed job.
type FabricOptions struct {
	// Listen is the TCP address the coordinator binds (e.g. ":9370").
	Listen string
	// MinHosts is how many executors must join before the job shards;
	// 0 means 1.
	MinHosts int
	// HeartbeatInterval/HeartbeatTimeout tune fabric liveness; zero keeps
	// the worker-supervisor defaults (500ms / 10s), which suit LAN and
	// loopback. WAN links want looser deadlines.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// MaxDeliveries is how many executor hosts a unit may go down with
	// before it is quarantined; 0 means 3.
	MaxDeliveries int
	// SessionTimeout is how long an executor session survives a lost
	// connection before its units are redelivered; zero derives 2× the
	// heartbeat timeout.
	SessionTimeout time.Duration
	// Chaos, when non-nil and enabled, wraps every accepted executor
	// connection with deterministic network-fault injection — the fabric's
	// own resilience test harness. Results must stay bit-identical to a
	// clean run; the chaos_* counters report the absorbed abuse.
	Chaos *chaos.Config
}

// Backend is where a job's units run when they leave the in-process path:
// a fabric coordinator when Fabric is set, otherwise a pool of worker
// subprocesses. Build it once per process and Run any number of jobs on it.
type Backend struct {
	// Workers sizes the worker pool; 0 picks GOMAXPROCS.
	Workers int
	Proc    *ProcOptions
	Fabric  *FabricOptions
	// Registry and Tracer receive the pool's or coordinator's instruments
	// and events; both may be nil.
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
	// Log receives supervision and scheduling events; nil silences them.
	Log func(format string, args ...any)
}

// Job is one set of units to execute on a Backend.
type Job struct {
	// Spec is handed to every worker or executor, which rebuilds the unit
	// numbering from it and must reproduce Spec.Fingerprint.
	Spec worker.Spec
	// Units is the total unit count of the plan.
	Units int
	// Todo lists the unit indices still to run; nil runs all of them.
	Todo []int
	// Quarantine is the outcome recorded for a unit that took down every
	// worker or host it was delivered to.
	Quarantine journal.Outcome
	// UnitTimeout bounds one unit's wall clock on a worker pool (see
	// worker.Options.UnitTimeout); zero means no deadline.
	UnitTimeout time.Duration
	// Side, on a fabric coordinator, is the sidecar WAL its scheduling
	// state is journaled through (see fabric.CoordinatorOptions.Side).
	Side *journal.SideLog
	// OnResult receives each unit's verdict exactly once, never
	// concurrently, so it needs no locking of its own.
	OnResult func(worker.Result) error
}

// Run executes the job's units and returns when every one has a verdict or
// a quarantine (nil), on cancellation (ctx.Err(), some units unfinished),
// or on the first error from OnResult or the backend. A worker pool that
// cannot keep subprocesses alive fails with worker.ErrCircuitOpen. hosts
// is the fleet's per-host summary; nil on a worker pool.
func (b *Backend) Run(ctx context.Context, j Job) (hosts []telemetry.HostStats, err error) {
	todo := j.Todo
	if todo == nil {
		todo = make([]int, j.Units)
		for i := range todo {
			todo[i] = i
		}
	}
	if b.Fabric != nil {
		return b.coordinate(ctx, j, todo)
	}
	po := b.Proc
	if po == nil {
		po = &ProcOptions{}
	}
	spawn := po.Spawn
	if spawn == nil {
		spawn = selfSpawn
	}
	pool, err := worker.NewPool(worker.Options{
		Workers:           parallel.DefaultWorkers(b.Workers),
		Command:           spawn,
		Spec:              j.Spec,
		HeartbeatInterval: po.HeartbeatInterval,
		HeartbeatTimeout:  po.HeartbeatTimeout,
		UnitTimeout:       j.UnitTimeout,
		MaxDeliveries:     po.MaxDeliveries,
		MaxRestarts:       po.MaxRestarts,
		BackoffBase:       po.BackoffBase,
		BackoffMax:        po.BackoffMax,
		MemQuota:          po.MemQuota,
		Quarantine:        j.Quarantine,
		WrapPipes:         po.WrapPipes,
		Metrics:           telemetry.NewWorkerMetrics(b.Registry),
		Tracer:            b.Tracer,
		Log:               b.Log,
	})
	if err != nil {
		return nil, err
	}
	return nil, pool.Run(ctx, todo, j.OnResult)
}

// coordinate shards the job over the executor fleet. The fleet tracker
// mirrors the coordinator's session table for the /fleet endpoint, the TTY
// note and the report's hosts section; its total is the distributed
// portion only. SetFleetSource late-binds it to a -debug-addr server that
// started before planning.
func (b *Backend) coordinate(ctx context.Context, j Job, todo []int) ([]telemetry.HostStats, error) {
	fo := b.Fabric
	fleet := fabric.NewFleetTracker(len(todo), b.Registry)
	telemetry.SetFleetSource(fleet.Source())
	defer telemetry.SetFleetSource(nil)
	coord, err := fabric.NewCoordinator(fabric.CoordinatorOptions{
		Addr:              fo.Listen,
		MinHosts:          fo.MinHosts,
		Spec:              j.Spec,
		Units:             j.Units,
		HeartbeatInterval: fo.HeartbeatInterval,
		HeartbeatTimeout:  fo.HeartbeatTimeout,
		SessionTimeout:    fo.SessionTimeout,
		MaxDeliveries:     fo.MaxDeliveries,
		Quarantine:        j.Quarantine,
		Side:              j.Side,
		WrapConn:          ConnWrap(fo.Chaos, b.Registry),
		Metrics:           fabric.NewMetrics(b.Registry),
		Tracer:            b.Tracer,
		Registry:          b.Registry,
		Fleet:             fleet,
		Log:               b.Log,
	})
	if err != nil {
		return nil, err
	}
	err = coord.Run(ctx, todo, j.OnResult)
	return fleet.HostStats(), err
}

// selfSpawn re-executes the current binary in worker mode.
func selfSpawn() *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	cmd := exec.Command(exe, "-worker-mode")
	cmd.Stderr = os.Stderr
	return cmd
}

// Logger returns a log function that writes one "prefix: ..." line per
// event to stderr.
func Logger(prefix string) func(format string, args ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, prefix+": "+format+"\n", args...)
	}
}
