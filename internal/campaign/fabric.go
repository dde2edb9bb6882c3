package campaign

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/fabric"
	"repro/internal/golden"
	"repro/internal/job"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// This file is the executor side of a distributed campaign: with
// Config.Fabric set, executeUnitsRemote drives a fabric coordinator, and
// JoinFabric turns any other process — usually on another host — into an
// executor running the identical local stack. As with process isolation,
// the plan never crosses the wire: both sides rebuild it from the
// serialized Config and cross-check the plan fingerprint, so the protocol
// carries only unit indices out and verdicts back, and the Result stays
// bit-identical to a single-host run for any fleet size or host-loss
// history.

// FabricOptions configures the coordinator side of a distributed campaign
// (Config.Fabric); see job.FabricOptions.
type FabricOptions = job.FabricOptions

// JoinOptions configures one executor host (JoinFabric); see
// job.JoinOptions.
type JoinOptions = job.JoinOptions

// JoinFabric connects to a campaign coordinator and serves assigned unit
// ranges until the campaign completes (nil), the context is cancelled, or
// the session fails. The campaign spec — and with it every planning input —
// comes from the coordinator, so the joining process needs no campaign
// flags of its own. What is campaign-specific lives here: one re-plan per
// session, golden-checkpoint poisoning from this host's storage chaos, and
// UnitPace.
func JoinFabric(ctx context.Context, addr string, opts JoinOptions) error {
	return job.Join(ctx, addr, opts, job.Local{
		Tool:       "campaign",
		Quarantine: journal.Outcome{Mode: uint8(HostFault)},
		Batch: func(spec worker.Spec, h job.Host) (fabric.BatchRunner, error) {
			golden.Shared.SetPoison(job.PoisonHook(h.Storage))
			ex, err := replan(spec, h.Workers)
			if err != nil {
				return nil, err
			}
			return &fabricBatchRunner{ex: ex, workers: h.Workers, pace: opts.UnitPace, tracer: h.Tracer}, nil
		},
	})
}

// fabricBatchRunner executes assigned batches on the local in-process
// stack. It re-plans once per session (not per batch) and keeps one
// unitExecutor with per-worker machine pools across batches, so goldens,
// calibration and pooled machines amortise over everything this host is
// ever assigned.
type fabricBatchRunner struct {
	ex      *unitExecutor
	workers int
	pace    time.Duration
	tracer  *telemetry.Tracer
}

func (b *fabricBatchRunner) Units() int { return len(b.ex.units) }

// UnitTimeout is the per-unit deadline of the rebuilt Config, which a local
// worker pool (JoinOptions.Isolation) bounds its deliveries by.
func (b *fabricBatchRunner) UnitTimeout() time.Duration { return b.ex.opts.unitTimeout }

func (b *fabricBatchRunner) RunBatch(ctx context.Context, batch []int, skip func(int) bool, emit func(int, journal.Outcome, []byte) error) error {
	return parallel.ForEachCtx(ctx, b.workers, len(batch), func(w, k int) error {
		u := batch[k]
		if skip(u) {
			return nil
		}
		ru := &b.ex.units[u]
		if b.tracer != nil {
			b.tracer.Emit(traceUnit(telemetry.KindDispatched, u, ru, w))
		}
		start := time.Now()
		o, err := b.ex.runIsolated(w, ru)
		if err != nil {
			return fmt.Errorf("%s %s case %d: %w", ru.program, ru.f.ID, ru.caseIx, err)
		}
		if b.tracer != nil {
			e := traceUnit(telemetry.KindExecuted, u, ru, w)
			e.DurUS = time.Since(start).Microseconds()
			b.tracer.Emit(e)
		}
		if b.pace > 0 {
			if d := b.pace - time.Since(start); d > 0 {
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(d):
				}
			}
		}
		return emit(u, o.journal(), nil)
	})
}

// openFabricSide opens (resume) or creates the coordinator's sidecar WAL
// next to the verdict journal, bound to the plan fingerprint. Without a
// journal there is nothing to recover into, so no sidecar is kept. A
// storage-chaos wrap applies to the sidecar exactly as the CLI applies it
// to the journal: both files live on the same (possibly failing) disk.
func openFabricSide(j *journal.Journal, fp uint64, wrap journal.Wrap) (*journal.SideLog, error) {
	if j == nil {
		return nil, nil
	}
	path := j.Path() + ".fabric"
	var side *journal.SideLog
	var err error
	if j.Resumed() {
		if _, serr := os.Stat(path); serr == nil {
			side, err = journal.OpenSideWrapped(path, wrap)
		} else {
			// The previous run completed its fabric bookkeeping (or ran
			// pre-sidecar); start scheduling state fresh.
			side, err = journal.CreateSideWrapped(path, wrap)
		}
	} else {
		side, err = journal.CreateSideWrapped(path, wrap)
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: fabric sidecar: %w", err)
	}
	if err := side.Bind(fp); err != nil {
		side.Close()
		return nil, fmt.Errorf("campaign: fabric sidecar: %w", err)
	}
	return side, nil
}
