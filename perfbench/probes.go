package main

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/injector"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The vm and injector probes time public calls on the workload's own
// programs, inputs and faults, after the timed window of a traced
// repetition. Each probe repeats its pass until it has measured at least
// probeBudget, so the figures are rates over many calls.

const (
	probeBudget = 150 * time.Millisecond
	// probeCases caps the inputs per program a VM probe pass runs, so one
	// pass stays short on realfault's large input sets.
	probeCases = 8
	// probeCheckpoints caps the golden checkpoints the restore probe visits.
	probeCheckpoints = 256
)

type probeTarget struct {
	c      *cc.Compiled
	cases  []workload.Case
	faults []*fault.Fault
	mode   injector.Mode
}

func (b *bench) probes(targets []probeTarget) error {
	block, reset, err := vmThroughput(targets, false)
	if err != nil {
		return err
	}
	step, _, err := vmThroughput(targets, true)
	if err != nil {
		return err
	}
	b.layer["vm.block_minstr_per_s"] = block
	b.layer["vm.step_minstr_per_s"] = step
	b.layer["vm.reset_us"] = reset
	restore, snapshot, err := checkpointProbe(targets)
	if err != nil {
		return err
	}
	b.layer["vm.restore_us"] = restore
	b.layer["vm.snapshot_us"] = snapshot
	arm, lean, ratio, err := armProbe(targets)
	if err != nil {
		return err
	}
	b.layer["injector.arm_us"] = arm
	b.layer["injector.arm_lean_us"] = lean
	b.layer["injector.lean_ratio"] = ratio
	return nil
}

func loaded(targets []probeTarget) ([]*vm.Machine, error) {
	ms := make([]*vm.Machine, len(targets))
	for i, t := range targets {
		ms[i] = vm.New(vm.Config{})
		if err := ms[i].Load(t.c.Prog.Image); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// vmThroughput runs the targets' clean inputs on hook-free machines (the
// block engine) or, with stepHook, under a pass-through fetch hook, which
// keeps the machine on its per-instruction path. It returns guest Minstr/s
// over Run alone and the median Reset time in µs.
func vmThroughput(targets []probeTarget, stepHook bool) (minstr, resetUS float64, err error) {
	ms, err := loaded(targets)
	if err != nil {
		return 0, 0, err
	}
	var cycles uint64
	var ran time.Duration
	var resets []float64
	for ran < probeBudget {
		for i, t := range targets {
			m := ms[i]
			for k := 0; k < len(t.cases) && k < probeCases; k++ {
				cs := &t.cases[k]
				r := time.Now()
				if err := m.Reset(); err != nil {
					return 0, 0, err
				}
				resets = append(resets, usSince(r))
				m.SetMaxCycles(vm.DefaultMaxCycles)
				m.SetInput(cs.Input.Ints)
				m.SetByteInput(cs.Input.Bytes)
				if stepHook {
					m.SetFetchHook(func(_, w uint32) uint32 { return w })
				}
				s := time.Now()
				if _, err := m.Run(); err != nil {
					return 0, 0, err
				}
				ran += time.Since(s)
				cycles += m.Cycles()
			}
		}
	}
	return float64(cycles) / ran.Seconds() / 1e6, median(resets), nil
}

// checkpointProbe restores the golden store's checkpoints onto machines
// loaded with the workload's programs and snapshots the restored state. A
// checkpoint restores onto the machine whose image it was taken from;
// Restore refuses the others before touching them. Both results are
// medians in µs; 0 when the process holds no checkpoints.
func checkpointProbe(targets []probeTarget) (restoreUS, snapshotUS float64, err error) {
	var snaps []*vm.Snapshot
	golden.Shared.Each(func(r *golden.Record) {
		for i := range r.Checkpoints {
			snaps = append(snaps, r.Checkpoints[i].Snap)
		}
	})
	if len(snaps) == 0 {
		return 0, 0, nil
	}
	ms, err := loaded(targets)
	if err != nil {
		return 0, 0, err
	}
	var restores, snapshots []float64
	var ran time.Duration
	for start := time.Now(); ran < probeBudget; ran = time.Since(start) {
		for k, s := range snaps {
			if k == probeCheckpoints {
				break
			}
			for _, m := range ms {
				t := time.Now()
				if m.Restore(s) != nil {
					continue
				}
				restores = append(restores, usSince(t))
				t = time.Now()
				m.Snapshot()
				snapshots = append(snapshots, usSince(t))
				break
			}
		}
		if len(restores) == 0 {
			return 0, 0, fmt.Errorf("no golden checkpoint restores onto the workload's programs")
		}
	}
	return median(restores), median(snapshots), nil
}

// armProbe arms every fault of the workload on a freshly reset machine,
// once with the generic injector.Arm and once with the campaign fast path
// injector.ArmLean. It returns the median Arm and ArmLean times in µs and
// the share of faults ArmLean accepts.
func armProbe(targets []probeTarget) (armUS, leanUS, leanRatio float64, err error) {
	ms, err := loaded(targets)
	if err != nil {
		return 0, 0, 0, err
	}
	var arms, leans []float64
	tried, accepted := 0, 0
	var ran time.Duration
	for start := time.Now(); ran < probeBudget; ran = time.Since(start) {
		for i, t := range targets {
			m := ms[i]
			for _, f := range t.faults {
				if err := m.Reset(); err != nil {
					return 0, 0, 0, err
				}
				s := time.Now()
				if _, err := injector.Arm(m, t.mode, f); err != nil {
					return 0, 0, 0, fmt.Errorf("arming %s: %w", f.ID, err)
				}
				arms = append(arms, usSince(s))
				if err := m.Reset(); err != nil {
					return 0, 0, 0, err
				}
				s = time.Now()
				ok, err := injector.ArmLean(m, t.mode, f)
				d := usSince(s)
				if err != nil {
					return 0, 0, 0, fmt.Errorf("lean-arming %s: %w", f.ID, err)
				}
				tried++
				if ok {
					accepted++
					leans = append(leans, d)
				}
			}
		}
	}
	return median(arms), median(leans), float64(accepted) / float64(tried), nil
}

func usSince(t time.Time) float64 { return float64(time.Since(t)) / 1e3 }
