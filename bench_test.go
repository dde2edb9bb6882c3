package repro

// The benchmark harness: one benchmark per table and figure of the paper,
// plus the ablations called out in DESIGN.md. Each benchmark runs a scaled
// version of the corresponding experiment per iteration and reports the
// headline quantity of that table/figure as a custom metric, so the shape
// of the paper's results is visible straight from `go test -bench=.`:
//
//	go test -bench=. -benchmem            # scaled-down (default)
//	REPRO_BENCH_SCALE=1.0 go test -bench=BenchmarkFigure7 -timeout 24h
//
// Absolute run counts are scaled by REPRO_BENCH_SCALE (default 0.01 of the
// paper's sizes); the qualitative findings hold at any scale.

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cc"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/injector"
	"repro/internal/journal"
	"repro/internal/locator"
	"repro/internal/metrics"
	"repro/internal/programs"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/worker"
	"repro/internal/workload"
)

// TestMain lets the bench binary serve as its own campaign worker: the
// proc-isolation benchmark re-executes this binary with REPRO_BENCH_WORKER
// set, exactly as swifi re-executes itself with -worker-mode.
func TestMain(m *testing.M) {
	if os.Getenv("REPRO_BENCH_WORKER") == "1" {
		if err := worker.Serve(os.Stdin, os.Stdout, campaign.WorkerFactory); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchScale reads the scale factor for benchmark workloads.
func benchScale() float64 {
	if s := os.Getenv("REPRO_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.01
}

// scaledCases converts a paper-sized run count to the bench scale.
func scaledCases(paper int) int {
	n := int(float64(paper) * benchScale())
	if n < 2 {
		n = 2
	}
	return n
}

// campaignCfg builds a §6 campaign configuration for the given programs at
// bench scale.
func campaignCfg(classes []fault.Class, progs ...string) campaign.Config {
	return campaign.Config{
		Programs:      progs,
		Classes:       classes,
		CasesPerFault: scaledCases(campaign.PaperCasesPerFault),
		Seed:          2000,
	}
}

// BenchmarkTable1 regenerates Table 1: the failure symptoms of the real
// software faults under intensive random testing. Reported metric:
// wrong-result percentage of the most failure-prone program.
func BenchmarkTable1(b *testing.B) {
	runs := scaledCases(10000)
	for i := 0; i < b.N; i++ {
		var worst float64
		for _, p := range programs.RealFaultPrograms() {
			cases, err := workload.Generate(p.Kind, runs, 99)
			if err != nil {
				b.Fatal(err)
			}
			c, err := p.CompileFaulty()
			if err != nil {
				b.Fatal(err)
			}
			wrong := 0
			for ci := range cases {
				res, err := campaign.RunClean(c, cases[ci].Input, cases[ci].Golden, vm.DefaultMaxCycles)
				if err != nil {
					b.Fatal(err)
				}
				if res.Mode != campaign.Correct {
					wrong++
				}
			}
			if pct := 100 * float64(wrong) / float64(len(cases)); pct > worst {
				worst = pct
			}
		}
		b.ReportMetric(worst, "worst-%wrong")
	}
}

// BenchmarkTable4 regenerates the Table 4 fault accounting (locations,
// chosen subsets, expanded fault lists) for all eight programs — the plan
// construction only, no injections. Reported metric: total faults planned.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := 0
		for _, p := range programs.Table4Programs() {
			c, err := p.Compile()
			if err != nil {
				b.Fatal(err)
			}
			pa, err := locator.PlanAssignment(c, p.Name, campaign.PaperChosenAssign[p.Name], 2000)
			if err != nil {
				b.Fatal(err)
			}
			pc, err := locator.PlanChecking(c, p.Name, campaign.PaperChosenCheck[p.Name], 2000)
			if err != nil {
				b.Fatal(err)
			}
			total += len(pa.Faults) + len(pc.Faults)
		}
		b.ReportMetric(float64(total), "faults")
	}
}

// BenchmarkTable4Parallel executes the Table 4 campaign (both classes, all
// eight programs) at bench scale across worker counts — the wall-clock and
// allocation trajectory of the campaign executor. The straight sub-benchmark
// disables golden-run checkpointing (reboot + full replay per injection,
// the pre-checkpoint executor); the workers=N sub-benchmarks use the
// checkpointed fast path. The campaign Result is bit-identical across all
// sub-benchmarks (the determinism and fast-forward equivalence tests assert
// this), so time/op and allocs/op are the only things that move.
func BenchmarkTable4Parallel(b *testing.B) {
	run := func(b *testing.B, workers int, noFFwd bool) {
		b.ReportAllocs()
		cfg := campaignCfg([]fault.Class{fault.ClassAssignment, fault.ClassChecking},
			"C.team1", "C.team2", "C.team8", "C.team9", "C.team10", "JB.team6", "JB.team11", "SOR")
		cfg.Workers = workers
		cfg.NoFastForward = noFFwd
		for i := 0; i < b.N; i++ {
			res, err := campaign.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Runs), "runs")
		}
	}
	b.Run("straight", func(b *testing.B) { run(b, 1, true) })
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, w := range counts {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { run(b, w, false) })
	}
}

// BenchmarkTable4ProcIsolation prices the out-of-process worker sandbox: the
// same Table 4 campaign once with in-process goroutine workers and once with
// supervised worker subprocesses (the bench binary re-executing itself, the
// swifi -isolation=proc path). Both produce bit-identical Results — the
// proc/inproc time-per-op ratio is the IPC + supervision overhead, which the
// DESIGN.md budget caps at 15%.
func BenchmarkTable4ProcIsolation(b *testing.B) {
	run := func(b *testing.B, proc bool) {
		b.ReportAllocs()
		cfg := campaignCfg([]fault.Class{fault.ClassAssignment, fault.ClassChecking},
			"C.team1", "C.team2", "C.team8", "C.team9", "C.team10", "JB.team6", "JB.team11", "SOR")
		cfg.Workers = 4
		if proc {
			cfg.Isolation = campaign.IsolationProc
			cfg.Proc = &campaign.ProcOptions{
				Spawn: func() *exec.Cmd {
					cmd := exec.Command(os.Args[0])
					cmd.Env = append(os.Environ(), "REPRO_BENCH_WORKER=1")
					cmd.Stderr = os.Stderr
					return cmd
				},
				HeartbeatInterval: 100 * time.Millisecond,
			}
		}
		for i := 0; i < b.N; i++ {
			res, err := campaign.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Runs), "runs")
		}
	}
	b.Run("inproc", func(b *testing.B) { run(b, false) })
	b.Run("proc", func(b *testing.B) { run(b, true) })
}

// benchLoopbackAddr reserves a loopback port for a bench coordinator.
func benchLoopbackAddr(b *testing.B) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// BenchmarkTable4Fabric runs the Table 4 campaign through the distributed
// fabric with 1, 2 and 4 loopback executors. Every executor is paced to a
// fixed per-unit service time (fabricUnitPace), because all executors here
// share one machine's CPU: unpaced, N loopback executors can never beat one
// on CPU-bound work, which says nothing about the fabric. Pacing models N
// independent hosts of equal capacity, so the measured speedup is exactly
// what the fabric layer contributes — sharding, work stealing and merge
// concurrency — and its shortfall from N is the fabric's scheduling plus
// coordination overhead. scripts/bench.sh derives the scaling-efficiency
// labels in BENCH_<tag>.json from the executors=1/2 ratio.
func BenchmarkTable4Fabric(b *testing.B) {
	const fabricUnitPace = 60 * time.Millisecond
	cfg := campaignCfg([]fault.Class{fault.ClassAssignment, fault.ClassChecking},
		"C.team1", "C.team2", "C.team8", "C.team9", "C.team10", "JB.team6", "JB.team11", "SOR")
	// Warm the process-wide stores (workloads, calibration, goldens) once so
	// no sub-benchmark pays the one-time cost for the others.
	if _, err := campaign.Run(cfg); err != nil {
		b.Fatal(err)
	}
	join := func(ctx context.Context, addr, name string) {
		// The coordinator binds only after planning; retry until it is up.
		for ctx.Err() == nil {
			err := campaign.JoinFabric(ctx, addr, campaign.JoinOptions{
				Name:     name,
				Workers:  1,
				UnitPace: fabricUnitPace,
			})
			if err == nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for _, hosts := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("executors=%d", hosts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				addr := benchLoopbackAddr(b)
				ctx, cancel := context.WithCancel(context.Background())
				var wg sync.WaitGroup
				for h := 0; h < hosts; h++ {
					wg.Add(1)
					go func(name string) {
						defer wg.Done()
						join(ctx, addr, name)
					}(fmt.Sprintf("bench-exec-%d", h))
				}
				fcfg := cfg
				fcfg.Fabric = &campaign.FabricOptions{
					Listen:            addr,
					MinHosts:          hosts,
					HeartbeatInterval: 100 * time.Millisecond,
					HeartbeatTimeout:  10 * time.Second,
				}
				res, err := campaign.Run(fcfg)
				cancel()
				wg.Wait()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Runs), "runs")
				b.ReportMetric(fabricUnitPace.Seconds()*1e3, "pace-ms/unit")
			}
		})
	}
}

// BenchmarkTable4DiskChaos prices the storage-chaos plane on the journaled
// Table 4 campaign. "off" journals with no chaos anywhere near the write
// path; "overhead" interleaves an off leg and a disabled-injector leg per
// iteration — the injector threaded through the exact seams the CLIs use
// (journal wrap hook, checkpoint poison hook), which must collapse to
// pass-throughs — and reports their paired wall-clock ratio as
// "overhead-ratio", the number DESIGN.md §5j budgets at ≤2%. The pairing
// matters: the two legs are near-identical code, so timing them as
// separate sub-benchmarks measures machine drift, not the plane. "chaos"
// injects disk faults at the smoke-test rates, pricing degradation and
// the completion-time recovery rewrite. Checkpoint poison is deliberately
// absent: poisoned records would linger in the process-wide golden store
// and contaminate every benchmark that runs after this one.
func BenchmarkTable4DiskChaos(b *testing.B) {
	base := campaignCfg([]fault.Class{fault.ClassAssignment, fault.ClassChecking},
		"C.team1", "C.team2", "C.team8", "C.team9", "C.team10", "JB.team6", "JB.team11", "SOR")
	base.Workers = 4
	// Warm the process-wide stores once so no sub-benchmark pays the
	// one-time cost for the others.
	if _, err := campaign.Run(base); err != nil {
		b.Fatal(err)
	}
	once := func(b *testing.B, cfg campaign.Config, inj *chaos.Chaos, path string) time.Duration {
		// The CLI's gate (cliutil.JournalWrap): no disk faults, no wrapper.
		var wrap journal.Wrap
		if cc := inj.Config(); cc.DiskEnabled() {
			wrap = func(f *os.File) journal.File { return inj.WrapFile(f) }
		}
		j, err := journal.CreateWrapped(path, wrap)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Journal = j
		cfg.StorageChaos = inj
		start := time.Now()
		res, err := campaign.Run(cfg)
		elapsed := time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		j.Close()
		b.ReportMetric(float64(res.Runs), "runs")
		return elapsed
	}
	run := func(b *testing.B, inj *chaos.Chaos) {
		b.ReportAllocs()
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			once(b, base, inj, filepath.Join(dir, fmt.Sprintf("bench-%d.wal", i)))
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("overhead", func(b *testing.B) {
		// The disabled-injector delta lives in per-write/per-unit hook
		// checks, which a two-program campaign exercises exactly as the
		// headline legs do — and short legs let many alternating blocks
		// average away this machine's large, non-linear throughput noise.
		// Each block times the legs in mirrored ABBA order and consecutive
		// blocks flip polarity, so no position in the run systematically
		// favors either side.
		small := campaignCfg([]fault.Class{fault.ClassAssignment}, "C.team1", "SOR")
		small.Workers = 4
		if _, err := campaign.Run(small); err != nil { // warm small golden runs
			b.Fatal(err)
		}
		dir := b.TempDir()
		var off, disabled time.Duration
		leg := 0
		offLeg := func() {
			off += once(b, small, nil, filepath.Join(dir, fmt.Sprintf("off-%d.wal", leg)))
			leg++
		}
		disabledLeg := func() {
			disabled += once(b, small, chaos.New(chaos.Config{Seed: 11}, nil),
				filepath.Join(dir, fmt.Sprintf("disabled-%d.wal", leg)))
			leg++
		}
		for i := 0; i < b.N; i++ {
			for blk := 0; blk < 4; blk++ {
				if blk%2 == 0 {
					offLeg()
					disabledLeg()
					disabledLeg()
					offLeg()
				} else {
					disabledLeg()
					offLeg()
					offLeg()
					disabledLeg()
				}
			}
		}
		b.ReportMetric(float64(disabled)/float64(off), "overhead-ratio")
	})
	b.Run("chaos", func(b *testing.B) {
		// The degraded-journal warnings print to stderr mid-iteration and
		// `go test` interleaves them into the benchmark output, tearing the
		// result line away from its numbers; silence them for the artifact.
		null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			b.Fatal(err)
		}
		old := os.Stderr
		os.Stderr = null
		defer func() {
			os.Stderr = old
			null.Close()
		}()
		run(b, chaos.New(chaos.Config{
			Seed:           11,
			DiskENOSPC:     0.01,
			DiskShortWrite: 0.005,
			DiskTornWrite:  0.005,
			DiskSyncFail:   0.01,
		}, nil))
	})
}

// BenchmarkTable4Federation prices the fleet-telemetry federation plane on
// a loopback fabric campaign: the same coordinator+executor run once with
// federation on (the default — the executor pushes snapshot and trace
// frames on every heartbeat and the coordinator republishes them as
// host-labeled series) and once with JoinOptions.NoFederation. Both legs
// produce bit-identical campaign Results (the federation plane never
// touches the verdict path), so the paired wall-clock ratio is the whole
// cost of the plane — frame encode, CRC, loopback write, coordinator
// ingest. Legs are timed in mirrored ABBA blocks with alternating polarity,
// exactly as BenchmarkTable4DiskChaos does, because the two legs are
// near-identical code and separate sub-benchmarks would measure machine
// drift instead. scripts/bench.sh turns the reported overhead-ratio into
// the federation_disabled_overhead label in BENCH_<tag>.json; DESIGN.md
// §5k budgets it at ≤2%. The 20ms heartbeat with a matching
// FederationInterval is deliberately aggressive — ~50x the default 1s push
// cadence — so the measured ratio is an upper bound.
func BenchmarkTable4Federation(b *testing.B) {
	cfg := campaignCfg([]fault.Class{fault.ClassAssignment}, "C.team1", "SOR")
	// Warm the process-wide stores once so neither leg pays one-time costs.
	if _, err := campaign.Run(cfg); err != nil {
		b.Fatal(err)
	}
	// The coordinator announces executor attach on stderr every leg, and
	// `go test` interleaves stderr into the benchmark output, tearing the
	// result line away from its numbers (the Table4DiskChaos/chaos problem);
	// silence it for the artifact.
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		b.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = null
	defer func() {
		os.Stderr = old
		null.Close()
	}()
	once := func(b *testing.B, noFed bool) time.Duration {
		addr := benchLoopbackAddr(b)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The coordinator binds only after planning; retry until it is up.
			for ctx.Err() == nil {
				err := campaign.JoinFabric(ctx, addr, campaign.JoinOptions{
					Name:               "bench-fed",
					Workers:            1,
					NoFederation:       noFed,
					FederationInterval: 20 * time.Millisecond,
				})
				if err == nil {
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
		}()
		fcfg := cfg
		fcfg.Fabric = &campaign.FabricOptions{
			Listen:            addr,
			MinHosts:          1,
			HeartbeatInterval: 20 * time.Millisecond,
			HeartbeatTimeout:  10 * time.Second,
		}
		start := time.Now()
		res, err := campaign.Run(fcfg)
		elapsed := time.Since(start)
		cancel()
		wg.Wait()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Runs), "runs")
		return elapsed
	}
	b.ReportAllocs()
	var on, off time.Duration
	for i := 0; i < b.N; i++ {
		for blk := 0; blk < 4; blk++ {
			if blk%2 == 0 {
				on += once(b, false)
				off += once(b, true)
				off += once(b, true)
				on += once(b, false)
			} else {
				off += once(b, true)
				on += once(b, false)
				on += once(b, false)
				off += once(b, true)
			}
		}
	}
	b.ReportMetric(float64(on)/float64(off), "overhead-ratio")
}

// BenchmarkTable4Telemetry prices the observability layer on the Table 4
// campaign (both classes, all eight programs, 4 workers): telemetry off
// (the nil fast path every plane short-circuits on), the metric registry
// plus a non-TTY progress surface (the swifi default on a terminal), and
// additionally the full trace firehose into a discarded JSONL sink. The
// Result is bit-identical across all three (asserted by the property tests
// in internal/campaign); the DESIGN.md budget caps metrics+progress at 2%
// over off.
func BenchmarkTable4Telemetry(b *testing.B) {
	run := func(b *testing.B, tel func() *telemetry.Telemetry) {
		b.ReportAllocs()
		cfg := campaignCfg([]fault.Class{fault.ClassAssignment, fault.ClassChecking},
			"C.team1", "C.team2", "C.team8", "C.team9", "C.team10", "JB.team6", "JB.team11", "SOR")
		cfg.Workers = 4
		for i := 0; i < b.N; i++ {
			cfg.Telemetry = tel()
			res, err := campaign.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Runs), "runs")
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, func() *telemetry.Telemetry { return nil })
	})
	b.Run("metrics+progress", func(b *testing.B) {
		run(b, func() *telemetry.Telemetry {
			return &telemetry.Telemetry{
				Reg:      telemetry.NewRegistry(),
				Progress: telemetry.NewProgress(io.Discard, false, 0),
			}
		})
	})
	b.Run("metrics+progress+trace", func(b *testing.B) {
		run(b, func() *telemetry.Telemetry {
			tr := telemetry.NewTracer(telemetry.DefaultTraceCap)
			tr.SinkJSONL(io.Discard)
			return &telemetry.Telemetry{
				Reg:      telemetry.NewRegistry(),
				Trace:    tr,
				Progress: telemetry.NewProgress(io.Discard, false, 0),
			}
		})
	})
}

// benchCampaign runs a one-class campaign and reports the share of correct
// runs — the paper's "dormant faults" fraction.
func benchCampaign(b *testing.B, class fault.Class, progs ...string) {
	b.Helper()
	cfg := campaignCfg([]fault.Class{class}, progs...)
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		d := res.Total(class)
		b.ReportMetric(d.Pct(campaign.Correct), "%correct")
		b.ReportMetric(float64(res.Runs), "runs")
	}
}

// BenchmarkFigure7 regenerates the assignment-fault campaign behind
// Figure 7 (failure modes per program) on the Camelot programs plus the
// JamesB pair.
func BenchmarkFigure7(b *testing.B) {
	benchCampaign(b, fault.ClassAssignment,
		"C.team1", "C.team2", "C.team8", "C.team9", "C.team10", "JB.team6", "JB.team11", "SOR")
}

// BenchmarkFigure8 regenerates the checking-fault campaign behind Figure 8.
func BenchmarkFigure8(b *testing.B) {
	benchCampaign(b, fault.ClassChecking,
		"C.team1", "C.team2", "C.team8", "C.team9", "C.team10", "JB.team6", "JB.team11", "SOR")
}

// BenchmarkFigure9 regenerates the per-error-type assignment breakdown of
// Figure 9 on the JamesB programs (the full-suite numbers come from the
// Figure 7 campaign; the shape is the same).
func BenchmarkFigure9(b *testing.B) {
	benchCampaign(b, fault.ClassAssignment, "JB.team6", "JB.team11")
}

// BenchmarkFigure10 regenerates the per-error-type checking breakdown of
// Figure 10 on the JamesB programs.
func BenchmarkFigure10(b *testing.B) {
	benchCampaign(b, fault.ClassChecking, "JB.team6", "JB.team11")
}

// BenchmarkFigure2 regenerates the empirical fault-exposure chain (p1 ·
// p2·p3) of Figure 2. Reported metric: p1, the activation probability.
func BenchmarkFigure2(b *testing.B) {
	cfg := campaignCfg(nil, "JB.team11")
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		d := res.Total(fault.ClassAssignment)
		if d.Runs > 0 {
			b.ReportMetric(float64(d.Activated)/float64(d.Runs), "p1")
		}
	}
}

// BenchmarkSection5 regenerates the §5 analysis: build the emulation of
// every real fault and verify behavioural equivalence for the emulable
// ones. Reported metric: equivalence fraction.
func BenchmarkSection5(b *testing.B) {
	cases := scaledCases(1000)
	for i := 0; i < b.N; i++ {
		equivalent, total := 0, 0
		for _, name := range []string{"C.team1", "C.team4", "JB.team6"} {
			p, _ := programs.ByName(name)
			em, err := campaign.BuildEmulation(p)
			if err != nil {
				b.Fatal(err)
			}
			ws, err := workload.Generate(p.Kind, cases, 99)
			if err != nil {
				b.Fatal(err)
			}
			mode := injector.ModeHardware
			if em.NeedsTraps {
				mode = injector.ModeTrap
			}
			rep, err := campaign.VerifyEmulation(p, em, campaign.StrategyFetchEveryExec, mode, ws)
			if err != nil {
				b.Fatal(err)
			}
			equivalent += rep.Equivalent
			total += rep.Cases
		}
		b.ReportMetric(float64(equivalent)/float64(total), "equivalence")
	}
}

// BenchmarkAblationTriggerMode compares the two trigger mechanisms on the
// same fault set: hardware breakpoint registers versus trap insertion (the
// intrusive alternative §5 discusses). The time difference is the
// mechanism's overhead.
func BenchmarkAblationTriggerMode(b *testing.B) {
	for _, mode := range []injector.Mode{injector.ModeHardware, injector.ModeTrap} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := campaignCfg([]fault.Class{fault.ClassChecking}, "JB.team11")
			cfg.Mode = mode
			for i := 0; i < b.N; i++ {
				res, err := campaign.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Total(fault.ClassChecking).Pct(campaign.Correct), "%correct")
			}
		})
	}
}

// BenchmarkAblationBreakpointBudget measures the §5 stack-shift fault: the
// hardware budget rejects it (arm failure) while trap mode pays the
// intrusive-trigger cost per run.
func BenchmarkAblationBreakpointBudget(b *testing.B) {
	p, _ := programs.ByName("JB.team6")
	em, err := campaign.BuildEmulation(p)
	if err != nil {
		b.Fatal(err)
	}
	cases, err := workload.Generate(p.Kind, scaledCases(1000), 99)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hardware-rejects", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := campaign.VerifyEmulation(p, em, campaign.StrategyFetchEveryExec, injector.ModeHardware, cases); err == nil {
				b.Fatal("hardware mode armed a 56-trigger fault")
			}
		}
	})
	b.Run("trap-runs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := campaign.VerifyEmulation(p, em, campaign.StrategyFetchEveryExec, injector.ModeTrap, cases)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(rep.Equivalent)/float64(rep.Cases), "equivalence")
		}
	})
}

// BenchmarkAblationMechanism compares the two corruption mechanisms of
// Figures 3/5 — persistent instruction-memory rewrite versus transient
// fetch-bus corruption — on the same real-fault emulation.
func BenchmarkAblationMechanism(b *testing.B) {
	p, _ := programs.ByName("C.team1")
	em, err := campaign.BuildEmulation(p)
	if err != nil {
		b.Fatal(err)
	}
	cases, err := workload.Generate(p.Kind, scaledCases(300), 99)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []campaign.Strategy{campaign.StrategyTextAtStart, campaign.StrategyFetchEveryExec} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := campaign.VerifyEmulation(p, em, s, injector.ModeHardware, cases)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Equivalent)/float64(rep.Cases), "equivalence")
			}
		})
	}
}

// BenchmarkAblationMetricGuided compares uniform versus complexity-guided
// location selection (§6.1): the reported metric is the share of chosen
// locations landing in the most complex function.
func BenchmarkAblationMetricGuided(b *testing.B) {
	p, _ := programs.ByName("C.team1")
	c, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	rep := metrics.Analyze(p.Name, c.AST)
	funcs := metrics.AssignFuncs(c)
	weights := metrics.LocationWeights(rep, funcs)
	hottest := "main"
	pick := func(guided bool, seed int64) int {
		var idx []int
		if guided {
			idx = metrics.ChooseWeighted(weights, 8, seed)
		} else {
			idx = locator.ChooseLocations(len(funcs), 8, seed)
		}
		n := 0
		for _, i := range idx {
			if funcs[i] == hottest {
				n++
			}
		}
		return n
	}
	for _, guided := range []bool{false, true} {
		name := "uniform"
		if guided {
			name = "guided"
		}
		b.Run(name, func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				hits += pick(guided, int64(i))
			}
			b.ReportMetric(float64(hits)/float64(b.N*8), "share-in-main")
		})
	}
}

// BenchmarkVMThroughput measures raw simulator speed on a clean Camelot
// run (instructions per second drive every experiment's wall-clock).
func BenchmarkVMThroughput(b *testing.B) {
	p, _ := programs.ByName("C.team1")
	c, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	cases, err := workload.Generate(p.Kind, 1, 7)
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campaign.RunClean(c, cases[0].Input, cases[0].Golden, vm.DefaultMaxCycles)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// benchVMThroughput drives the VM directly (Load once, Reset per run) so
// the number measures the execution engine alone, without the campaign
// pooling and classification around RunClean. With hooked set, every run
// also arms an IABR with a no-op hook at the §5 C.team1 trigger address,
// which sits in the program's hottest loop.
func benchVMThroughput(b *testing.B, interpOnly, hooked bool) {
	p, _ := programs.ByName("C.team1")
	c, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	var trigger uint32
	if hooked {
		em, err := campaign.BuildEmulation(p)
		if err != nil {
			b.Fatal(err)
		}
		trigger = em.Fault.TriggerAddrs()[0]
	}
	cases, err := workload.Generate(p.Kind, 1, 7)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(vm.Config{})
	if err := m.Load(c.Prog.Image); err != nil {
		b.Fatal(err)
	}
	m.SetInterpOnly(interpOnly)
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Reset(); err != nil {
			b.Fatal(err)
		}
		m.SetMaxCycles(vm.DefaultMaxCycles)
		m.SetInput(cases[0].Input.Ints)
		m.SetByteInput(cases[0].Input.Bytes)
		if hooked {
			m.SetIABRHook(func(*vm.Machine, uint32) {})
			if err := m.SetIABR(0, trigger); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		cycles += m.Cycles()
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkVMThroughputCompiled is the block-compiled engine (the default
// everywhere); BenchmarkVMThroughputInterp is the same run under
// -interp-only. Their ratio is the speed-up of block compilation on
// identical work. BenchmarkVMThroughputBreakpoint is the compiled run with a
// hooked breakpoint at the §5 trigger: the block engine cuts its blocks
// there and steps only the trigger instruction, so it must stay well ahead
// of the interpreter.
func BenchmarkVMThroughputCompiled(b *testing.B) { benchVMThroughput(b, false, false) }

func BenchmarkVMThroughputInterp(b *testing.B) { benchVMThroughput(b, true, false) }

func BenchmarkVMThroughputBreakpoint(b *testing.B) { benchVMThroughput(b, false, true) }

// BenchmarkBlockCompile measures the one-time cost of decoding a program's
// text into basic blocks and superinstructions — the price paid per Load
// (and per full rebuild after a text-modification overflow).
func BenchmarkBlockCompile(b *testing.B) {
	p, _ := programs.ByName("C.team1")
	c, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(vm.Config{})
	if err := m.Load(c.Prog.Image); err != nil {
		b.Fatal(err)
	}
	words := len(c.Prog.Image.Text)
	var blocks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer() // Load resets the block cache; only time compilation
		if err := m.Load(c.Prog.Image); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		blocks = m.CompileAllBlocks()
	}
	if blocks == 0 {
		b.Fatal("CompileAllBlocks compiled nothing")
	}
	b.ReportMetric(float64(blocks), "blocks")
	b.ReportMetric(float64(words)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mwords/s")
}

// BenchmarkCompile measures the mini-C compiler on the largest program.
func BenchmarkCompile(b *testing.B) {
	p, _ := programs.ByName("C.team5")
	for i := 0; i < b.N; i++ {
		if _, err := cc.Compile(p.Source); err != nil {
			b.Fatal(err)
		}
	}
}
