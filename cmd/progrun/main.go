// Command progrun compiles and runs one target program of the suite on the
// virtual machine, with inputs from the command line. It is the debugging
// front door for the toolchain.
//
// Usage:
//
//	progrun [-faulty] [-disasm] [-itrace N] <program> [int...]
//	progrun -string "seed len text" JB.team6     # JamesB byte input
//	progrun -programs                            # list suite programs
//	progrun -selftest 500 -workers 8 C.team1     # batch-run against the oracle
//	progrun -selftest 2000 -fabric-listen :9371 C.team1  # shard the batch over executors
//	progrun -fabric-join host:9371               # join a coordinator as an executor
//
// -itrace prints the last N executed instructions; -trace <file> (shared
// with the other CLIs) streams structured telemetry events as JSON lines.
//
// Camelot example:
//
//	progrun C.team1 2 3 3 0 0 7 7    # 2 knights at (0,0) and (7,7), king (3,3)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/asm"
	"repro/internal/campaign"
	"repro/internal/cc"
	"repro/internal/cliutil"
	"repro/internal/job"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/programs"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/worker"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "progrun:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("progrun", flag.ContinueOnError)
	faulty := fs.Bool("faulty", false, "run the program's original (buggy) version")
	disasm := fs.Bool("disasm", false, "print the disassembly instead of running")
	pretty := fs.Bool("pretty", false, "print the normalised (pretty-printed) source instead of running")
	listP := fs.Bool("programs", false, "list the program suite and exit")
	strIn := fs.String("string", "", "byte input for the character stream (JamesB programs)")
	itrace := fs.Int("itrace", 0, "record and print the last N executed instructions")
	interpOnly := fs.Bool("interp-only", false, "disable the block-compiled VM engine (per-instruction interpreter; results are identical)")
	selftest := fs.Int("selftest", 0, "run N generated inputs against the oracle instead of one run")
	seed := fs.Int64("seed", 99, "random seed for -selftest input generation")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel workers for -selftest (1 = serial)")
	isolation := fs.String("isolation", "inproc", "-selftest execution: inproc (goroutines) or proc (supervised worker subprocesses)")
	workerMode := fs.Bool("worker-mode", false, "internal: serve selftest cases over stdin/stdout (spawned by -isolation=proc)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	version := fs.Bool("version", false, "print the binary version and exit")
	tf := cliutil.AddTelemetryFlags(fs)
	hb := cliutil.AddHeartbeatFlags(fs)
	fab := cliutil.AddFabricFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workerMode {
		return worker.Serve(os.Stdin, os.Stdout, selftestFactory)
	}
	if *version {
		cliutil.PrintVersion("progrun")
		return nil
	}
	procIsolation, err := cliutil.ParseIsolation(*isolation)
	if err != nil {
		return err
	}
	if err := cliutil.ValidateWorkers(*workers); err != nil {
		return err
	}
	if err := hb.Validate(); err != nil {
		return err
	}
	if err := fab.Validate(); err != nil {
		return err
	}
	if fab.Listen != "" && *selftest <= 0 {
		return fmt.Errorf("-fabric-listen coordinates a -selftest batch; give -selftest N too")
	}
	stopProf, err := cliutil.StartProfiles("progrun", *cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProf()
	if *listP {
		for _, p := range programs.All() {
			fault := "-"
			if p.Fault != nil {
				fault = p.Fault.ODCType.String()
			}
			fmt.Printf("%-10s %-8s %4d lines  fault: %-12s %s\n", p.Name, p.Kind, p.LineCount(), fault, p.Features)
		}
		return nil
	}
	if fab.Join != "" {
		// Executor mode: the program, case count and seed come from the
		// coordinator's spec; only local execution knobs apply here.
		// Telemetry is set up before joining — historically this branch
		// returned before tf.Setup ran, so -debug-addr on a progrun
		// executor silently did nothing.
		if err := cliutil.ValidateFabricTelemetry(fab, tf); err != nil {
			return err
		}
		tel, telCleanup, err := tf.Setup("progrun")
		if err != nil {
			return err
		}
		defer telCleanup()
		opts, err := fab.JoinOptions("progrun", *workers, procIsolation, hb, tel)
		if err != nil {
			return err
		}
		ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stopSignals()
		return job.Join(ctx, fab.Join, opts, job.Local{
			Tool:       "progrun",
			Quarantine: journal.Outcome{Mode: uint8(campaign.HostFault)},
			Batch:      job.InProc(selftestFactory),
		})
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("no program given (try -programs)")
	}
	p, ok := programs.ByName(rest[0])
	if !ok {
		return fmt.Errorf("unknown program %q (try -programs)", rest[0])
	}
	c, err := p.Compile()
	if *faulty {
		c, err = p.CompileFaulty()
	}
	if err != nil {
		return err
	}
	if *disasm {
		fmt.Print(asm.Disassemble(c.Prog))
		return nil
	}
	if *pretty {
		fmt.Print(cc.Print(c.AST))
		return nil
	}
	tel, telCleanup, err := tf.Setup("progrun")
	if err != nil {
		return err
	}
	defer telCleanup()
	if *selftest > 0 {
		backend, err := cliutil.Backend("progrun", *workers, procIsolation, hb, fab, tel)
		if err != nil {
			return err
		}
		return runSelftest(p, c, *selftest, *seed, *workers, *faulty, backend, tel, tf)
	}

	var ints []int32
	for _, a := range rest[1:] {
		v, err := strconv.ParseInt(a, 10, 32)
		if err != nil {
			return fmt.Errorf("bad integer input %q", a)
		}
		ints = append(ints, int32(v))
	}
	m := vm.New(vm.Config{})
	if err := m.Load(c.Prog.Image); err != nil {
		return err
	}
	m.SetInterpOnly(*interpOnly)
	m.SetInput(ints)
	m.SetByteInput([]byte(*strIn))
	if *itrace > 0 {
		m.EnableTrace(*itrace)
	}
	runStart := time.Now()
	state, err := m.Run()
	if err != nil {
		return err
	}
	tel.Tracer().Emit(telemetry.Event{
		Kind: telemetry.KindExecuted, Program: p.Name,
		DurUS: time.Since(runStart).Microseconds(),
	})
	os.Stdout.Write(m.Output())
	if !strings.HasSuffix(string(m.Output()), "\n") {
		fmt.Println()
	}
	switch state {
	case vm.StateHalted:
		fmt.Fprintf(os.Stderr, "[halted, exit %d, %d cycles]\n", m.ExitStatus(), m.Cycles())
	case vm.StateCrashed:
		exc, at := m.Exception()
		fmt.Fprintf(os.Stderr, "[crashed: %s at %#x after %d cycles]\n", exc, at, m.Cycles())
	case vm.StateHung:
		fmt.Fprintf(os.Stderr, "[hung after %d cycles]\n", m.Cycles())
	}
	if *itrace > 0 {
		fmt.Fprintln(os.Stderr, "trace (oldest first):")
		for _, e := range m.Trace() {
			fmt.Fprintf(os.Stderr, "  %s\n", asm.FormatWord(c.Prog, e.PC, e.Word))
		}
	}
	rep := telemetry.NewReport("progrun")
	rep.Params["program"] = p.Name
	rep.Units.Total = 1
	rep.Units.Executed = 1
	return tf.WriteReport(rep, tel)
}

// caseResult is one selftest case's outcome, in the shape both execution
// paths produce: the in-process batch directly, the worker path as the
// verdict payload on the wire.
type caseResult struct {
	Mode   campaign.FailureMode `json:"mode"`
	State  string               `json:"state"`
	Output string               `json:"output"`
}

// runSelftest batch-runs the compiled program over n generated inputs and
// checks every output against the oracle — the fast way to confirm a
// (possibly faulty) build still behaves before pointing a campaign at it.
// With a backend the cases run in supervised worker subprocesses or on an
// executor fleet instead of goroutines; the verdicts are identical.
func runSelftest(p *programs.Program, c *cc.Compiled, n int, seed int64, workers int, faulty bool, backend *job.Backend, tel *telemetry.Telemetry, tf *cliutil.TelemetryFlags) error {
	workers = parallel.DefaultWorkers(workers)
	cases, err := workload.Generate(p.Kind, n, seed)
	if err != nil {
		return err
	}
	// SIGINT/SIGTERM drains in-flight runs instead of killing them mid-case.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()
	start := time.Now()
	var results []caseResult
	if backend != nil {
		results, err = selftestRemote(ctx, backend, selftestSpec{Program: p.Name, Faulty: faulty, N: n, Seed: seed})
		if err != nil {
			return err
		}
	} else {
		rr, err := campaign.RunCleanBatchCtx(ctx, c, cases, vm.DefaultMaxCycles, workers)
		if err != nil {
			return err
		}
		results = make([]caseResult, len(rr))
		for i, r := range rr {
			results[i] = caseResult{Mode: r.Mode, State: r.State.String(), Output: string(r.Output)}
		}
	}
	elapsed := time.Since(start)
	counts := make(map[campaign.FailureMode]int)
	firstWrong := -1
	for i, r := range results {
		counts[r.Mode]++
		if r.Mode != campaign.Correct && firstWrong < 0 {
			firstWrong = i
		}
	}
	if reg := tel.Registry(); reg != nil {
		reg.Counter("selftest_runs_total").Add(uint64(len(results)))
		for m, cnt := range counts {
			reg.Counter(fmt.Sprintf(`selftest_verdicts_total{mode=%q}`, m)).Add(uint64(cnt))
		}
	}
	if tr := tel.Tracer(); tr != nil {
		for i, r := range results {
			tr.Emit(telemetry.Event{Kind: telemetry.KindVerdict, Unit: i, Program: p.Name, Mode: r.Mode.String()})
		}
	}
	tally := campaign.ModeTally(counts)
	fmt.Printf("%s: %d runs in %s (%d workers): %s\n",
		p.Name, len(results), elapsed.Round(time.Millisecond), workers, telemetry.FormatTally(tally))
	rep := telemetry.NewReport("progrun")
	rep.Params["program"] = p.Name
	rep.Params["selftest"] = strconv.Itoa(n)
	rep.Params["seed"] = strconv.FormatInt(seed, 10)
	rep.Params["faulty"] = strconv.FormatBool(faulty)
	rep.Units.Total = len(results)
	rep.Units.Executed = len(results)
	rep.Tallies = tally
	if werr := tf.WriteReport(rep, tel); werr != nil {
		return werr
	}
	if firstWrong >= 0 {
		r := results[firstWrong]
		fmt.Printf("first deviation at case %d (mode %s, state %s):\n  input: %v %q\n  got:    %q\n  golden: %q\n",
			firstWrong, r.Mode, r.State,
			cases[firstWrong].Input.Ints, cases[firstWrong].Input.Bytes,
			r.Output, cases[firstWrong].Golden)
		return fmt.Errorf("%d of %d runs deviated from the oracle", len(results)-counts[campaign.Correct], len(results))
	}
	return nil
}

// specKindSelftest is the worker.Spec kind progrun serves in -worker-mode.
const specKindSelftest = "selftest/v1"

// selftestSpec is the progrun worker spec payload: one unit per generated
// case, numbered in generation order.
type selftestSpec struct {
	Program string `json:"program"`
	Faulty  bool   `json:"faulty"`
	N       int    `json:"n"`
	Seed    int64  `json:"seed"`
}

// selftestFactory is the worker-side factory: recompile the program and
// regenerate the identical case set (workload generation is deterministic
// per kind, count and seed), then serve cases as units.
var selftestFactory = job.Factory(specKindSelftest, func(s selftestSpec) (worker.Runner, error) {
	p, ok := programs.ByName(s.Program)
	if !ok {
		return nil, fmt.Errorf("unknown program %q", s.Program)
	}
	var c *cc.Compiled
	var err error
	if s.Faulty {
		c, err = p.CompileFaulty()
	} else {
		c, err = p.Compile()
	}
	if err != nil {
		return nil, err
	}
	cases, err := workload.Generate(p.Kind, s.N, s.Seed)
	if err != nil {
		return nil, err
	}
	return &selftestRunner{c: c, cases: cases}, nil
})

type selftestRunner struct {
	c     *cc.Compiled
	cases []workload.Case
}

func (r *selftestRunner) Units() int { return len(r.cases) }

func (r *selftestRunner) Run(unit int) (journal.Outcome, []byte, error) {
	cs := &r.cases[unit]
	res, err := campaign.RunClean(r.c, cs.Input, cs.Golden, vm.DefaultMaxCycles)
	if err != nil {
		return journal.Outcome{}, nil, err
	}
	payload, err := json.Marshal(caseResult{Mode: res.Mode, State: res.State.String(), Output: string(res.Output)})
	if err != nil {
		return journal.Outcome{}, nil, err
	}
	return journal.Outcome{Mode: uint8(res.Mode)}, payload, nil
}

// selftestRemote runs the case set on a worker pool or an executor fleet
// and returns per-case results in case order. Workers and executors
// regenerate the identical case set from the spec, so only verdicts cross
// the wire. A case that keeps taking down its worker or host comes back as
// a HostFault deviation rather than aborting the batch.
func selftestRemote(ctx context.Context, b *job.Backend, s selftestSpec) ([]caseResult, error) {
	spec, err := job.NewSpec(specKindSelftest, s)
	if err != nil {
		return nil, err
	}
	results := make([]caseResult, s.N)
	_, err = b.Run(ctx, job.Job{
		Spec:       spec,
		Units:      s.N,
		Quarantine: journal.Outcome{Mode: uint8(campaign.HostFault)},
		OnResult: func(r worker.Result) error {
			// A local worker pool on an executor quarantines without a
			// payload; every real verdict carries its case result.
			if r.Quarantined || len(r.Payload) == 0 {
				results[r.Index] = caseResult{Mode: campaign.HostFault, State: "quarantined"}
				return nil
			}
			var cr caseResult
			if err := json.Unmarshal(r.Payload, &cr); err != nil {
				return fmt.Errorf("case %d verdict payload: %w", r.Index, err)
			}
			results[r.Index] = cr
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
