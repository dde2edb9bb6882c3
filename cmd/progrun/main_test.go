package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

func TestRunListPrograms(t *testing.T) {
	if err := run([]string{"-programs"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCamelot(t *testing.T) {
	if err := run([]string{"C.team1", "1", "0", "0", "7", "7"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFaultyAndTrace(t *testing.T) {
	if err := run([]string{"-faulty", "-itrace", "4", "JB.team7", "5", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDisasm(t *testing.T) {
	if err := run([]string{"-disasm", "JB.team11"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVersion(t *testing.T) {
	if err := run([]string{"-version"}); err != nil {
		t.Fatal(err)
	}
}

// TestSelftestReport: a selftest run writes a report whose tallies match the
// run count, and the JSONL trace holds one verdict event per case.
func TestSelftestReport(t *testing.T) {
	dir := t.TempDir()
	repPath := filepath.Join(dir, "report.json")
	trPath := filepath.Join(dir, "trace.jsonl")
	if err := run([]string{"-selftest", "5", "-report", repPath, "-trace", trPath, "C.team1"}); err != nil {
		t.Fatal(err)
	}
	rep, err := telemetry.ReadReport(repPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "progrun" || rep.Units.Total != 5 || rep.Tallies["correct"] != 5 {
		t.Errorf("report = tool %q units %+v tallies %+v", rep.Tool, rep.Units, rep.Tallies)
	}
	if rep.Counters["selftest_runs_total"] != 5 {
		t.Errorf("selftest_runs_total = %d, want 5", rep.Counters["selftest_runs_total"])
	}
	f, err := os.Open(trPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := 0
	for _, e := range events {
		if e.Kind == telemetry.KindVerdict {
			verdicts++
		}
	}
	if verdicts != 5 {
		t.Errorf("trace has %d verdict events, want 5", verdicts)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("no program accepted")
	}
	if err := run([]string{"nope"}); err == nil {
		t.Error("unknown program accepted")
	}
	if err := run([]string{"C.team1", "abc"}); err == nil {
		t.Error("bad integer accepted")
	}
	if err := run([]string{"-faulty", "SOR"}); err == nil {
		t.Error("faulty SOR accepted (has no fault)")
	}
}

// TestMain serves -worker-mode so -isolation proc can re-execute the test
// binary as its worker subprocess, exactly as it re-executes progrun.
// With PROGRUN_TEST_KILL_UNIT set, the worker SIGKILLs itself whenever it
// is handed that unit.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker-mode" {
		if u, err := strconv.Atoi(os.Getenv("PROGRUN_TEST_KILL_UNIT")); err == nil {
			selftestFactory = killOn(selftestFactory, u)
		}
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "progrun:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runStdout runs the CLI with os.Stdout redirected to a file and returns
// what it printed, with the batch's wall time (the one field that varies
// between runs) masked.
func runStdout(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return elapsedRE.ReplaceAllString(string(out), "runs in <elapsed> ("), runErr
}

var elapsedRE = regexp.MustCompile(`runs in \S+ \(`)

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// runFabric runs args as a -fabric-listen coordinator with two in-process
// -fabric-join executors started with the extra executor flags.
func runFabric(t *testing.T, args []string, execFlags ...string) (string, error) {
	t.Helper()
	addr := freeAddr(t)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(append([]string{"-fabric-join", addr, "-workers", "1"}, execFlags...))
		}()
	}
	out, err := runStdout(t, append([]string{"-fabric-listen", addr, "-fabric-hosts", "2"}, args...)...)
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			t.Errorf("executor %d: %v", i, e)
		}
	}
	return out, err
}

// TestBackendsAgree: a selftest batch prints the same report — tally and
// first deviation alike — whether its cases run in-process, on a pool of
// worker subprocesses, or sharded over two fabric executors.
func TestBackendsAgree(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "2", "-selftest", "40", "C.team1"},
		{"-workers", "2", "-selftest", "40", "-faulty", "C.team1"},
	} {
		t.Run(strings.Join(args[2:], " "), func(t *testing.T) {
			want, wantErr := runStdout(t, args...)
			if !strings.Contains(want, "C.team1: 40 runs") {
				t.Fatalf("in-process output lacks the tally:\n%s", want)
			}
			for _, tc := range []struct {
				name string
				run  func() (string, error)
			}{
				{"proc", func() (string, error) { return runStdout(t, append([]string{"-isolation", "proc"}, args...)...) }},
				{"fabric", func() (string, error) { return runFabric(t, args) }},
			} {
				got, err := tc.run()
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Errorf("%s: error %v, in-process %v", tc.name, err, wantErr)
				}
				if got != want {
					t.Errorf("%s output differs from in-process:\n got: %q\nwant: %q", tc.name, got, want)
				}
			}
		})
	}
}

// killOn wraps a worker factory so its runners SIGKILL their own process
// on the given unit.
func killOn(f worker.Factory, unit int) worker.Factory {
	return func(spec worker.Spec) (worker.Runner, error) {
		r, err := f(spec)
		return killer{r, unit}, err
	}
}

type killer struct {
	worker.Runner
	unit int
}

func (k killer) Run(unit int) (journal.Outcome, []byte, error) {
	if unit == k.unit {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	return k.Runner.Run(unit)
}

// TestQuarantinedCase: a case that kills every worker it is delivered to
// is reported as a quarantined HostFault deviation — on a local worker
// pool, and on executors running their batches on worker pools.
func TestQuarantinedCase(t *testing.T) {
	t.Setenv("PROGRUN_TEST_KILL_UNIT", "3")
	args := []string{"-workers", "1", "-selftest", "5", "C.team1"}
	for _, tc := range []struct {
		name string
		run  func() (string, error)
	}{
		{"proc", func() (string, error) { return runStdout(t, append([]string{"-isolation", "proc"}, args...)...) }},
		{"fabric", func() (string, error) { return runFabric(t, args, "-isolation", "proc") }},
	} {
		out, err := tc.run()
		if err == nil || !strings.Contains(err.Error(), "1 of 5 runs deviated") {
			t.Errorf("%s: err = %v, want one deviation", tc.name, err)
		}
		if !strings.Contains(out, "first deviation at case 3 (mode hostfault, state quarantined)") {
			t.Errorf("%s: output lacks the quarantined case:\n%s", tc.name, out)
		}
	}
}

// TestExecutorIsolationProc: executors started with -isolation proc run
// their batches on worker subprocesses — the federated spawn counter on the
// coordinator's report shows it — and the output is unchanged.
func TestExecutorIsolationProc(t *testing.T) {
	args := []string{"-workers", "2", "-selftest", "40", "C.team1"}
	want, err := runStdout(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	repPath := filepath.Join(t.TempDir(), "report.json")
	got, err := runFabric(t, append([]string{"-report", repPath}, args...), "-isolation", "proc")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("output differs from in-process:\n got: %q\nwant: %q", got, want)
	}
	rep, err := telemetry.ReadReport(repPath)
	if err != nil {
		t.Fatal(err)
	}
	spawns := uint64(0)
	for name, v := range rep.Counters {
		if strings.HasPrefix(name, "worker_spawns_total{host=") {
			spawns += v
		}
	}
	if spawns == 0 {
		t.Errorf("no executor spawned a worker subprocess; report counters: %v", rep.Counters)
	}
}
