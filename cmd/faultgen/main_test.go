package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

func TestRunSummary(t *testing.T) {
	if err := run([]string{"JB.team11"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPlans(t *testing.T) {
	for _, class := range []string{"assign", "check", "hardware"} {
		if err := run([]string{"-class", class, "-n", "2", "JB.team11"}); err != nil {
			t.Fatalf("%s: %v", class, err)
		}
	}
}

func TestRunJSON(t *testing.T) {
	if err := run([]string{"-class", "assign", "-n", "1", "-json", "JB.team11"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMetrics(t *testing.T) {
	if err := run([]string{"-metrics", "C.team1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVersion(t *testing.T) {
	if err := run([]string{"-version"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunReport: planning with -report records the plan counter per program.
func TestRunReport(t *testing.T) {
	repPath := filepath.Join(t.TempDir(), "report.json")
	if err := run([]string{"-class", "assign", "-n", "1", "-report", repPath, "JB.team11", "C.team1"}); err != nil {
		t.Fatal(err)
	}
	rep, err := telemetry.ReadReport(repPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "faultgen" || rep.Units.Total != 2 {
		t.Errorf("report = tool %q units %+v", rep.Tool, rep.Units)
	}
	if rep.Counters["faultgen_plans_total"] != 2 {
		t.Errorf("faultgen_plans_total = %d, want 2", rep.Counters["faultgen_plans_total"])
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing program accepted")
	}
	if err := run([]string{"nope"}); err == nil {
		t.Error("unknown program accepted")
	}
	if err := run([]string{"-class", "zap", "JB.team11"}); err == nil {
		t.Error("unknown class accepted")
	}
}

// TestMain serves -worker-mode so -isolation proc can re-execute the test
// binary as its worker subprocess, exactly as it re-executes faultgen.
// With FAULTGEN_TEST_KILL_UNIT set, the worker SIGKILLs itself whenever
// it is handed that unit.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker-mode" {
		if u, err := strconv.Atoi(os.Getenv("FAULTGEN_TEST_KILL_UNIT")); err == nil {
			planFactory = killOn(planFactory, u)
		}
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "faultgen:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runStdout runs the CLI with os.Stdout redirected to a file and returns
// what it printed.
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
	return string(out), runErr
}

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

// TestBackendsAgree: the rendered plans are byte-identical whether the
// programs are planned in-process, on a pool of worker subprocesses, or
// sharded over two fabric executors.
func TestBackendsAgree(t *testing.T) {
	args := []string{"-class", "check", "-n", "3", "C.team1", "JB.team6"}
	want, err := runStdout(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want, "C.team1") || !strings.Contains(want, "JB.team6") {
		t.Fatalf("in-process output lacks a program:\n%s", want)
	}
	for _, tc := range []struct {
		name string
		run  func() (string, error)
	}{
		{"proc", func() (string, error) {
			return runStdout(t, append([]string{"-isolation", "proc", "-workers", "2"}, args...)...)
		}},
		{"fabric", func() (string, error) { return runFabric(t, args) }},
	} {
		got, err := tc.run()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != want {
			t.Errorf("%s output differs from in-process:\n got: %q\nwant: %q", tc.name, got, want)
		}
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

// TestLostProgram: a program whose planning kills every worker it is
// delivered to fails the run with an error naming it — on a local worker
// pool, and on executors running their batches on worker pools.
func TestLostProgram(t *testing.T) {
	t.Setenv("FAULTGEN_TEST_KILL_UNIT", "1")
	args := []string{"-workers", "1", "-class", "check", "-n", "3", "C.team1", "JB.team6"}
	for _, tc := range []struct {
		name string
		run  func() (string, error)
	}{
		{"proc", func() (string, error) { return runStdout(t, append([]string{"-isolation", "proc"}, args...)...) }},
		{"fabric", func() (string, error) { return runFabric(t, args, "-isolation", "proc") }},
	} {
		out, err := tc.run()
		if err == nil || !strings.Contains(err.Error(), "JB.team6") || strings.Contains(err.Error(), "C.team1") {
			t.Errorf("%s: err = %v, want one naming JB.team6 alone", tc.name, err)
		}
		if out != "" {
			t.Errorf("%s: printed a partial plan list:\n%s", tc.name, out)
		}
	}
}

// TestExecutorIsolationProc: executors started with -isolation proc plan on
// worker subprocesses — the federated spawn counter on the coordinator's
// report shows it — and the rendered plans are unchanged.
func TestExecutorIsolationProc(t *testing.T) {
	args := []string{"-class", "check", "-n", "3", "C.team1", "JB.team6"}
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
