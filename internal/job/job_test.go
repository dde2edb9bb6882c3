package job

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// The tests re-execute the test binary as a worker subprocess serving
// testFactory; a unit equal to the spec's Kill field SIGKILLs its worker on
// every delivery, which is how a unit ends up quarantined.
func TestMain(m *testing.M) {
	if os.Getenv("REPRO_JOB_WORKER") == "1" {
		if err := worker.Serve(os.Stdin, os.Stdout, testFactory); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const testKind = "jobtest/v1"

type testSpec struct {
	Units int `json:"units"`
	Kill  int `json:"kill"`
}

var testFactory = Factory(testKind, func(s testSpec) (worker.Runner, error) {
	return testRunner{s}, nil
})

type testRunner struct{ s testSpec }

func (r testRunner) Units() int { return r.s.Units }

func (r testRunner) Run(unit int) (journal.Outcome, []byte, error) {
	if unit == r.s.Kill && os.Getenv("REPRO_JOB_WORKER") == "1" {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	return journal.Outcome{Mode: 1}, []byte(fmt.Sprintf("unit %d", unit)), nil
}

func testProc() *ProcOptions {
	return &ProcOptions{
		Spawn: func() *exec.Cmd {
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "REPRO_JOB_WORKER=1")
			cmd.Stderr = os.Stderr
			return cmd
		},
		HeartbeatInterval: 50 * time.Millisecond,
		BackoffBase:       10 * time.Millisecond,
		BackoffMax:        100 * time.Millisecond,
	}
}

// collect returns a Job over spec whose results land in the returned map.
func collect(t *testing.T, s testSpec) (Job, map[int]worker.Result) {
	t.Helper()
	spec, err := NewSpec(testKind, s)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int]worker.Result)
	return Job{
		Spec:       spec,
		Units:      s.Units,
		Quarantine: journal.Outcome{Mode: 5},
		OnResult: func(r worker.Result) error {
			if _, dup := got[r.Index]; dup {
				return fmt.Errorf("unit %d delivered twice", r.Index)
			}
			got[r.Index] = r
			return nil
		},
	}, got
}

// TestProcQuarantine: a unit that kills every worker it is delivered to
// comes back once, quarantined with the job's quarantine outcome and no
// payload; every other unit carries its real verdict.
func TestProcQuarantine(t *testing.T) {
	s := testSpec{Units: 5, Kill: 2}
	j, got := collect(t, s)
	reg := telemetry.NewRegistry()
	b := &Backend{Workers: 2, Proc: testProc(), Registry: reg}
	if _, err := b.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if len(got) != s.Units {
		t.Fatalf("%d results, want %d", len(got), s.Units)
	}
	for u, r := range got {
		if u == s.Kill {
			if !r.Quarantined || r.Outcome.Mode != 5 || r.Payload != nil {
				t.Errorf("killer unit %d = %+v, want quarantined with mode 5 and no payload", u, r)
			}
			continue
		}
		if r.Quarantined || r.Outcome.Mode != 1 || string(r.Payload) != fmt.Sprintf("unit %d", u) {
			t.Errorf("unit %d = %+v, want its real verdict", u, r)
		}
	}
	c := reg.Counters()
	if c["worker_spawns_total"] < 2 || c["worker_restarts_total"] != 2 {
		t.Errorf("worker_spawns_total = %d, worker_restarts_total = %d; want at least 2 spawns and exactly 2 deaths",
			c["worker_spawns_total"], c["worker_restarts_total"])
	}
}

// TestJoinProcQuarantine: an executor joined with IsolationProc runs its
// batches on a local worker pool, which quarantines the killer unit with
// Local.Quarantine; the coordinator merges that as an ordinary verdict
// without a payload.
func TestJoinProcQuarantine(t *testing.T) {
	s := testSpec{Units: 6, Kill: 4}
	j, got := collect(t, s)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	var joinErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		joinErr = Join(ctx, addr, JoinOptions{
			Workers:   2,
			Isolation: IsolationProc,
			Proc:      testProc(),
		}, Local{Tool: "jobtest", Quarantine: journal.Outcome{Mode: 6}, Batch: InProc(testFactory)})
	}()
	b := &Backend{Fabric: &FabricOptions{Listen: addr, HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: time.Second}}
	hosts, err := b.Run(ctx, j)
	wg.Wait()
	if err != nil || joinErr != nil {
		t.Fatalf("coordinator: %v, executor: %v", err, joinErr)
	}
	if len(hosts) != 1 {
		t.Errorf("%d hosts in the fleet summary, want 1", len(hosts))
	}
	for u := 0; u < s.Units; u++ {
		r := got[u]
		want := journal.Outcome{Mode: 1}
		if u == s.Kill {
			want = journal.Outcome{Mode: 6}
		}
		if r.Quarantined || r.Outcome != want || (u == s.Kill) != (r.Payload == nil) {
			t.Errorf("unit %d = %+v, want outcome %+v", u, r, want)
		}
	}
}

func TestFactoryChecksSpec(t *testing.T) {
	spec, err := NewSpec(testKind, testSpec{Units: 3, Kill: -1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := testFactory(spec)
	if err != nil || r.Units() != 3 {
		t.Fatalf("factory on a good spec: %v", err)
	}
	wrongKind := spec
	wrongKind.Kind = "other/v1"
	if _, err := testFactory(wrongKind); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("wrong kind: err = %v", err)
	}
	tampered := spec
	tampered.Payload = []byte(`{"units":4,"kill":-1}`)
	if _, err := testFactory(tampered); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("tampered payload: err = %v", err)
	}
}

// TestBackendBindError: a coordinator that cannot bind fails the run
// before any unit is scheduled.
func TestBackendBindError(t *testing.T) {
	j, _ := collect(t, testSpec{Units: 1, Kill: -1})
	b := &Backend{Fabric: &FabricOptions{Listen: "256.0.0.1:1"}}
	if _, err := b.Run(context.Background(), j); err == nil || errors.Is(err, context.Canceled) {
		t.Errorf("bind to a bad address: err = %v", err)
	}
}
