package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/cc"
	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/injector"
	"repro/internal/journal"
	"repro/internal/locator"
	"repro/internal/programs"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// childSpec tells a child process which repetition to run.
type childSpec struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Size      int    `json:"size"`
	Traced    bool   `json:"traced"`
	Reference string `json:"reference,omitempty"` // expected output digest; "" = none recorded
	Dir       string `json:"dir"`                 // where the repetition may write (its journal)
}

func childMain(specJSON string, stdout io.Writer) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: bad child spec:", err)
		return 1
	}
	s, err := repetition(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", spec.Workload, err)
		return 1
	}
	out, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// setupLayers are the set-up spans; their sum reconciles with setup_s.
var setupLayers = []string{"cc.compile", "workload.generate", "campaign.calibrate", "locator.plan", "campaign.emulation"}

// bench is the state of one repetition.
type bench struct {
	spec    childSpec
	workers int

	// The three instants that define the end-to-end metrics: start of
	// set-up, end of set-up (first unit may start), checked result.
	t0, t1, t2       time.Time
	cpu0, cpu1, cpu2 float64
	alloc1, alloc2   uint64
	rss              float64

	spans map[string]time.Duration // per-layer time spent in calls the benchmark makes
	layer map[string]float64       // per-layer metrics of a traced repetition

	// busy is the summed span of every unit, run on busyWorkers workers:
	// what the execution wall must account for.
	busy        time.Duration
	busyWorkers int

	// Traced repetitions only.
	tel      *telemetry.Telemetry
	events   eventLog
	jfile    *timedFile
	execRegs []*telemetry.Registry // fleet executors' registries
}

// outcome is a workload body's verdict on its own output.
type outcome struct {
	units   int
	failed  int
	problem string // why the output check failed; "" when it passed
	digest  string
}

func (o *outcome) fail(format string, args ...any) {
	if o.problem == "" {
		o.problem = fmt.Sprintf(format, args...)
	}
}

func repetition(spec childSpec) (*sample, error) {
	wl, ok := workloads[spec.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		spec:    spec,
		workers: runtime.NumCPU(),
		spans:   make(map[string]time.Duration),
		layer:   make(map[string]float64),
	}
	if spec.Traced {
		tr := telemetry.NewTracer(telemetry.DefaultTraceCap)
		tr.Mirror(b.events.add)
		b.tel = &telemetry.Telemetry{Reg: telemetry.NewRegistry(), Trace: tr}
	}
	b.t0, b.cpu0 = time.Now(), cpuSeconds()
	o, err := wl.run(b)
	if err != nil {
		return nil, err
	}
	if o.problem != "" {
		o.failed = o.units // a wrong output condemns every verdict of the run
	}
	wall, setup := b.t2.Sub(b.t0), b.t1.Sub(b.t0)
	execWall := wall - setup
	m := map[string]float64{
		"wall_s":      wall.Seconds(),
		"setup_s":     setup.Seconds(),
		"units_per_s": float64(o.units) / execWall.Seconds(),
		"cpu_s":       b.cpu2 - b.cpu0,
		"peak_rss_mb": b.rss,
	}
	if spec.Traced {
		var setupSum time.Duration
		for _, l := range setupLayers {
			setupSum += b.spans[l]
			m[l+"_s"] = b.spans[l].Seconds()
		}
		m["trace.setup_residual_ms"] = float64(setup-setupSum) / 1e6
		m["parallel.cpu_util"] = (b.cpu2 - b.cpu1) / (execWall.Seconds() * float64(b.workers))
		m["campaign.alloc_mb"] = float64(b.alloc2-b.alloc1) / (1 << 20)
		if b.busyWorkers > 0 {
			m["trace.exec_residual_ratio"] = 1 - b.busy.Seconds()/(execWall.Seconds()*float64(b.busyWorkers))
		}
		for k, v := range b.layer {
			m[k] = v
		}
	}
	if o.digest != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d size %d output digest %s\n", spec.Workload, spec.Seed, spec.Size, o.digest)
	}
	return &sample{Correct: o.problem == "" && o.failed == 0, Attempted: o.units, Failed: o.failed, Problem: o.problem, Metrics: m}, nil
}

// span times one call into a layer.
func (b *bench) span(layer string, fn func() error) error {
	t := time.Now()
	err := fn()
	b.spans[layer] += time.Since(t)
	return err
}

// setupDone marks the end of set-up: the next call is the first that
// executes units.
func (b *bench) setupDone() {
	b.t1, b.cpu1 = time.Now(), cpuSeconds()
	if b.spec.Traced {
		b.alloc1 = totalAlloc()
	}
}

// checked marks the checked result: the end of every timed window.
func (b *bench) checked() {
	b.t2, b.cpu2 = time.Now(), cpuSeconds()
	b.rss = maxRSSMB(syscall.RUSAGE_SELF)
	if b.spec.Traced {
		b.alloc2 = totalAlloc()
	}
}

// ---- table4 and fleet: the §6 class campaign ----

// target is one Table 4 program with its set-up products.
type target struct {
	p       *programs.Program
	c       *cc.Compiled
	cases   []workload.Case
	budgets []uint64
	faults  []fault.Fault // assignment faults, then checking faults: the campaign's unit order
	offset  int           // index of the program's first unit
}

var campaignClasses = []fault.Class{fault.ClassAssignment, fault.ClassChecking}

func (b *bench) table4() (*outcome, error) { return b.classCampaign(false) }

func (b *bench) fleet() (*outcome, error) { return b.classCampaign(true) }

func (b *bench) classCampaign(fleet bool) (*outcome, error) {
	targets, units, err := b.planCampaign()
	if err != nil {
		return nil, err
	}
	b.setupDone()

	path := filepath.Join(b.spec.Dir, "campaign.wal")
	j, err := journal.CreateWrapped(path, b.journalWrap())
	if err != nil {
		return nil, err
	}
	names := make([]string, len(targets))
	for i, t := range targets {
		names[i] = t.p.Name
	}
	cfg := campaign.Config{
		Programs:      names,
		Classes:       campaignClasses,
		CasesPerFault: b.spec.Size,
		Seed:          b.spec.Seed,
		Workers:       b.workers,
		Journal:       j,
		Telemetry:     b.tel,
	}
	var res *campaign.Result
	if fleet {
		res, err = b.runFleet(cfg)
	} else {
		res, err = campaign.Run(cfg)
	}
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	o, outcomes := checkCampaign(path, res, units, b.spec.Reference)
	b.checked()

	if o.problem == "" {
		b.audit(o, targets, outcomes)
	}
	if b.spec.Traced {
		b.campaignLayers(res, targets, units, fleet)
		pts := make([]probeTarget, len(targets))
		for i, t := range targets {
			pts[i] = probeTarget{c: t.c, cases: t.cases, mode: injector.ModeHardware}
			for k := range t.faults {
				pts[i].faults = append(pts[i].faults, &t.faults[k])
			}
		}
		if err := b.probes(pts); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// planCampaign makes, layer by layer, the set-up calls campaign.Run's
// planning makes, so that Run then finds every cache warm.
func (b *bench) planCampaign() ([]*target, int, error) {
	var targets []*target
	units := 0
	seed := b.spec.Seed
	for _, p := range programs.Table4Programs() {
		t := &target{p: p, offset: units}
		if err := b.span("cc.compile", func() (err error) { t.c, err = p.Compile(); return }); err != nil {
			return nil, 0, err
		}
		if err := b.span("workload.generate", func() (err error) {
			t.cases, err = workload.Cached(p.Kind, b.spec.Size, seed)
			return
		}); err != nil {
			return nil, 0, err
		}
		if err := b.span("campaign.calibrate", func() (err error) {
			t.budgets, err = campaign.CalibrateCyclesWorkers(t.c, t.cases, b.workers)
			return
		}); err != nil {
			return nil, 0, err
		}
		if err := b.span("locator.plan", func() error {
			pa, err := locator.PlanAssignment(t.c, p.Name, campaign.PaperChosenAssign[p.Name], seed)
			if err != nil {
				return err
			}
			pc, err := locator.PlanChecking(t.c, p.Name, campaign.PaperChosenCheck[p.Name], seed)
			if err != nil {
				return err
			}
			t.faults = append(append([]fault.Fault(nil), pa.Faults...), pc.Faults...)
			return nil
		}); err != nil {
			return nil, 0, err
		}
		units += len(t.faults) * len(t.cases)
		targets = append(targets, t)
	}
	return targets, units, nil
}

// runFleet runs the campaign as the coordinator of a loopback fabric of two
// executors, each serving its units through one worker subprocess (this
// binary in the worker role).
func (b *bench) runFleet(cfg campaign.Config) (*campaign.Result, error) {
	const executors = 2
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for h := 0; h < executors; h++ {
		var reg *telemetry.Registry
		if b.spec.Traced {
			reg = telemetry.NewRegistry()
			b.execRegs = append(b.execRegs, reg)
		}
		name := fmt.Sprintf("exec-%d", h)
		opts := campaign.JoinOptions{
			Name:      name,
			Workers:   1,
			Isolation: campaign.IsolationProc,
			Proc:      &campaign.ProcOptions{Spawn: workerCommand},
			Registry:  reg,
			// A short dial window makes a join attempt before the
			// coordinator binds fail fast instead of backing off for up
			// to seconds, which would add a random delay to the run.
			DialTimeout: 20 * time.Millisecond,
			Log: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "perfbench: "+name+": "+format+"\n", args...)
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The coordinator binds only after planning; retry until it is
			// up or the campaign is over.
			for ctx.Err() == nil {
				if err := campaign.JoinFabric(ctx, addr, opts); err == nil {
					return
				}
				select {
				case <-ctx.Done():
				case <-time.After(10 * time.Millisecond):
				}
			}
		}()
	}
	cfg.Fabric = &campaign.FabricOptions{Listen: addr, MinHosts: executors}
	res, err := campaign.Run(cfg)
	cancel()
	wg.Wait()
	return res, err
}

// workerCommand spawns this binary as a campaign worker subprocess.
func workerCommand() *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), envWorker+"=1")
	cmd.Stderr = os.Stderr
	return cmd
}

// checkCampaign checks a finished campaign's output: the canonical journal
// must hold exactly one record per planned unit, its verdict tallies must
// equal the Result's, no unit may be quarantined, and its bytes must match
// the reference digest when one is recorded. It returns the journal's
// outcomes in unit order for the audit.
func checkCampaign(path string, res *campaign.Result, units int, ref string) (*outcome, []journal.Outcome) {
	o := &outcome{units: units, failed: res.Exec.HostFaults}
	if res.Exec.HostFaults > 0 {
		o.fail("%d units quarantined as host faults", res.Exec.HostFaults)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		o.fail("reading journal: %v", err)
		return o, nil
	}
	sum := sha256.Sum256(data)
	o.digest = hex.EncodeToString(sum[:])
	if ref != "" && o.digest != ref {
		o.fail("journal digest %s, reference %s", o.digest, ref)
	}
	j, err := journal.Open(path)
	if err != nil {
		o.fail("reopening journal: %v", err)
		return o, nil
	}
	defer j.Close()
	if res.Runs != units || j.Len() != units {
		o.fail("planned %d units, Result has %d, journal has %d", units, res.Runs, j.Len())
		return o, nil
	}
	outcomes := make([]journal.Outcome, units)
	fromJournal := make(map[campaign.FailureMode]int)
	for u := range outcomes {
		jo, ok := j.Done(u)
		if !ok {
			o.fail("journal lacks unit %d", u)
			return o, nil
		}
		outcomes[u] = jo
		fromJournal[campaign.FailureMode(jo.Mode)]++
	}
	fromResult := make(map[campaign.FailureMode]int)
	for _, e := range res.Entries {
		for mode, n := range e.Counts {
			fromResult[mode] += n
		}
	}
	for _, mode := range append(campaign.Modes(), campaign.HostFault) {
		if fromJournal[mode] != fromResult[mode] {
			o.fail("%v: journal tallies %d units, Result %d", mode, fromJournal[mode], fromResult[mode])
		}
	}
	return o, outcomes
}

// auditUnits is how many units the audit re-executes per repetition.
const auditUnits = 8

// audit re-executes a seeded sample of units on the reference path — a
// fresh machine, the generic injector arming, a full replay with no golden
// fast-forward and no dormant-fault shortcut — and compares verdict and
// activation with the journal. It runs after the timed window.
func (b *bench) audit(o *outcome, targets []*target, outcomes []journal.Outcome) {
	rng := rand.New(rand.NewSource(b.spec.Seed))
	for k := 0; k < auditUnits; k++ {
		u := rng.Intn(o.units)
		t := targets[sort.Search(len(targets), func(i int) bool { return targets[i].offset > u })-1]
		fi, ci := (u-t.offset)/len(t.cases), (u-t.offset)%len(t.cases)
		cs := &t.cases[ci]
		rr, err := campaign.RunWithFault(t.c, cs.Input, cs.Golden, &t.faults[fi], injector.ModeHardware, t.budgets[ci])
		want := outcomes[u]
		if err != nil || rr.Mode != campaign.FailureMode(want.Mode) || (rr.Activations > 0) != want.Activated {
			o.failed++
			o.fail("unit %d (%s %s case %d): campaign %v activated=%v, reference path %v activations=%d err=%v",
				u, t.p.Name, t.faults[fi].ID, ci, campaign.FailureMode(want.Mode), want.Activated, rr.Mode, rr.Activations, err)
		}
	}
}

// ---- realfault: the §5 equivalence experiment ----

func (b *bench) realfault() (*outcome, error) {
	type emulated struct {
		p     *programs.Program
		c     *cc.Compiled // the corrected binary, which the injection runs on
		em    *campaign.Emulation
		cases []workload.Case
		mode  injector.Mode
	}
	var targets []emulated
	for _, p := range programs.RealFaultPrograms() {
		t := emulated{p: p, mode: injector.ModeHardware}
		if err := b.span("cc.compile", func() (err error) {
			if t.c, err = p.Compile(); err != nil {
				return err
			}
			_, err = p.CompileFaulty()
			return err
		}); err != nil {
			return nil, err
		}
		if err := b.span("campaign.emulation", func() (err error) { t.em, err = campaign.BuildEmulation(p); return }); err != nil {
			return nil, err
		}
		if t.em.Fault == nil {
			continue // no machine-level emulation exists (the paper's category C)
		}
		if t.em.NeedsTraps {
			t.mode = injector.ModeTrap
		}
		if err := b.span("workload.generate", func() (err error) {
			t.cases, err = workload.Generate(p.Kind, b.spec.Size, b.spec.Seed)
			return
		}); err != nil {
			return nil, err
		}
		targets = append(targets, t)
	}
	b.setupDone()

	o := &outcome{}
	var digest strings.Builder
	for _, t := range targets {
		var rep *campaign.EquivalenceReport
		if err := b.span("campaign.verify", func() (err error) {
			rep, err = campaign.VerifyEmulationWorkers(t.p, t.em, campaign.StrategyFetchEveryExec, t.mode, t.cases, b.workers)
			return
		}); err != nil {
			return nil, err
		}
		o.units += rep.Cases
		if rep.Equivalent != rep.Cases {
			o.failed += rep.Cases - rep.Equivalent
			o.fail("%s: %d of %d injected runs differ from the real faulty program", t.p.Name, rep.Cases-rep.Equivalent, rep.Cases)
		}
		fmt.Fprintf(&digest, "%s %v %d %d %d\n", t.p.Name, t.mode, rep.Cases, rep.Equivalent, rep.FaultShown)
	}
	sum := sha256.Sum256([]byte(digest.String()))
	o.digest = hex.EncodeToString(sum[:])
	if b.spec.Reference != "" && o.digest != b.spec.Reference {
		o.fail("equivalence digest %s, reference %s", o.digest, b.spec.Reference)
	}
	b.checked()

	if b.spec.Traced {
		// The verify calls run one after another, each fanning out over
		// the workers, so their spans account for the execution wall.
		b.busy, b.busyWorkers = b.spans["campaign.verify"], 1
		b.layer["campaign.units"] = float64(o.units)
		b.layer["locator.faults"] = float64(len(targets))
		pts := make([]probeTarget, len(targets))
		for i, t := range targets {
			pts[i] = probeTarget{c: t.c, cases: t.cases, mode: t.mode, faults: []*fault.Fault{t.em.Fault}}
		}
		if err := b.probes(pts); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// ---- per-layer collection (traced repetitions) ----

// campaignLayers fills the campaign, golden, journal, worker and fabric
// metrics of a traced campaign from the telemetry registry, the trace, the
// journal file wrapper and the golden store.
func (b *bench) campaignLayers(res *campaign.Result, targets []*target, units int, fleet bool) {
	l := b.layer
	l["campaign.units"] = float64(units)
	faults := 0
	var budget uint64
	for _, t := range targets {
		faults += len(t.faults)
		for _, c := range t.budgets {
			budget += c
		}
	}
	l["locator.faults"] = float64(faults)
	l["campaign.calibrate_cycles"] = float64(budget)

	tally := make(map[campaign.FailureMode]int)
	for _, e := range res.Entries {
		for mode, n := range e.Counts {
			tally[mode] += n
		}
	}
	for _, mode := range campaign.Modes() {
		l["campaign.units."+mode.String()] = float64(tally[mode])
	}

	// Per-unit spans: the executor's "executed" events carry each unit's
	// duration, its "verdict" events the mode.
	dur := make(map[int]int64)
	verdict := make(map[int]string)
	for _, e := range b.events.all() {
		if e.Host != "" {
			continue
		}
		switch e.Kind {
		case telemetry.KindExecuted:
			dur[e.Unit] += e.DurUS
		case telemetry.KindVerdict:
			verdict[e.Unit] = e.Mode
		}
	}
	if len(dur) > 0 {
		ms := make([]float64, 0, len(dur))
		share := make(map[string]float64)
		var total float64
		for u, d := range dur {
			ms = append(ms, float64(d)/1e3)
			share[verdict[u]] += float64(d)
			total += float64(d)
		}
		sort.Float64s(ms)
		l["campaign.unit_ms.p50"] = quantile(ms, 0.50)
		l["campaign.unit_ms.p99"] = quantile(ms, 0.99)
		for _, mode := range campaign.Modes() {
			l["campaign.time_share."+mode.String()] = share[mode.String()] / total
		}
		b.busy, b.busyWorkers = time.Duration(total)*time.Microsecond, b.workers
	}

	reg := b.tel.Reg
	cnt := reg.Counters()
	if hits, misses := cnt["campaign_ffwd_hits_total"], cnt["campaign_ffwd_misses_total"]; hits+misses > 0 {
		l["campaign.ffwd_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	l["campaign.dormant_skips"] = float64(cnt["campaign_dormant_skips_total"])

	records, checkpoints, pages := golden.Shared.Stats()
	l["golden.records"] = float64(records)
	l["golden.checkpoints"] = float64(checkpoints)
	l["golden.pages"] = float64(pages)
	l["golden.record_ms.p50"] = histQuantile(reg, "golden_run_latency_us", 0.5) / 1e3

	if f := b.jfile; f != nil {
		if n := f.writes.Load(); n > 0 {
			l["journal.appends"] = float64(n - 1) // the first Write is the header
		}
		l["journal.write_bytes"] = float64(f.bytes.Load())
		l["journal.write_ms"] = float64(f.writeNS.Load()) / 1e6
		l["journal.sync_ms"] = float64(f.syncNS.Load()) / 1e6
	}

	if !fleet {
		return
	}
	l["fabric.units_assigned"] = float64(cnt["fabric_units_assigned_total"])
	l["fabric.steals"] = float64(cnt["fabric_steals_total"])
	l["fabric.units_redelivered"] = float64(cnt["fabric_units_redelivered_total"])
	var delivered, deliverySum float64
	var p50, p99 []float64
	for _, er := range b.execRegs {
		ec := er.Counters()
		l["fabric.reconnects"] += float64(ec["fabric_reconnects_total"])
		l["fabric.fed_pushes_dropped"] += float64(ec["fabric_fed_pushes_dropped_total"])
		l["worker.restarts"] += float64(ec["worker_restarts_total"])
		l["worker.redeliveries"] += float64(ec["worker_redeliveries_total"])
		for _, h := range er.Histograms() {
			if h.Name == "worker_delivery_latency_us" {
				delivered += float64(h.Count)
				deliverySum += float64(h.Sum)
				p50 = append(p50, snapQuantile(h, 0.5)/1e3)
				p99 = append(p99, snapQuantile(h, 0.99)/1e3)
			}
		}
	}
	if delivered > 0 {
		// One worker per executor: the summed delivery spans account for
		// the execution wall of len(execRegs) workers.
		b.busy, b.busyWorkers = time.Duration(deliverySum)*time.Microsecond, len(b.execRegs)
		l["worker.delivery_ms.p50"] = median(p50)
		l["worker.delivery_ms.p99"] = median(p99)
	}
	l["worker.peak_rss_mb"] = maxRSSMB(syscall.RUSAGE_CHILDREN)
}

// journalWrap returns the journal's file hook: a timing wrapper in traced
// repetitions, none otherwise.
func (b *bench) journalWrap() journal.Wrap {
	if !b.spec.Traced {
		return nil
	}
	return func(f *os.File) journal.File {
		b.jfile = &timedFile{File: f}
		return b.jfile
	}
}

// timedFile counts and times the journal's writes and syncs.
type timedFile struct {
	*os.File
	writes, bytes   atomic.Int64
	writeNS, syncNS atomic.Int64
}

func (f *timedFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	f.writeNS.Add(int64(time.Since(t)))
	f.writes.Add(1)
	f.bytes.Add(int64(n))
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	t := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.writeNS.Add(int64(time.Since(t)))
	f.bytes.Add(int64(n))
	return n, err
}

func (f *timedFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.syncNS.Add(int64(time.Since(t)))
	return err
}

// eventLog keeps every trace event of a repetition in memory.
type eventLog struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (l *eventLog) add(e telemetry.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) all() []telemetry.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]telemetry.Event(nil), l.events...)
}

// ---- helpers ----

// quantile reads the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// histQuantile estimates a quantile of a registry histogram.
func histQuantile(reg *telemetry.Registry, name string, q float64) float64 {
	for _, h := range reg.Histograms() {
		if h.Name == name {
			return snapQuantile(h, q)
		}
	}
	return 0
}

// snapQuantile interpolates a quantile linearly inside the fixed bucket
// that holds it.
func snapQuantile(h telemetry.HistogramSnapshot, q float64) float64 {
	rank := q * float64(h.Count)
	var seen, lower float64
	for _, bk := range h.Buckets {
		if bk.Inf {
			return lower
		}
		n := float64(bk.N)
		if seen+n >= rank {
			return lower + (float64(bk.Le)-lower)*(rank-seen)/n
		}
		seen += n
		lower = float64(bk.Le)
	}
	return lower
}

// cpuSeconds is the user+sys CPU time of this process plus its waited-for
// children (the fleet's worker subprocesses).
func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil {
			total += tv(ru.Utime) + tv(ru.Stime)
		}
	}
	return total
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// maxRSSMB is getrusage's maxrss (KiB on Linux) in MB.
func maxRSSMB(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
