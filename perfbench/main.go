// Command perfbench is the repository's standing benchmark. One invocation
// runs one named workload for a wall-clock budget, checks every verdict it
// produced, and prints as the last line of standard output one JSON object:
//
//	{"correct": true, "attempted": 1744, "failed": 0,
//	 "metrics": {"wall_s": {"value": 6.1, "unit": "s"}, ...}}
//
// Build and run it from the repository root through run.sh, which keeps the
// build and the Go build cache inside .bench_build/:
//
//	sh perfbench/run.sh --workload table4 --seed 1 --seconds 30 --trace 0
//
// Workloads (why each was chosen is recorded in reference.json):
//
//	table4     the §6 class campaign over the 8 Table 4 programs
//	realfault  the §5 equivalence check of every emulable real fault
//	fleet      the table4 campaign through a loopback fabric of two
//	           executors, each with one proc-isolated worker subprocess
//
// With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
// units_per_s, cpu_s, peak_rss_mb, pass_ratio). With --trace 1 the run
// alternates untraced and traced repetitions and prints the per-layer
// metrics of the traced ones plus telemetry.trace_overhead.
//
// Every repetition is a fresh child process (this binary re-executed): the
// golden store, the calibration cache, the workload cache and the compile
// cache are process-wide, so a second campaign in one process would skip
// the set-up that every swifi invocation pays. Repetitions run one after
// another until the budget is spent, each on its own seed derived from
// --seed (see repSeed); every metric but pass_ratio, which counts all the
// run's units, is the median over them. The load is a closed loop: one
// campaign at a time, with as many workers as the machine has CPUs.
//
// The exit status is 0 only when every repetition passed its output check.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/worker"
)

// Environment variables that select the role of a re-executed binary.
const (
	envChild  = "PERFBENCH_CHILD"  // one measured repetition; value is the JSON childSpec
	envWorker = "PERFBENCH_WORKER" // a fleet executor's campaign worker subprocess
)

func main() {
	if code, ok := dispatchRole(); ok {
		os.Exit(code)
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// dispatchRole serves the child and worker roles of a re-executed binary;
// ok is false in the top-level process.
func dispatchRole() (code int, ok bool) {
	if os.Getenv(envWorker) == "1" {
		if err := worker.Serve(os.Stdin, os.Stdout, campaign.WorkerFactory); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			return 1, true
		}
		return 0, true
	}
	if spec := os.Getenv(envChild); spec != "" {
		return childMain(spec, os.Stdout), true
	}
	return 0, false
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// size overrides the workload's default size (cases per fault for the
	// campaigns, inputs per fault for realfault); 0 keeps the default.
	size int
	// reference overrides the expected output digest; "" looks it up in
	// reference.json.
	reference string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "seed for input generation and location choice")
	seconds := fs.Float64("seconds", 30, "wall-clock budget of the run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced repetitions")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[*wl]; !ok {
		return options{}, fmt.Errorf("unknown workload %q (want one of %s)", *wl, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return options{}, fmt.Errorf("--seconds must be positive")
	}
	return options{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1}, nil
}

// run executes one benchmark invocation and returns the exit status.
func run(args []string, stdout io.Writer) int {
	opts, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	return runOpts(opts, stdout, "")
}

// runOpts is run after flag parsing. workDir is where repetitions keep
// their journals; "" uses .bench_build under the current directory.
func runOpts(opts options, stdout io.Writer, workDir string) int {
	res, err := measure(opts, workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is what one child repetition reports.
type sample struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problem   string             `json:"problem,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// measure runs repetitions until the budget is spent and folds them into
// one result. A budget shorter than one repetition still runs one (traced,
// one pair).
func measure(opts options, workDir string) (*result, error) {
	wl := workloads[opts.workload]
	size := opts.size
	if size == 0 {
		size = wl.size
	}
	if workDir == "" {
		workDir = filepath.Join(".bench_build", "perfbench-runs")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, opts.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var plain, traced []*sample
	budget := time.Duration(opts.seconds * float64(time.Second))
	start := time.Now()
	var stepStart time.Time
	for i := 0; ; i++ {
		// Traced repetitions alternate with untraced ones on the same seed,
		// so that both see the same inputs and the same drift of a shared
		// machine; a traced run ends on a completed pair.
		k, tr := i, false
		if opts.trace {
			k, tr = i/2, i%2 == 1
		}
		if !tr {
			// Start another repetition (pair) only if one as long as the
			// last still fits the budget.
			if len(plain) > 0 && time.Since(start)+time.Since(stepStart) > budget {
				break
			}
			stepStart = time.Now()
		}
		seed := repSeed(opts.seed, k)
		want := opts.reference
		if want == "" {
			want = referenceDigest(opts.workload, seed, size)
		}
		s, err := spawnChild(childSpec{
			Workload:  opts.workload,
			Seed:      seed,
			Size:      size,
			Traced:    tr,
			Reference: want,
			Dir:       filepath.Join(dir, fmt.Sprintf("rep-%d", i)),
		})
		if err != nil {
			return nil, err
		}
		// One line per repetition, so that an outlier in a run's spread
		// can be traced to its repetition and seed.
		fmt.Fprintf(os.Stderr, "perfbench: repetition %d seed %d traced %v: wall %.3f s, set-up %.3f s, %d units\n",
			i, seed, tr, s.Metrics["wall_s"], s.Metrics["setup_s"], s.Attempted)
		if tr {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	return fold(opts, plain, traced), nil
}

func fold(opts options, plain, traced []*sample) *result {
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	for _, s := range append(append([]*sample(nil), plain...), traced...) {
		res.Attempted += s.Attempted
		res.Failed += s.Failed
		if !s.Correct {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: output check failed: %s\n", s.Problem)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if !opts.trace {
		// Medians over the repetitions: a run's repetitions differ in work
		// (each has its own seed) and, on a shared machine, now and then
		// one stalls; the median is robust to both.
		for _, d := range endToEnd {
			v := medianOf(plain, d.name)
			if d.name == "pass_ratio" {
				v = float64(res.Attempted-res.Failed) / float64(res.Attempted)
			}
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
		return res
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: medianOf(traced, d.name), Unit: d.unit}
	}
	// Repetition pairs share a seed, so each ratio compares equal work.
	ratios := make([]float64, len(traced))
	for k := range traced {
		ratios[k] = traced[k].Metrics["wall_s"] / plain[k].Metrics["wall_s"]
	}
	res.Metrics["telemetry.trace_overhead"] = metric{Value: median(ratios), Unit: "ratio"}
	return res
}

// repSeed is the seed of a run's k-th repetition (or pair of repetitions,
// traced): the run's own seed first, then seeds a large stride apart, so
// that a run samples several location choices and input sets — the
// dominant source of run-to-run spread — and runs with nearby seeds share
// none.
func repSeed(seed int64, k int) int64 {
	s := seed + int64(k)*1_000_003
	if s == 0 {
		// campaign.Config reads seed 0 as its default; resolving it here
		// keeps the benchmark's own set-up calls on the campaign's inputs.
		return defaultSeed
	}
	return s
}

// medianOf is the median of one metric over the samples.
func medianOf(samples []*sample, name string) float64 {
	v := make([]float64, 0, len(samples))
	for _, s := range samples {
		v = append(v, s.Metrics[name])
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// spawnChild runs one repetition in a fresh copy of this binary and returns
// its report.
func spawnChild(spec childSpec) (*sample, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), envChild+"="+string(payload))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s repetition: %w", spec.Workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s sample
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		return nil, fmt.Errorf("%s repetition: bad report: %w", spec.Workload, err)
	}
	if s.Attempted < 1 {
		return nil, errors.New(spec.Workload + " repetition attempted no units")
	}
	return &s, nil
}
