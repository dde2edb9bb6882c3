package main

import (
	_ "embed"
	"encoding/json"
	"sort"
)

// defaultSeed is the seed whose output digests reference.json records: the
// campaign.Config default, the year of the paper.
const defaultSeed = 2000

// workloadDef is one workload: its default size and its repetition body.
type workloadDef struct {
	// size is cases per fault for the campaigns and inputs per real fault
	// for realfault. It is chosen so that one repetition takes a few
	// seconds on a 2-CPU machine: a run's spread comes mostly from which
	// locations and inputs a seed draws, so many small repetitions on
	// distinct seeds steady a run more than a few large ones.
	size int
	run  func(b *bench) (*outcome, error)
}

var workloads = map[string]workloadDef{
	"table4":    {size: 1, run: (*bench).table4},
	"realfault": {size: 40, run: (*bench).realfault},
	"fleet":     {size: 1, run: (*bench).fleet},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"units_per_s", "units/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"pass_ratio", "ratio"},
}

// perLayer are the metrics of a traced run (--trace 1). A layer a workload
// does not exercise in the benchmark process reads 0 (the journal on
// realfault, the fabric on table4, ...).
var perLayer = []metricDef{
	{"cc.compile_s", "s"},
	{"workload.generate_s", "s"},
	{"campaign.calibrate_s", "s"},
	{"campaign.calibrate_cycles", "cycles"},
	{"locator.plan_s", "s"},
	{"locator.faults", "count"},
	{"campaign.emulation_s", "s"},
	{"campaign.units", "count"},
	{"campaign.unit_ms.p50", "ms"},
	{"campaign.unit_ms.p99", "ms"},
	{"campaign.units.correct", "count"},
	{"campaign.units.incorrect", "count"},
	{"campaign.units.hang", "count"},
	{"campaign.units.crash", "count"},
	{"campaign.time_share.correct", "ratio"},
	{"campaign.time_share.incorrect", "ratio"},
	{"campaign.time_share.hang", "ratio"},
	{"campaign.time_share.crash", "ratio"},
	{"campaign.ffwd_hit_ratio", "ratio"},
	{"campaign.dormant_skips", "count"},
	{"campaign.alloc_mb", "MB"},
	{"parallel.cpu_util", "ratio"},
	{"golden.records", "count"},
	{"golden.checkpoints", "count"},
	{"golden.pages", "count"},
	{"golden.record_ms.p50", "ms"},
	{"journal.appends", "count"},
	{"journal.write_bytes", "bytes"},
	{"journal.write_ms", "ms"},
	{"journal.sync_ms", "ms"},
	{"worker.delivery_ms.p50", "ms"},
	{"worker.delivery_ms.p99", "ms"},
	{"worker.restarts", "count"},
	{"worker.redeliveries", "count"},
	{"worker.peak_rss_mb", "MB"},
	{"fabric.units_assigned", "count"},
	{"fabric.steals", "count"},
	{"fabric.units_redelivered", "count"},
	{"fabric.reconnects", "count"},
	{"fabric.fed_pushes_dropped", "count"},
	{"vm.block_minstr_per_s", "Minstr/s"},
	{"vm.step_minstr_per_s", "Minstr/s"},
	{"vm.reset_us", "us"},
	{"vm.restore_us", "us"},
	{"vm.snapshot_us", "us"},
	{"injector.arm_us", "us"},
	{"injector.arm_lean_us", "us"},
	{"injector.lean_ratio", "ratio"},
	{"trace.setup_residual_ms", "ms"},
	{"trace.exec_residual_ratio", "ratio"},
	{"telemetry.trace_overhead", "ratio"},
}

//go:embed reference.json
var referenceJSON []byte

// reference is the part of reference.json the benchmark reads: the output
// digest of each workload at its default size for defaultSeed.
type reference struct {
	Seed    int64 `json:"seed"`
	Digests map[string]struct {
		Size   int    `json:"size"`
		SHA256 string `json:"sha256"`
	} `json:"digests"`
}

// referenceDigest returns the recorded digest for a run, or "" when none is
// recorded for its seed and size (the run is then checked for internal
// consistency and against the straight-path audit only).
func referenceDigest(workload string, seed int64, size int) string {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		panic("perfbench: reference.json: " + err.Error()) // embedded at build time
	}
	d, ok := ref.Digests[workload]
	if !ok || seed != ref.Seed || size != d.Size {
		return ""
	}
	return d.SHA256
}
