package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary serve the child and worker roles, exactly
// as the benchmark binary re-executes itself.
func TestMain(m *testing.M) {
	if code, ok := dispatchRole(); ok {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// tinySize keeps each repetition of the self-test to a few seconds.
var tinySize = map[string]int{"table4": 1, "realfault": 4, "fleet": 1}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workload {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares workload %q the benchmark does not have", w.Name)
		}
	}
	endToEnd, perLayer = make(map[string]string), make(map[string]string)
	for _, m := range bj.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func runTiny(t *testing.T, wl string, trace bool, ref string) (int, *result) {
	t.Helper()
	var out bytes.Buffer
	code := runOpts(options{
		workload:  wl,
		seed:      7,
		seconds:   0.01, // one repetition of each kind
		trace:     trace,
		size:      tinySize[wl],
		reference: ref,
	}, &out, t.TempDir())
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last output line %q: %v", lines[len(lines)-1], err)
	}
	return code, &res
}

// TestEveryDeclaredMetricIsPrinted runs each workload at a tiny size, once
// untraced and once traced, and checks that the printed metrics are exactly
// the ones BENCHMARK.json declares, with the declared units.
func TestEveryDeclaredMetricIsPrinted(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			code, res := runTiny(t, wl, trace, "")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, correct=%v, %d of %d failed", wl, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: %s not printed", wl, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: %s printed in %q, declared %q", wl, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: %s printed but not declared", wl, trace, name)
				}
			}
			if !trace {
				for _, name := range []string{"wall_s", "setup_s", "units_per_s", "cpu_s", "peak_rss_mb", "pass_ratio"} {
					if v := res.Metrics[name].Value; v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, name, v)
					}
				}
			}
		}
	}
}

// TestWrongReferenceFailsTheCheck gives a run a reference digest its output
// cannot have: the run must report the failure and exit non-zero.
func TestWrongReferenceFailsTheCheck(t *testing.T) {
	for _, wl := range []string{"table4", "realfault"} {
		code, res := runTiny(t, wl, false, strings.Repeat("0", 64))
		if code == 0 || res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s with a wrong reference: exit %d, correct=%v, %d of %d failed; want a failed run", wl, code, res.Correct, res.Failed, res.Attempted)
		}
		if res.Metrics["pass_ratio"].Value != 0 {
			t.Errorf("%s with a wrong reference: pass_ratio %v, want 0", wl, res.Metrics["pass_ratio"].Value)
		}
	}
}

// TestReferenceDigestLookup checks that recorded digests apply only to the
// seed and size they were recorded for.
func TestReferenceDigestLookup(t *testing.T) {
	for _, wl := range workloadNames() {
		size := workloads[wl].size
		if referenceDigest(wl, defaultSeed, size) == "" {
			t.Errorf("%s: no reference digest for seed %d size %d", wl, defaultSeed, size)
		}
		if d := referenceDigest(wl, defaultSeed+1, size); d != "" {
			t.Errorf("%s: digest %s applied to another seed", wl, d)
		}
		if d := referenceDigest(wl, defaultSeed, size+1); d != "" {
			t.Errorf("%s: digest %s applied to another size", wl, d)
		}
	}
}
