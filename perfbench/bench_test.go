package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func lookup(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func testEnv(t *testing.T, seed uint64) *env {
	t.Helper()
	return &env{seed: seed, workers: 2, workDir: t.TempDir(), golden: filepath.Join("..", "testdata", "seed_cycles.json")}
}

// onePass sets the workload up and runs one checked pass over its op set,
// returning the sim.* metrics.
func onePass(t *testing.T, setup func(*env) (workload, error), seed uint64) map[string]float64 {
	t.Helper()
	w, err := setup(testEnv(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.pass(); i++ {
		if _, err := w.op(i); err != nil {
			t.Fatal(err)
		}
		if err := w.check(nil); err != nil {
			t.Fatal(err)
		}
	}
	sims, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	return sims
}

func TestSameSeedSameSimMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a pass of every workload twice")
	}
	for _, c := range []struct {
		name  string
		setup func(*env) (workload, error)
		sims  int
	}{
		{"paper-sweep", setupPaperSweep, 3},
		{"autotune-ladder", setupAutotune, 3},
		{"journaled-sweep", setupJournaled, 1},
	} {
		a := onePass(t, c.setup, 3)
		b := onePass(t, c.setup, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: sim metrics differ between runs of one seed:\n%v\n%v", c.name, a, b)
		}
		if len(a) != c.sims {
			t.Errorf("%s reports %d sim metrics, want %d: %v", c.name, len(a), c.sims, a)
		}
	}
}

func TestStreamMixDependsOnlyOnSeed(t *testing.T) {
	a, b, c := genMix(7), genMix(7), genMix(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated two different mixes")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 generated the same mix")
	}
	kinds := map[string]int{}
	for _, tr := range a {
		if len(tr.Cmds) != mixCmds {
			t.Fatalf("session has %d commands, want %d", len(tr.Cmds), mixCmds)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, cmd := range tr.Cmds {
			kinds[cmd.Op.String()+"/"+cmd.Kind().String()]++
		}
	}
	if len(kinds) != 4 {
		t.Errorf("mix covers %v, want strided and indexed reads and writes", kinds)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q has direction %q", d.Name, d.Better)
		}
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the metric
// and workload registries naming the same things.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		found := false
		for _, d := range workloads {
			found = found || d.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json workload %q is not in the registry", w.Name)
		}
	}
	check := func(defs []metricDef, listed []struct{ Name, Unit, Better string }) {
		declared := 0
		for _, d := range defs {
			if d.Declared {
				declared++
			}
		}
		if declared != len(listed) {
			t.Errorf("registry declares %d metrics, BENCHMARK.json lists %d", declared, len(listed))
		}
		for _, m := range listed {
			d, ok := lookup(defs, m.Name)
			if !ok || !d.Declared || d.Unit != m.Unit || d.Better != m.Better {
				t.Errorf("BENCHMARK.json metric %+v does not match the registry's %+v", m, d)
			}
		}
	}
	check(endToEnd, b.EndToEnd)
	check(perLayer, b.PerLayer)
}

// TestSelfTime checks the span arithmetic on a hand-built tree:
//
//	root  [0, 100)
//	  a   [10, 40)   with child a1 [15, 25)
//	  b   [30, 60)   overlaps a: covered part of root is [10, 60)
//	  c   [90, 120)  runs past root's end: only [90, 100) counts
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Parent: -1, Start: 0, End: 100},
		{Name: "harness.a", Parent: 0, Start: 10, End: 40},
		{Name: "kernels.a1", Parent: 1, Start: 15, End: 25},
		{Name: "harness.b", Parent: 0, Start: 30, End: 60},
		{Name: "pvaunit.c", Parent: 0, Start: 90, End: 120},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 10, 30, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	layers := layerSelf(spans)
	if layers["harness"] != 50 || layers["kernels"] != 10 || layers["pvaunit"] != 30 || layers["bench"] != 40 {
		t.Fatalf("layer self times %v", layers)
	}
}

func TestTracerRecordsTree(t *testing.T) {
	tr := newTracer()
	tr.setOp(4)
	root := tr.begin("bench.op")
	child := tr.begin("pvaunit.Run")
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].Op != 4 {
		t.Fatalf("spans %+v", tr.spans)
	}
	var off *tracer // a nil tracer records nothing
	off.end(off.begin("x"))
}

// TestWrongGoldenCountsAsError runs the paper sweep against a golden
// fixture with one deliberately wrong cell: the op must count as failed
// in error_rate.
func TestWrongGoldenCountsAsError(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper sweep")
	}
	raw, err := os.ReadFile(filepath.Join("..", "testdata", "seed_cycles.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	rows[17]["cycles"] = rows[17]["cycles"].(float64) + 1
	e := testEnv(t, 1)
	e.golden = filepath.Join(t.TempDir(), "wrong_golden.json")
	fixture, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(e.golden, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := setupPaperSweep(e)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport(&workloads[0])
	timedLoop(w, rep, time.Nanosecond, 1)
	if rep.failed != 1 || rep.attempted != 1 || rep.values["error_rate"] != 1 {
		t.Fatalf("failed %d of %d, error_rate %v; want the one op counted as failed",
			rep.failed, rep.attempted, rep.values["error_rate"])
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	v, pct, ok := tail(xs, 10)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail = %v at p%v (%v), want 90 at p90", v, pct, ok)
	}
	if _, _, ok := tail(xs[:10], 10); ok {
		t.Fatal("ten samples have no percentile with ten beyond it")
	}
}
