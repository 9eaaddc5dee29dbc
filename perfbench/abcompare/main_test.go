package main

import (
	"math"
	"testing"
)

// TestSummarizeMatchesPython pins the quartiles to Python's
// statistics.quantiles(xs, n=4) and median.
func TestSummarizeMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want summary
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, summary{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, summary{1, 2, 3}},
		{[]float64{5, 9}, summary{4, 7, 10}},
		{[]float64{1.5, 2.5, 10, 4, 7, 7, 3}, summary{2.5, 4, 7}},
	} {
		got := summarize(c.xs)
		if math.Abs(got.q1-c.want.q1) > 1e-12 || math.Abs(got.med-c.want.med) > 1e-12 || math.Abs(got.q3-c.want.q3) > 1e-12 {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

func TestVerdicts(t *testing.T) {
	lower := metric{Name: "op_ms.p50", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100, 102, 98, 100, 101, 99}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name string
		m    metric
		a, b []float64
		want string
	}{
		{"unchanged", lower, steady, steady, "same"},
		{"slower beyond the bound", lower, steady, shift(steady, 20), "regression"},
		{"faster in every pair", lower, steady, shift(steady, -10), "gain"},
		{"spread wider than the bound", lower, noisy, noisy, "unresolved"},
		{"higher is better", metric{Better: "higher", Bound: 0.1}, steady, shift(steady, -20), "regression"},
	} {
		if got := compare(c.m, c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// results wraps one metric's values as benchmark results; failed[i] ops
// of run i failed, and a run with failed ops is not correct.
func results(name string, xs []float64, failed []int) []result {
	rs := make([]result, len(xs))
	for i, x := range xs {
		rs[i] = result{Correct: true, Attempted: 10, Metrics: map[string]struct {
			Value float64 `json:"value"`
		}{name: {Value: x}}}
		if failed != nil && failed[i] > 0 {
			rs[i].Failed, rs[i].Correct = failed[i], false
		}
	}
	return rs
}

func TestJudgeSimMetricsExact(t *testing.T) {
	m := metric{Name: "sim.cycles_total", Better: "lower", Bound: 0.001}
	same := []float64{20689, 20689, 20693, 20691, 20689, 20689, 20692, 20689, 20689, 20693}
	if got := judge(m, results(m.Name, same, nil), results(m.Name, same, nil)).verdict; got != "identical" {
		t.Errorf("equal cycles: verdict %q, want identical", got)
	}
	// One pair one cycle apart, well inside the bound: still a model change.
	off := append([]float64(nil), same...)
	off[3]--
	if got := judge(m, results(m.Name, same, nil), results(m.Name, off, nil)).verdict; got != "model changed" {
		t.Errorf("one cycle fewer in one pair: verdict %q, want model changed", got)
	}
	// 1% fewer cycles everywhere is a changed model, not a gain.
	fewer := make([]float64, len(same))
	for i, x := range same {
		fewer[i] = x * 0.99
	}
	if got := judge(m, results(m.Name, same, nil), results(m.Name, fewer, nil)).verdict; got != "model changed" {
		t.Errorf("1%% fewer cycles: verdict %q, want model changed", got)
	}
}

func TestJudgeFailedOpsBlockGain(t *testing.T) {
	m := metric{Name: "op_ms.p50", Better: "lower", Bound: 0.1}
	a := []float64{100, 101, 99, 100, 100, 102, 98, 100, 101, 99}
	b := make([]float64, len(a))
	for i, x := range a {
		b[i] = x - 10
	}
	if got := judge(m, results(m.Name, a, nil), results(m.Name, b, nil)).verdict; got != "gain" {
		t.Fatalf("faster, no failures: verdict %q, want gain", got)
	}
	fails := make([]int, len(b))
	fails[4] = 1
	ra, rb := results(m.Name, a, nil), results(m.Name, b, fails)
	if got := judge(m, ra, rb).verdict; got != "failing" {
		t.Errorf("faster but one B op failed: verdict %q, want failing", got)
	}
	if !worseOps(ra, rb) {
		t.Error("worseOps: B fails more ops than A, want true")
	}
	if !failingVerdict("failing") || !failingVerdict("model changed") || failingVerdict("same") {
		t.Error("failingVerdict does not fail the comparison on failing or model changed")
	}
	// As many failures as A still blocks: a B run that is not correct
	// never passes.
	if !worseOps(results(m.Name, a, fails), results(m.Name, b, fails)) {
		t.Error("worseOps: B has a run that is not correct, want true")
	}
}
