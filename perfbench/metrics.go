package main

import (
	"math"
	"sort"
)

// metricDef is one metric the benchmark can report. End-to-end metrics
// (Layer == "") come from untraced runs; per-layer metrics come from the
// traced run. Moves names the end-to-end metric and workload a change to
// the layer should move, and Flat a workload where it should not move:
// BENCHMARK.json's fixed schema has no room for that mapping, so it lives
// here and is printed beside every per-layer value.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Layer  string
	Moves  string
	Flat   string
	// Declared metrics are the ones BENCHMARK.json lists; they make up
	// the final JSON line. The rest are printed in the report only.
	Declared bool
}

// endToEnd lists every end-to-end metric. Workload-specific ones (the
// sim.speedup_* headlines, the stream latency distribution, the tuner's
// gains) and ones that are legitimately zero (error_rate, allocation on
// the zero-alloc stream path) are report-only: the final JSON line must
// carry the same non-zero metrics on every workload. elements_per_s is
// report-only too: elements per simulated cycle is fixed by the workload,
// so it moves exactly with sim_cycles_per_s.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Declared: true},
	{Name: "op_ms.p50", Unit: "ms", Better: "lower", Declared: true},
	{Name: "op_ms.tail", Unit: "ms", Better: "lower", Declared: true},
	{Name: "sim_cycles_per_s", Unit: "cycles/s", Better: "higher", Declared: true},
	{Name: "elements_per_s", Unit: "elements/s", Better: "higher"},
	{Name: "heap_peak_bytes", Unit: "bytes", Better: "lower", Declared: true},
	{Name: "sim.cycles_total", Unit: "cycles", Better: "lower", Declared: true},
	{Name: "alloc_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "error_rate", Unit: "ratio", Better: "lower"},
	{Name: "sim.speedup_vs_cacheline", Unit: "x", Better: "higher"},
	{Name: "sim.speedup_vs_gathering", Unit: "x", Better: "higher"},
	{Name: "sim.latency_p50_cycles", Unit: "cycles", Better: "lower"},
	{Name: "sim.latency_p99_cycles", Unit: "cycles", Better: "lower"},
	{Name: "sim.tuned_gain", Unit: "ratio", Better: "higher"},
	{Name: "sim.tuned_gain_heldout", Unit: "ratio", Better: "higher"},
}

// perLayer lists every per-layer metric of the traced run.
var perLayer = []metricDef{
	{Name: "harness.restore_us", Unit: "us", Better: "lower", Layer: "harness",
		Moves: "sim_cycles_per_s, op_ms.p50 on paper-sweep", Flat: "stream-mixed"},
	{Name: "harness.run_share", Unit: "share", Better: "higher", Layer: "harness",
		Moves: "sim_cycles_per_s, op_ms.p50 on paper-sweep", Flat: "stream-mixed"},
	{Name: "harness.replayed_cells", Unit: "count", Better: "higher", Layer: "harness",
		Moves: "op_ms.p50 on journaled-sweep", Flat: "paper-sweep"},
	{Name: "kernels.build_us", Unit: "us", Better: "lower", Layer: "kernels",
		Moves: "setup_s, op_ms.p50 on paper-sweep", Flat: "stream-mixed"},
	{Name: "pvaunit.run_ns_per_cycle", Unit: "ns", Better: "lower", Layer: "pvaunit",
		Moves: "sim_cycles_per_s on paper-sweep", Flat: "journaled-sweep"},
	{Name: "pvaunit.issue_us", Unit: "us", Better: "lower", Layer: "pvaunit",
		Moves: "op_ms.* on stream-mixed", Flat: "paper-sweep"},
	{Name: "pvaunit.wait_us", Unit: "us", Better: "lower", Layer: "pvaunit",
		Moves: "op_ms.* on stream-mixed", Flat: "paper-sweep"},
	{Name: "pvaunit.queued_mean", Unit: "commands", Better: "lower", Layer: "pvaunit",
		Moves: "op_ms.* on stream-mixed", Flat: "paper-sweep"},
	{Name: "pvaunit.alloc_bytes_per_run", Unit: "bytes", Better: "lower", Layer: "pvaunit",
		Moves: "alloc_bytes_per_op on stream-mixed", Flat: "paper-sweep"},
	{Name: "engine.ns_per_cycle_skip", Unit: "ns", Better: "lower", Layer: "engine",
		Moves: "sim_cycles_per_s on paper-sweep", Flat: "journaled-sweep"},
	{Name: "engine.ns_per_cycle_strict", Unit: "ns", Better: "lower", Layer: "engine",
		Moves: "sim_cycles_per_s on paper-sweep", Flat: "journaled-sweep"},
	{Name: "engine.skip_gain", Unit: "x", Better: "higher", Layer: "engine",
		Moves: "sim_cycles_per_s on paper-sweep", Flat: "journaled-sweep"},
	{Name: "bankctl.observe_ns", Unit: "ns", Better: "lower", Layer: "bankctl",
		Moves: "sim_cycles_per_s on paper-sweep; op_ms.p50 on autotune-ladder (tuned decoder)", Flat: "journaled-sweep"},
	{Name: "bankctl.tick_ns", Unit: "ns", Better: "lower", Layer: "bankctl",
		Moves: "sim_cycles_per_s on paper-sweep", Flat: "journaled-sweep"},
	{Name: "bankctl.row_hit_ratio", Unit: "ratio", Better: "higher", Layer: "bankctl",
		Moves: "sim.cycles_total on every workload", Flat: "none (a model change)"},
	{Name: "core.subvector_ns", Unit: "ns", Better: "lower", Layer: "core",
		Moves: "sim_cycles_per_s on paper-sweep", Flat: "autotune-ladder"},
	{Name: "addrmap.decode_ns.word", Unit: "ns", Better: "lower", Layer: "addrmap",
		Moves: "op_ms.p50 on autotune-ladder", Flat: "paper-sweep"},
	{Name: "addrmap.decode_ns.xor", Unit: "ns", Better: "lower", Layer: "addrmap",
		Moves: "op_ms.p50 on autotune-ladder", Flat: "paper-sweep"},
	{Name: "addrmap.decode_ns.tuned", Unit: "ns", Better: "lower", Layer: "addrmap",
		Moves: "op_ms.p50 on autotune-ladder", Flat: "paper-sweep"},
	{Name: "addrmap.split_ns", Unit: "ns", Better: "lower", Layer: "addrmap",
		Moves: "op_ms.p50 on stream-mixed", Flat: "paper-sweep"},
	{Name: "dramtech.access_ns", Unit: "ns", Better: "lower", Layer: "dramtech",
		Moves: "sim_cycles_per_s on paper-sweep", Flat: "journaled-sweep"},
	{Name: "sdram.activates", Unit: "count", Better: "lower", Layer: "sdram",
		Moves: "sim.cycles_total", Flat: "none (a model change)"},
	{Name: "sdram.row_conflicts", Unit: "count", Better: "lower", Layer: "sdram",
		Moves: "sim.cycles_total", Flat: "none (a model change)"},
	{Name: "sdram.read_latency_per_read", Unit: "cycles", Better: "lower", Layer: "sdram",
		Moves: "sim.cycles_total", Flat: "none (a model change)"},
	{Name: "bus.busy_ratio", Unit: "ratio", Better: "higher", Layer: "bus",
		Moves: "sim.latency_* on stream-mixed", Flat: "none (a model change)"},
	{Name: "bus.turnaround_ratio", Unit: "ratio", Better: "lower", Layer: "bus",
		Moves: "sim.latency_* on stream-mixed", Flat: "none (a model change)"},
	{Name: "bus.index_share", Unit: "ratio", Better: "lower", Layer: "bus",
		Moves: "sim.latency_* on stream-mixed", Flat: "paper-sweep (no indexed commands)"},
	{Name: "memsys.store_read_ns", Unit: "ns", Better: "lower", Layer: "memsys",
		Moves: "sim_cycles_per_s on stream-mixed and paper-sweep", Flat: "autotune-ladder"},
	{Name: "memsys.store_write_ns", Unit: "ns", Better: "lower", Layer: "memsys",
		Moves: "sim_cycles_per_s on stream-mixed and paper-sweep", Flat: "autotune-ladder"},
	{Name: "memsys.restore_ns", Unit: "ns", Better: "lower", Layer: "memsys",
		Moves: "harness.restore_us on paper-sweep", Flat: "stream-mixed"},
	{Name: "baseline.run_ns_per_cycle", Unit: "ns", Better: "lower", Layer: "baseline",
		Moves: "sim_cycles_per_s on paper-sweep", Flat: "stream-mixed"},
	{Name: "autotune.surrogate_evals", Unit: "count", Better: "lower", Layer: "autotune",
		Moves: "op_ms.p50 on autotune-ladder", Flat: "paper-sweep"},
	{Name: "autotune.full_evals", Unit: "count", Better: "lower", Layer: "autotune",
		Moves: "op_ms.p50 on autotune-ladder", Flat: "paper-sweep"},
	{Name: "autotune.full_eval_ms", Unit: "ms", Better: "lower", Layer: "autotune",
		Moves: "op_ms.p50 on autotune-ladder", Flat: "paper-sweep"},
	{Name: "autotune.surrogate_share", Unit: "share", Better: "higher", Layer: "autotune",
		Moves: "op_ms.p50 on autotune-ladder (estimate)", Flat: "paper-sweep"},
	{Name: "ckptio.encode_us", Unit: "us", Better: "lower", Layer: "ckptio",
		Moves: "op_ms.p50 on journaled-sweep", Flat: "every other workload"},
	{Name: "ckptio.append_us", Unit: "us", Better: "lower", Layer: "ckptio",
		Moves: "op_ms.p50 on journaled-sweep", Flat: "every other workload"},
	{Name: "ckptio.scan_ms", Unit: "ms", Better: "lower", Layer: "ckptio",
		Moves: "op_ms.p50 on journaled-sweep", Flat: "every other workload"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Layer: "trace",
		Moves: "nothing (traced minus untraced wall time of the same ops)", Flat: "every workload"},
}

// spanLayers are the layers the traced run attributes self time to; each
// gets a self_share.<layer> metric (self time / traced op wall time).
var spanLayers = []string{"harness", "kernels", "pvaunit", "baseline", "autotune", "ckptio"}

func init() {
	for _, l := range spanLayers {
		perLayer = append(perLayer, metricDef{
			Name: "self_share." + l, Unit: "share", Better: "lower", Layer: l,
			Moves: "op_ms.p50 on the workload whose ops spend it", Flat: "workloads that bypass " + l,
		})
	}
	for i := range perLayer {
		perLayer[i].Declared = true
	}
}

// median returns the middle value (mean of the two middle values for an
// even count) of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least
// minBeyond samples above it, the value at that percentile, and whether
// one exists. With n samples sorted ascending the value is s[n-1-minBeyond]
// and the percentile is (n-minBeyond)/n.
func tail(xs []float64, minBeyond int) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 1 - minBeyond
	return s[i], 100 * float64(i+1) / float64(n), true
}

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
