package main

import (
	"fmt"

	"pva"
	"pva/internal/addrmap"
	"pva/internal/autotune"
	"pva/internal/memsys"
)

// tuneElements is the vector length the ladder searches at: short
// enough that one kernel's search is one op of a few hundred ms.
const tuneElements = 256

// autotuneLadder runs the decoder autotuner over the 8 paper kernels, one
// kernel's search per op, and checks each winner from outside.
type autotuneLadder struct {
	e       *env
	kernels []pva.Kernel
	opts    pva.AutotuneOptions
	traces  [][][]memsys.Trace    // per kernel and alignment; alignment 0 is searched
	elems   []uint64              // elements per full evaluation, per kernel
	results []*pva.AutotuneResult // last result per kernel
	first   []*pva.AutotuneResult // pass 0's results: the fixed op set of sim.*
	lastK   int
}

// setupAutotune builds every kernel's traces at all five alignments (the
// searched one and the four held back) and warms the process with one
// full evaluation of every kernel per fixed decoder; it runs no search, so
// its cost does not depend on the seed.
func setupAutotune(e *env) (workload, error) {
	w := &autotuneLadder{
		e:       e,
		kernels: pva.Kernels(),
		opts:    pva.AutotuneOptions{Workers: e.workers},
	}
	for _, k := range w.kernels {
		var byAlign [][]memsys.Trace
		for a := 0; a < pva.AlignmentCount; a++ {
			byAlign = append(byAlign, autotune.KernelWorkload(k, pva.PaperStrides(), a, tuneElements).Traces)
		}
		w.traces = append(w.traces, byAlign)
		var n uint64
		for _, tr := range byAlign[0] {
			n += elementsOf(tr)
		}
		w.elems = append(w.elems, n)
	}
	for _, byAlign := range w.traces {
		for _, name := range []string{"word", "line", "xor"} {
			if _, err := rerun(name, byAlign[0], nil); err != nil {
				return nil, err
			}
		}
	}
	w.results = make([]*pva.AutotuneResult, len(w.kernels))
	w.first = make([]*pva.AutotuneResult, len(w.kernels))
	return w, nil
}

func (w *autotuneLadder) pass() int { return len(w.kernels) }

// options gives op i its own search seed, derived from the benchmark
// seed, so a run samples the searcher's randomness many times over
// instead of timing one draw per kernel.
func (w *autotuneLadder) options(i int) pva.AutotuneOptions {
	o := w.opts
	s := w.e.seed ^ uint64(i)*0x9e3779b97f4a7c15
	o.Seed = splitmix64(&s)
	return o
}

func (w *autotuneLadder) op(i int) (opStats, error) {
	k := i % len(w.kernels)
	res, err := pva.AutotuneKernel(w.kernels[k].Name, nil, tuneElements, w.options(i))
	if err != nil {
		return opStats{}, err
	}
	return w.record(i, res), nil
}

func (w *autotuneLadder) record(i int, res *pva.AutotuneResult) opStats {
	k := i % len(w.kernels)
	w.lastK = k
	w.results[k] = res
	if i < len(w.kernels) {
		w.first[k] = res
	}
	return w.stats(k, res)
}

// stats counts what the search simulated: every full evaluation (the
// survivors and the three fixed decoders) runs the kernel's traces once.
func (w *autotuneLadder) stats(k int, res *pva.AutotuneResult) opStats {
	var st opStats
	for _, c := range res.Survivors {
		st.cycles += c.Cycles
	}
	for _, c := range res.Baselines {
		st.cycles += c
	}
	st.elements = w.elems[k] * uint64(res.FullEvals)
	return st
}

// tracedOp builds the kernel's workload and runs the search as two
// calls, so kernel construction and search time separate.
func (w *autotuneLadder) tracedOp(tr *tracer, i int) (opStats, error) {
	k := i % len(w.kernels)
	id := tr.begin("kernels.Workload")
	wl := autotune.KernelWorkload(w.kernels[k], pva.PaperStrides(), 0, tuneElements)
	tr.end(id)
	id = tr.begin("autotune.Search")
	res, err := pva.AutotuneTrace(wl, w.options(i))
	tr.end(id)
	if err != nil {
		return opStats{}, err
	}
	return w.record(i, res), nil
}

// rerun measures spec over traces on fresh Systems.
func rerun(spec string, traces []memsys.Trace, acc *layerAcc) (uint64, error) {
	cfg := pva.DefaultConfig()
	cfg.AddrMap = spec
	var total uint64
	for _, tr := range traces {
		sys, err := pva.NewSystem(cfg)
		if err != nil {
			return 0, err
		}
		res, err := sys.Run(tr)
		if err != nil {
			return 0, err
		}
		acc.addPVA(res, 1)
		total += res.Cycles
	}
	return total, nil
}

// check holds the last search's winner to two gates: it measures no worse
// than the best fixed decoder, and its spec re-run on fresh Systems
// reproduces the reported cycles.
func (w *autotuneLadder) check(acc *layerAcc) error {
	k := w.lastK
	res := w.results[k]
	name := w.kernels[k].Name
	fixedName, fixed := res.BestFixed()
	if res.Best.Cycles > fixed {
		return fmt.Errorf("%s: winner %s at %d cycles loses to %s at %d", name, res.Best.Spec, res.Best.Cycles, fixedName, fixed)
	}
	got, err := rerun(res.Best.Spec, w.traces[k][0], acc)
	if err != nil {
		return fmt.Errorf("%s: re-run %s: %w", name, res.Best.Spec, err)
	}
	if got != res.Best.Cycles {
		return fmt.Errorf("%s: %s re-runs at %d cycles, search reported %d", name, res.Best.Spec, got, res.Best.Cycles)
	}
	if acc != nil {
		acc.ops++
		acc.surrogateEvals += res.SurrogateEvals
		acc.fullEvals += res.FullEvals
	}
	return nil
}

// finish reports, for the first pass's searches, the winners' total
// cycles and the tuner's gain over the best fixed decoder on the searched
// alignment and, with the same specs, on the four alignments held back
// from the search.
func (w *autotuneLadder) finish() (map[string]float64, error) {
	var total uint64
	var gains, held []float64
	for k, res := range w.first {
		if res == nil {
			return nil, fmt.Errorf("%s was never searched", w.kernels[k].Name)
		}
		total += res.Best.Cycles
		_, fixed := res.BestFixed()
		gains = append(gains, float64(fixed)/float64(res.Best.Cycles))
		var tuned uint64
		fixedH := map[string]uint64{}
		for a := 1; a < pva.AlignmentCount; a++ {
			c, err := rerun(res.Best.Spec, w.traces[k][a], nil)
			if err != nil {
				return nil, err
			}
			tuned += c
			for _, name := range []string{"word", "line", "xor"} {
				c, err := rerun(name, w.traces[k][a], nil)
				if err != nil {
					return nil, err
				}
				fixedH[name] += c
			}
		}
		best := fixedH["word"]
		for _, c := range fixedH {
			if c < best {
				best = c
			}
		}
		held = append(held, float64(best)/float64(tuned))
	}
	return map[string]float64{
		"sim.cycles_total":       float64(total),
		"sim.tuned_gain":         geomean(gains) - 1,
		"sim.tuned_gain_heldout": geomean(held) - 1,
	}, nil
}

func (w *autotuneLadder) material() *material {
	var traces []memsys.Trace
	for _, t := range w.traces {
		traces = append(traces, t[0]...)
	}
	// The probes run under the winner of the last kernel searched: its
	// tuned decoder takes the bank controllers' enumerate path.
	spec := w.results[w.lastK].Best.Spec
	tuned, err := addrmap.Parse(spec, 1, 16, 32)
	if err != nil {
		tuned = addrmap.MustTuned(1, 16, addrmap.XORFoldMasks(1, 16))
	}
	cfg := pva.DefaultConfig()
	cfg.AddrMap = addrmap.Spec(tuned)
	return &material{cfg: cfg, traces: traces, search: w.traces[w.lastK][0], dec: tuned, tuned: tuned}
}

// searchMetrics derives the autotune metrics from the traced run: the
// ladder's counts per search from the results the checks saw, and the
// surrogate's share of search time, estimated from one full evaluation
// timed by the probes. A workload that runs no search reads 0.
func searchMetrics(acc *layerAcc, tr *tracer, rep *report) {
	n, searchT := spanStats(tr.spans, "autotune.Search")
	if n == 0 {
		for _, name := range []string{"autotune.surrogate_evals", "autotune.full_evals", "autotune.surrogate_share"} {
			rep.values[name] = 0
			rep.notes[name] = "no autotune search in this workload's ops"
		}
		return
	}
	full := float64(acc.fullEvals) / float64(n)
	evalMs := rep.values["autotune.full_eval_ms"]
	searchMs := float64(searchT) / 1e6 / float64(n)
	rep.values["autotune.surrogate_evals"] = float64(acc.surrogateEvals) / float64(n)
	rep.values["autotune.full_evals"] = full
	// The search is one call, so the surrogate's share of it is an
	// estimate: what is left after full evals x one full evaluation.
	rep.values["autotune.surrogate_share"] = 1 - full*evalMs/searchMs
	rep.notes["autotune.surrogate_share"] = fmt.Sprintf("estimate: 1 - %.1f full evals x %.3f ms / %.3f ms search", full, evalMs, searchMs)
}
