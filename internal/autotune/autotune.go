// Package autotune searches the XOR-hash address-mapping space for the
// decoder that minimizes a workload's bank conflicts and total cycles,
// and ships the winner as a canonical addrmap.Tuned spec usable
// everywhere a decoder is today (Config.AddrMap, both CLIs, the sweep
// harness). See DESIGN.md §14 for the search-space and determinism
// arguments.
//
// The search is a two-rung evaluation ladder. The bottom rung is the
// decode-only surrogate (surrogate.go), a table decoded once per search
// that scores a one-bit mask toggle in one pass: greedy per-bit
// refinement with seeded random restarts walks the mask space on
// surrogate cost alone, thousands of evaluations per second. The top rung is the real
// cycle-accurate simulator: only the surrogate's best few locally
// optimal candidates (Options.Survivors) are promoted, each evaluated
// by running the full workload warm-started from a shared
// copy-on-write checkpoint, fanned out over the process-global engine
// worker pool. The winner is the survivor with the fewest measured
// cycles; because zero masks reproduce the paper's word interleave and
// the XOR-fold masks reproduce the classic bank hash, both landmarks
// are always in the starting population and the tuned result can never
// search worse than them under the surrogate's ranking.
//
// Everything is deterministic for a fixed Options.Seed: restarts come
// from a splitmix64 stream, greedy scans bits in ascending order,
// candidates are deduplicated and ordered by (cost, spec), and the
// parallel full evaluations land in indexed slots so scheduling order
// cannot leak into the result.
package autotune

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"pva/internal/addrmap"
	"pva/internal/engine"
	"pva/internal/kernels"
	"pva/internal/memsys"
	"pva/internal/pvaunit"
)

// Workload is what the tuner optimizes for: a set of recorded traces
// measured together (their cycle counts sum). Build one from kernels
// via KernelWorkload or hand it explicit traces.
type Workload struct {
	Name   string
	Traces []memsys.Trace
}

// KernelWorkload builds the workload "kernel at each stride" with the
// given alignment and vector length (0: the paper's 1024).
func KernelWorkload(k kernels.Kernel, strides []uint32, alignment int, elements uint32) Workload {
	w := Workload{Name: k.Name}
	for _, s := range strides {
		p := kernels.PaperParams(s, alignment)
		if elements != 0 {
			p.Elements = elements
		}
		w.Traces = append(w.Traces, k.Build(p))
	}
	return w
}

// Options tunes the search. The zero value searches the paper's
// single-channel 16-bank shape with a small deterministic budget.
type Options struct {
	// Channels/Banks/LineWords fix the decoder shape searched (0: the
	// paper's 1, 16, 32).
	Channels  uint32
	Banks     uint32
	LineWords uint32
	// Seed drives the random restarts; equal seeds give bit-identical
	// results, including across worker counts.
	Seed uint64
	// Restarts is the number of random starting mask sets refined in
	// addition to the word and XOR-fold landmarks (0: 6).
	Restarts int
	// Survivors is how many locally optimal candidates are promoted to
	// full cycle-accurate evaluation (0: 4).
	Survivors int
	// Workers selects the full-evaluation engine: 1 runs survivors
	// serially inline, anything else fans them out over the shared
	// engine worker pool.
	Workers int
	// DisableSurrogate makes every evaluation — greedy refinement
	// included — a full cycle-accurate simulation. It exists to measure
	// what the surrogate rung saves (see BenchmarkAutotuneSearch); on
	// real budgets it is orders of magnitude slower.
	DisableSurrogate bool
	// MaskBits caps the bank-word bits the search may hash (0: every
	// bit that varies across the workload).
	MaskBits uint
}

func (o Options) withDefaults() Options {
	if o.Channels == 0 {
		o.Channels = 1
	}
	if o.Banks == 0 {
		o.Banks = 16
	}
	if o.LineWords == 0 {
		o.LineWords = 32
	}
	if o.Restarts == 0 {
		o.Restarts = 6
	}
	if o.Survivors == 0 {
		o.Survivors = 4
	}
	return o
}

// Candidate is one evaluated mask set.
type Candidate struct {
	Masks     []uint32 `json:"masks"`
	Spec      string   `json:"spec"`
	Surrogate uint64   `json:"surrogate"`
	// Cycles is the full-simulation total over the workload; 0 when the
	// candidate was pruned by the surrogate alone.
	Cycles uint64 `json:"cycles,omitempty"`
}

// Result reports a search.
type Result struct {
	Workload string `json:"workload"`
	// Best is the winning candidate; Best.Spec plugs directly into
	// Config.AddrMap, -addrmap, and SweepOptions.AddrMap.
	Best Candidate `json:"best"`
	// Survivors are the fully evaluated candidates, best first.
	Survivors []Candidate `json:"survivors"`
	// Baselines are the full-simulation totals of the fixed decoders on
	// the same workload, keyed "word", "line", "xor".
	Baselines map[string]uint64 `json:"baselines"`
	// SurrogateEvals and FullEvals count the two rungs of the ladder.
	SurrogateEvals int `json:"surrogate_evals"`
	FullEvals      int `json:"full_evals"`
}

// BestFixed returns the lowest baseline total and its decoder name
// (ties break alphabetically).
func (r *Result) BestFixed() (string, uint64) {
	bestName, best := "", ^uint64(0)
	for _, name := range []string{"line", "word", "xor"} {
		if c, ok := r.Baselines[name]; ok && c < best {
			bestName, best = name, c
		}
	}
	return bestName, best
}

// searcher carries one Search invocation's state.
type searcher struct {
	w       Workload
	o       Options
	baseImg *memsys.Image // shared cold checkpoint all evaluations warm-start from
	lm      uint          // log2 banks
	varyBit []uint        // bank-word bits the search may toggle
	fullMu  sync.Mutex
	full    int
}

// Search runs the autotuner over a workload and returns the winning
// decoder with its evidence. Deterministic for a fixed Options.Seed.
func Search(w Workload, o Options) (*Result, error) {
	o = o.withDefaults()
	if len(w.Traces) == 0 {
		return nil, fmt.Errorf("autotune: workload %q has no traces", w.Name)
	}
	// Validate the shape once; every later MustTuned shares it.
	if _, err := addrmap.NewTuned(o.Channels, o.Banks, nil); err != nil {
		return nil, err
	}

	// The captured traces live only while the surrogate table is built.
	captured := make([]kernels.AddressTrace, len(w.Traces))
	for i, tr := range w.Traces {
		captured[i] = kernels.CaptureAddresses(tr)
	}
	sur := newSurrogate(captured, pvaunit.PaperConfig().SGeom, o.Channels, o.Banks)
	s := &searcher{w: w, o: o, lm: uint(bits.TrailingZeros32(o.Banks))}

	// The toggleable bits: bank-word bits that vary across the workload
	// (a constant bit contributes a constant parity — pure relabeling,
	// never a conflict change), optionally capped by MaskBits.
	vary := sur.varyMask()
	if o.MaskBits > 0 && o.MaskBits < 32 {
		vary &= 1<<o.MaskBits - 1
	}
	for v := vary; v != 0; v &= v - 1 {
		s.varyBit = append(s.varyBit, uint(bits.TrailingZeros32(v)))
	}

	// Shared base checkpoint: the cold memory image every candidate's
	// evaluation (and every baseline's) warm-starts from, so full
	// simulations never re-materialize pages another already has.
	base, err := s.newSystem(addrmap.MustTuned(o.Channels, o.Banks, nil))
	if err != nil {
		return nil, err
	}
	s.baseImg = base.(memsys.ImageSnapshotter).MemoryImage()

	// Starting population: the two landmarks plus seeded random masks.
	starts := [][]uint32{
		make([]uint32, s.lm), // word interleave
		addrmap.XORFoldMasks(o.Channels, o.Banks),
	}
	seed := o.Seed
	for r := 0; r < o.Restarts; r++ {
		m := make([]uint32, s.lm)
		for j := range m {
			m[j] = uint32(splitmix64(&seed)) & vary
		}
		starts = append(starts, m)
	}

	// Rung one: greedy per-bit refinement of every start, scored by the
	// surrogate or, with DisableSurrogate, by full simulation.
	var ev evaluator = sur
	full := &fullEval{s: s}
	if o.DisableSurrogate {
		ev = full
	}
	var locals []Candidate
	seen := map[string]bool{}
	for _, start := range starts {
		masks, score := s.greedy(ev, start)
		if full.err != nil {
			return nil, full.err
		}
		spec := addrmap.MustTuned(o.Channels, o.Banks, masks).String()
		if seen[spec] {
			continue
		}
		seen[spec] = true
		locals = append(locals, Candidate{Masks: masks, Spec: spec, Surrogate: score})
	}
	sort.Slice(locals, func(i, j int) bool {
		if locals[i].Surrogate != locals[j].Surrogate {
			return locals[i].Surrogate < locals[j].Surrogate
		}
		return locals[i].Spec < locals[j].Spec
	})

	// Rung two: promote the survivors to the real simulator. The
	// unrefined landmarks always ride along — they reproduce the word and
	// xor decoders exactly, so the measured winner can never be worse
	// than either fixed decoder, whatever the surrogate thought.
	if len(locals) > o.Survivors {
		locals = locals[:o.Survivors]
	}
	for _, lmk := range [][]uint32{make([]uint32, s.lm), addrmap.XORFoldMasks(o.Channels, o.Banks)} {
		spec := addrmap.MustTuned(o.Channels, o.Banks, lmk).String()
		dup := false
		for _, c := range locals {
			if c.Spec == spec {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		c := Candidate{Masks: lmk, Spec: spec}
		if !o.DisableSurrogate {
			c.Surrogate = sur.load(lmk)
		}
		locals = append(locals, c)
	}
	decs := make([]addrmap.Decoder, len(locals))
	for i, c := range locals {
		decs[i] = addrmap.MustTuned(o.Channels, o.Banks, c.Masks)
	}
	cycles, err := s.evalAll(decs)
	if err != nil {
		return nil, err
	}
	for i := range locals {
		locals[i].Cycles = cycles[i]
		if o.DisableSurrogate {
			locals[i].Surrogate = 0 // never surrogate-scored
		}
	}
	sort.Slice(locals, func(i, j int) bool {
		if locals[i].Cycles != locals[j].Cycles {
			return locals[i].Cycles < locals[j].Cycles
		}
		return locals[i].Spec < locals[j].Spec
	})

	// Baselines: the fixed decoders on the identical workload.
	baseNames := []string{"word", "line", "xor"}
	baseDecs := make([]addrmap.Decoder, len(baseNames))
	for i, n := range baseNames {
		d, err := addrmap.Parse(n, o.Channels, o.Banks, o.LineWords)
		if err != nil {
			return nil, err
		}
		baseDecs[i] = d
	}
	baseCycles, err := s.evalAll(baseDecs)
	if err != nil {
		return nil, err
	}
	baselines := make(map[string]uint64, len(baseNames))
	for i, n := range baseNames {
		baselines[n] = baseCycles[i]
	}

	return &Result{
		Workload:       w.Name,
		Best:           locals[0],
		Survivors:      locals,
		Baselines:      baselines,
		SurrogateEvals: sur.evals,
		FullEvals:      s.full,
	}, nil
}

// evaluator scores one current mask set and its one-bit neighbours for
// greedy: load makes masks current and returns their cost, flipCost
// returns the cost with bank-word bit k toggled in mask j, and accept
// makes that toggle current.
type evaluator interface {
	load(masks []uint32) uint64
	flipCost(j int, k uint) uint64
	accept(j int, k uint)
}

// greedy hill-climbs one mask set to a local optimum: toggle every
// (bank bit, bank-word bit) pair, keep strict improvements, repeat
// until a full pass finds none. Bits scan in ascending order so the
// walk is deterministic.
func (s *searcher) greedy(ev evaluator, start []uint32) ([]uint32, uint64) {
	cur := make([]uint32, len(start))
	copy(cur, start)
	best := ev.load(cur)
	for improved := true; improved; {
		improved = false
		for j := range cur {
			for _, k := range s.varyBit {
				if c := ev.flipCost(j, k); c < best {
					ev.accept(j, k)
					cur[j] ^= 1 << k
					best, improved = c, true
				}
			}
		}
	}
	return cur, best
}

// fullEval is the evaluator that scores every candidate by full
// cycle-accurate simulation. The first error sticks: later evaluations
// score worst without simulating, and Search reports it.
type fullEval struct {
	s     *searcher
	masks []uint32
	err   error
}

func (f *fullEval) load(masks []uint32) uint64 {
	f.masks = append(f.masks[:0], masks...)
	return f.cycles()
}

func (f *fullEval) flipCost(j int, k uint) uint64 {
	f.masks[j] ^= 1 << k
	c := f.cycles()
	f.masks[j] ^= 1 << k
	return c
}

func (f *fullEval) accept(j int, k uint) { f.masks[j] ^= 1 << k }

func (f *fullEval) cycles() uint64 {
	if f.err != nil {
		return ^uint64(0)
	}
	c, err := f.s.fullCycles(addrmap.MustTuned(f.s.o.Channels, f.s.o.Banks, f.masks))
	if err != nil {
		f.err = err
		return ^uint64(0)
	}
	return c
}

// newSystem builds the cycle-accurate PVA SDRAM system under a decoder.
func (s *searcher) newSystem(dec addrmap.Decoder) (memsys.System, error) {
	cfg := pvaunit.PaperConfig()
	cfg.Banks = s.o.Banks
	cfg.LineWords = s.o.LineWords
	cfg.Channels = s.o.Channels
	cfg.Decoder = dec
	return pvaunit.New(cfg)
}

// fullCycles measures the workload's total cycles under a decoder on
// the real simulator. The system warm-starts from the searcher's shared
// cold image and every trace runs from the same post-construction
// checkpoint, mirroring the sweep harness's warm-start discipline.
func (s *searcher) fullCycles(dec addrmap.Decoder) (uint64, error) {
	sys, err := s.newSystem(dec)
	if err != nil {
		return 0, err
	}
	snap := sys.(memsys.ImageSnapshotter)
	snap.RestoreImage(s.baseImg)
	cp := snap.Snapshot()
	var total uint64
	for _, tr := range s.w.Traces {
		res, err := sys.Run(tr)
		if err != nil {
			return 0, fmt.Errorf("autotune: %s under %s: %w", s.w.Name, addrmap.Spec(dec), err)
		}
		total += res.Cycles
		snap.Restore(cp)
	}
	s.fullMu.Lock()
	s.full++
	s.fullMu.Unlock()
	return total, nil
}

// evalAll measures several decoders, serially for Workers == 1,
// otherwise fanned out over the shared engine worker pool. Each
// evaluation is a plain simulation, so pool workers never submit pool
// work — the engine's no-deadlock rule.
// Results land in indexed slots: worker scheduling cannot reorder them.
func (s *searcher) evalAll(decs []addrmap.Decoder) ([]uint64, error) {
	out := make([]uint64, len(decs))
	errs := make([]error, len(decs))
	if s.o.Workers == 1 {
		for i, d := range decs {
			out[i], errs[i] = s.fullCycles(d)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(len(decs))
		for i := range decs {
			i := i
			engine.Go(func() { out[i], errs[i] = s.fullCycles(decs[i]) }, &wg)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// splitmix64 is the search's deterministic pseudo-random stream.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
