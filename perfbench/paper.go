package main

import (
	"encoding/json"
	"fmt"
	"os"

	"pva"
	"pva/internal/addrmap"
	"pva/internal/harness"
	"pva/internal/kernels"
	"pva/internal/memsys"
)

// cellKey names one cell of the paper grid.
type cellKey struct {
	Kernel string
	Stride uint32
	Align  int
	System string
}

// loadGolden reads the 960-point seed golden (cycles per cell at 1024
// elements, default configuration).
func loadGolden(path string) (map[cellKey]uint64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []struct {
		Kernel string `json:"kernel"`
		Stride uint32 `json:"stride"`
		Align  int    `json:"align"`
		System string `json:"system"`
		Cycles uint64 `json:"cycles"`
	}
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	g := make(map[cellKey]uint64, len(rows))
	for _, r := range rows {
		g[cellKey{r.Kernel, r.Stride, r.Align, r.System}] = r.Cycles
	}
	return g, nil
}

// elementsOf counts the vector elements a trace moves.
func elementsOf(tr memsys.Trace) uint64 {
	var n uint64
	for _, c := range tr.Cmds {
		n += uint64(c.V.Length)
	}
	return n
}

// gridElements maps (kernel, stride, alignment) to the elements one cell
// moves at the given vector length, for the paper kernels and strides.
func gridElements(elements uint32) map[cellKey]uint64 {
	out := map[cellKey]uint64{}
	for _, k := range kernels.All() {
		for _, s := range pva.PaperStrides() {
			for a := 0; a < pva.AlignmentCount; a++ {
				p := kernels.PaperParams(s, a)
				p.Elements = elements
				out[cellKey{k.Name, s, a, ""}] = elementsOf(k.Build(p))
			}
		}
	}
	return out
}

// paperSweep is the paper's full evaluation grid through
// pva.SweepWithOptions, checked cell by cell against the seed golden.
type paperSweep struct {
	golden   map[cellKey]uint64
	elements map[cellKey]uint64
	systems  []paperSystem
	last     []pva.SweepPoint
}

// paperSystem is one of the four systems of the traced cell loop, with
// its post-construction checkpoint.
type paperSystem struct {
	kind pva.SystemKind
	sys  memsys.Snapshotter
	cold memsys.Checkpoint
}

func setupPaperSweep(e *env) (workload, error) {
	g, err := loadGolden(e.golden)
	if err != nil {
		return nil, err
	}
	w := &paperSweep{golden: g, elements: gridElements(1024)}
	for _, k := range []pva.SystemKind{pva.PVASDRAM, pva.CacheLineSerial, pva.GatheringSerial, pva.PVASRAM} {
		var sys pva.System
		switch k {
		case pva.PVASDRAM:
			sys, err = pva.NewSystem(pva.DefaultConfig())
		case pva.PVASRAM:
			sys, err = pva.NewSRAMSystem(pva.DefaultConfig())
		case pva.CacheLineSerial:
			sys = pva.NewCacheLineSerial()
		default:
			sys = pva.NewGatheringSerial()
		}
		if err != nil {
			return nil, err
		}
		snap := sys.(memsys.Snapshotter)
		w.systems = append(w.systems, paperSystem{kind: k, sys: snap, cold: snap.Snapshot()})
	}
	// Warm the process: one full sweep, checked like every timed one.
	if _, err := w.op(0); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *paperSweep) pass() int { return 1 }

// op is one full sweep on one worker. With a worker per CPU the sweep
// shares every CPU with the garbage collector and op times swing between
// runs far more than the host's own drift; one worker leaves the GC a CPU.
func (w *paperSweep) op(int) (opStats, error) {
	pts, err := pva.SweepWithOptions(nil, nil, nil, pva.SweepOptions{Workers: 1})
	w.last = pts
	return w.stats(pts), err
}

func (w *paperSweep) stats(pts []pva.SweepPoint) opStats {
	var st opStats
	for _, p := range pts {
		st.cycles += p.Cycles
		st.elements += w.elements[cellKey{p.Kernel, p.Stride, p.Alignment, ""}]
	}
	return st
}

// tracedOp walks the same 960 cells one by one the way the harness's
// warm-start runner does: build the kernel trace, restore the system to
// its post-construction checkpoint, run.
func (w *paperSweep) tracedOp(tr *tracer, _ int) (opStats, error) {
	pts := make([]pva.SweepPoint, 0, len(w.golden))
	for _, k := range kernels.All() {
		for _, s := range pva.PaperStrides() {
			for a := 0; a < pva.AlignmentCount; a++ {
				for _, ps := range w.systems {
					cell := tr.begin("harness.cell")
					id := tr.begin("kernels.Build")
					trace := k.Build(kernels.PaperParams(s, a))
					tr.end(id)
					id = tr.begin("harness.restore")
					err := ps.sys.Restore(ps.cold)
					tr.end(id)
					if err != nil {
						return opStats{}, err
					}
					name := "baseline.Run"
					if ps.kind == pva.PVASDRAM || ps.kind == pva.PVASRAM {
						name = "pvaunit.Run"
					}
					id = tr.begin(name)
					res, err := ps.sys.Run(trace)
					tr.end(id)
					tr.end(cell)
					if err != nil {
						return opStats{}, err
					}
					pts = append(pts, pva.SweepPoint{Kernel: k.Name, Stride: s, Alignment: a, System: ps.kind, Cycles: res.Cycles, Stats: res.Stats})
				}
			}
		}
	}
	w.last = pts
	return w.stats(pts), nil
}

// check compares every cell of the last sweep with the golden.
func (w *paperSweep) check(acc *layerAcc) error {
	if len(w.last) != len(w.golden) {
		return fmt.Errorf("sweep produced %d cells, golden has %d", len(w.last), len(w.golden))
	}
	bad := 0
	var first string
	for _, p := range w.last {
		want, ok := w.golden[cellKey{p.Kernel, p.Stride, p.Alignment, p.System.String()}]
		if !ok || want != p.Cycles {
			if bad == 0 {
				first = fmt.Sprintf("%s stride %d align %d on %s: %d cycles, golden %d",
					p.Kernel, p.Stride, p.Alignment, p.System, p.Cycles, want)
			}
			bad++
		}
		if acc != nil && p.System == pva.PVASDRAM {
			acc.addPVA(memsys.Result{Cycles: p.Cycles, Stats: p.Stats}, 1)
		}
	}
	if acc != nil {
		acc.ops++
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d cells differ from the golden; first: %s", bad, len(w.last), first)
	}
	return nil
}

func (w *paperSweep) finish() (map[string]float64, error) {
	h := harness.Headlines(harness.Collate(w.last))
	return map[string]float64{
		"sim.cycles_total":         float64(w.stats(w.last).cycles),
		"sim.speedup_vs_cacheline": h.MaxVsCacheLine,
		"sim.speedup_vs_gathering": h.MaxVsGathering,
	}, nil
}

func (w *paperSweep) material() *material {
	var traces []memsys.Trace
	for _, k := range kernels.All() {
		for _, s := range pva.PaperStrides() {
			traces = append(traces, k.Build(kernels.PaperParams(s, 0)))
		}
	}
	return &material{
		cfg:    pva.DefaultConfig(),
		traces: traces,
		search: traces[:len(pva.PaperStrides())],
		dec:    addrmap.MustWordInterleave(1, 16),
		tuned:  addrmap.MustTuned(1, 16, addrmap.XORFoldMasks(1, 16)),
	}
}
