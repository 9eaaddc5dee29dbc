package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"pva"
	"pva/internal/addrmap"
	"pva/internal/ckptio"
	"pva/internal/kernels"
	"pva/internal/memsys"
)

// journalElements is the short vector length that lets journal appends
// and replay, not simulation, dominate the op.
const journalElements = 32

// The harness's file names inside a journal directory.
const (
	journalFile = "sweep.journal"
	baseFile    = "base.ckpt"
)

// journaledSweep is a crash-safe sweep: a fresh journaled pass, then a
// resume from a copy of its journal cut after half its records, which
// must reproduce the uninterrupted outcome.
type journaledSweep struct {
	e           *env
	kernelNames []string // the kernels swept; nil sweeps all of them
	opts        pva.SweepOptions
	elements    map[cellKey]uint64
	fresh       *pva.SweepOutcome
	resumed     *pva.SweepOutcome
	half        int
	dirs        []string // the last op's journal directories
}

func setupJournaled(e *env) (workload, error) {
	w := &journaledSweep{
		e: e,
		// One worker, as in paper-sweep: it also fixes the journal's
		// record order, so the cut keeps the same cells every op.
		opts:     pva.SweepOptions{Elements: journalElements, Workers: 1},
		elements: gridElements(journalElements),
	}
	// Warm the process with the same grid, unjournaled: disk time would
	// only add noise to set-up.
	if _, err := pva.ResumableSweep(nil, nil, nil, "", w.opts); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *journaledSweep) pass() int { return 1 }

func (w *journaledSweep) op(i int) (opStats, error) { return w.tracedOp(nil, i) }

func (w *journaledSweep) tracedOp(tr *tracer, _ int) (opStats, error) {
	w.removeDirs()
	dir, err := os.MkdirTemp(w.e.workDir, "journal-")
	if err != nil {
		return opStats{}, err
	}
	cut := dir + "-cut"
	w.dirs = []string{dir, cut}
	id := tr.begin("harness.ResumableSweep")
	fresh, err := pva.ResumableSweep(w.kernelNames, nil, nil, dir, w.opts)
	tr.end(id)
	if err != nil {
		return opStats{}, err
	}
	w.fresh = fresh

	// The cut copy: the same header and the first half of the records,
	// written through the journal API, beside a copy of the checkpoint.
	id = tr.begin("ckptio.ScanJournal")
	info, recs, err := ckptio.ScanJournal(filepath.Join(dir, journalFile))
	tr.end(id)
	if err != nil {
		return opStats{}, err
	}
	w.half = len(recs) / 2
	if err := os.MkdirAll(cut, 0o755); err != nil {
		return opStats{}, err
	}
	j, err := ckptio.CreateJournal(filepath.Join(cut, journalFile), info.ConfigHash, info.CellCount)
	if err != nil {
		return opStats{}, err
	}
	replayed := map[int]bool{}
	for _, r := range recs[:w.half] {
		id := tr.begin("ckptio.Append")
		err := j.Append(r.Kind, r.Payload)
		tr.end(id)
		if err != nil {
			j.Close()
			return opStats{}, err
		}
		var rec struct {
			Index int `json:"index"`
		}
		if err := json.Unmarshal(r.Payload, &rec); err != nil {
			j.Close()
			return opStats{}, err
		}
		replayed[rec.Index] = true
	}
	if err := j.Close(); err != nil {
		return opStats{}, err
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, baseFile))
	if err != nil {
		return opStats{}, err
	}
	if err := os.WriteFile(filepath.Join(cut, baseFile), ckpt, 0o644); err != nil {
		return opStats{}, err
	}

	id = tr.begin("harness.ResumableSweep")
	resumed, err := pva.ResumableSweep(w.kernelNames, nil, nil, cut, w.opts)
	tr.end(id)
	if err != nil {
		return opStats{}, err
	}
	w.resumed = resumed

	// Simulated work: the whole fresh pass plus the resume pass's cells
	// that were not replayed from the journal.
	var st opStats
	for k, p := range fresh.Points {
		n := w.elements[cellKey{p.Kernel, p.Stride, p.Alignment, ""}]
		st.cycles += p.Cycles
		st.elements += n
		if !replayed[k] {
			st.cycles += p.Cycles
			st.elements += n
		}
	}
	return st, nil
}

func (w *journaledSweep) removeDirs() {
	for _, d := range w.dirs {
		os.RemoveAll(d)
	}
	w.dirs = nil
}

// check demands that both passes completed every cell, that the resume
// replayed exactly the kept half, and that its outcome equals the
// uninterrupted one. It removes the op's journal directories.
func (w *journaledSweep) check(acc *layerAcc) error {
	defer w.removeDirs()
	if err := w.fresh.Err(); err != nil {
		return fmt.Errorf("fresh pass: %w", err)
	}
	if err := w.resumed.Err(); err != nil {
		return fmt.Errorf("resume pass: %w", err)
	}
	if w.resumed.Resumed != w.half {
		return fmt.Errorf("resume replayed %d cells, the cut journal kept %d", w.resumed.Resumed, w.half)
	}
	if !reflect.DeepEqual(w.fresh.Points, w.resumed.Points) || !reflect.DeepEqual(w.fresh.Done, w.resumed.Done) {
		return fmt.Errorf("resumed outcome differs from the uninterrupted one")
	}
	if acc != nil {
		for _, p := range w.fresh.Points {
			if p.System == pva.PVASDRAM {
				acc.addPVA(memsys.Result{Cycles: p.Cycles, Stats: p.Stats}, 1)
			}
		}
		acc.ops++
	}
	return nil
}

func (w *journaledSweep) finish() (map[string]float64, error) {
	var total uint64
	for _, p := range w.fresh.Points {
		total += p.Cycles
	}
	return map[string]float64{"sim.cycles_total": float64(total)}, nil
}

func (w *journaledSweep) material() *material {
	var traces []memsys.Trace
	for _, k := range kernels.All() {
		for _, s := range pva.PaperStrides() {
			p := kernels.PaperParams(s, 0)
			p.Elements = journalElements
			traces = append(traces, k.Build(p))
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
