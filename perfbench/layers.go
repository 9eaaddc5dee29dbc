package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pva"
	"pva/internal/addrmap"
	"pva/internal/bankctl"
	"pva/internal/bus"
	"pva/internal/ckptio"
	"pva/internal/core"
	"pva/internal/dramtech"
	"pva/internal/kernels"
	"pva/internal/memsys"
	"pva/internal/pvaunit"
)

// material is a workload's own data for the per-layer probes: its PVA
// configuration, representative traces and decoders. Every probe runs on
// every workload, so a layer that a workload bypasses still reads a value
// there — the value that should stay flat.
type material struct {
	cfg    pva.Config
	traces []memsys.Trace
	search []memsys.Trace  // one autotune full evaluation: a kernel at the paper strides
	dec    addrmap.Decoder // the workload's decoder
	tuned  addrmap.Decoder // a tuned XOR-mask decoder (the winner on autotune-ladder)
}

// layerAcc accumulates layer counts from the traced ops' own results.
type layerAcc struct {
	ops       int
	stats     memsys.Stats
	cycles    uint64
	busCycles uint64 // Σ cycles × channels: the bus-cycle denominator
	// the autotune ladder's evaluations, summed over the searches checked
	surrogateEvals, fullEvals int
}

func newLayerAcc() *layerAcc { return &layerAcc{} }

// addPVA folds one PVA result into the counts. A nil acc ignores it.
func (a *layerAcc) addPVA(res memsys.Result, channels uint32) {
	if a == nil {
		return
	}
	a.stats.Merge(res.Stats)
	a.cycles += res.Cycles
	a.busCycles += res.Cycles * uint64(channels)
}

// metrics derives the device, bank-controller and bus counts per op.
func (a *layerAcc) metrics() map[string]float64 {
	s, ops := a.stats, float64(a.ops)
	if ops == 0 {
		ops = 1
	}
	return map[string]float64{
		"bankctl.row_hit_ratio":       ratio(s.RowHits, s.SDRAMReads+s.SDRAMWrites),
		"sdram.activates":             float64(s.Activates) / ops,
		"sdram.row_conflicts":         float64(s.RowConflicts) / ops,
		"sdram.read_latency_per_read": ratio(s.ReadLatencyCycles, s.SDRAMReads),
		"bus.busy_ratio":              ratio(s.BusBusyCycles, a.busCycles),
		"bus.turnaround_ratio":        ratio(s.TurnaroundCycles, a.busCycles),
		"bus.index_share":             ratio(s.IndexBusCycles, s.BusBusyCycles),
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perCall times fn, which performs n calls per invocation, until at
// least minDur has passed, and returns the mean ns per call.
func perCall(minDur time.Duration, n int, fn func()) float64 {
	var calls int
	t0 := time.Now()
	for calls == 0 || time.Since(t0) < minDur {
		fn()
		calls += n
	}
	return float64(time.Since(t0)) / float64(calls)
}

const probeMin = 40 * time.Millisecond

// probeSink keeps the probed calls' results live.
var probeSink uint32

// runProbes runs every per-layer probe over the workload's material. Each
// per-layer metric is measured here and only here, except the device, bus
// and autotune counts, which come from the workload's own ops
// (layerAcc.metrics, searchMetrics).
func runProbes(m *material, e *env) (map[string]float64, map[string]string, error) {
	out := map[string]float64{}
	notes := map[string]string{}
	var strided, all []memsys.VectorCmd
	var addrs []uint32
	for _, tr := range m.traces {
		for _, c := range tr.Cmds {
			all = append(all, c)
			if !c.Indexed() {
				strided = append(strided, c)
			}
		}
		for _, cmd := range kernels.CaptureAddresses(tr).Cmds {
			addrs = append(addrs, cmd...)
		}
	}

	// harness: the warm-start cell loop (Restore, then Run) over the
	// workload's traces; its results are the ckptio probe's records.
	sys, err := pva.NewSystem(m.cfg)
	if err != nil {
		return nil, nil, err
	}
	snap := sys.(memsys.Snapshotter)
	cp := snap.Snapshot()
	var restoreNs, runNs, cellNs int64
	var cycles uint64
	var records [][]byte
	for i, tr := range m.traces {
		t0 := time.Now()
		if err := snap.Restore(cp); err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		res, err := sys.Run(tr)
		if err != nil {
			return nil, nil, err
		}
		t2 := time.Now()
		restoreNs += int64(t1.Sub(t0))
		runNs += int64(t2.Sub(t1))
		cellNs += int64(t2.Sub(t0))
		cycles += res.Cycles
		rec, err := json.Marshal(struct {
			Index  int          `json:"index"`
			Cycles uint64       `json:"cycles"`
			Stats  memsys.Stats `json:"stats"`
		}{i, res.Cycles, res.Stats})
		if err != nil {
			return nil, nil, err
		}
		records = append(records, rec)
	}
	out["harness.restore_us"] = float64(restoreNs) / 1e3 / float64(len(m.traces))
	out["harness.run_share"] = float64(runNs) / float64(cellNs)
	out["pvaunit.run_ns_per_cycle"] = float64(runNs) / float64(cycles)
	image := sys.(memsys.ImageSnapshotter).MemoryImage()

	// kernels: Build of the 8 paper kernels at the paper strides.
	builds := 0
	out["kernels.build_us"] = perCall(probeMin, len(kernels.All())*len(pva.PaperStrides()), func() {
		for _, k := range kernels.All() {
			for _, s := range pva.PaperStrides() {
				builds += len(k.Build(kernels.PaperParams(s, 0)).Cmds)
			}
		}
	}) / 1e3

	if err := probeSession(m, out); err != nil {
		return nil, nil, err
	}
	if err := probeEngine(m, out, notes); err != nil {
		return nil, nil, err
	}
	if err := probeBaseline(m, out); err != nil {
		return nil, nil, err
	}
	if err := probeBankctl(m, all, out); err != nil {
		return nil, nil, err
	}

	// core: closed-form SubVector per (vector, bank) at the paper machine.
	g := core.MustGeometry(16)
	var sink uint32
	if len(strided) > 0 {
		out["core.subvector_ns"] = perCall(probeMin, len(strided)*16, func() {
			for _, c := range strided {
				for b := uint32(0); b < 16; b++ {
					sink += g.SubVector(c.V, b).Count
				}
			}
		})
	}

	// addrmap: Decode over the captured addresses, AppendSplit per command.
	decoders := map[string]addrmap.Decoder{"tuned": m.tuned}
	for _, name := range []string{"word", "xor"} {
		d, err := addrmap.Parse(name, m.dec.Channels(), m.dec.Banks(), 32)
		if err != nil {
			return nil, nil, err
		}
		decoders[name] = d
	}
	for name, d := range decoders {
		out["addrmap.decode_ns."+name] = perCall(probeMin, len(addrs), func() {
			for _, a := range addrs {
				sink += d.Decode(a).Bank
			}
		})
	}
	var hits []core.Hit
	if len(strided) > 0 {
		out["addrmap.split_ns"] = perCall(probeMin, len(strided), func() {
			for _, c := range strided {
				hits = addrmap.AppendSplit(hits[:0], m.dec, c.V)
			}
		})
	}

	out["dramtech.access_ns"] = probeDramtech(m.dec, addrs)

	// memsys: the copy-on-write store, per word and per Restore.
	st := memsys.NewStore()
	out["memsys.store_write_ns"] = perCall(probeMin, len(addrs), func() {
		for i, a := range addrs {
			st.Write(a, uint32(i))
		}
	})
	out["memsys.store_read_ns"] = perCall(probeMin, len(addrs), func() {
		for _, a := range addrs {
			sink += st.Read(a)
		}
	})
	img := st.Snapshot()
	out["memsys.restore_ns"] = perCall(probeMin, 1, func() {
		st.Write(addrs[0], sink)
		st.Restore(img)
	})

	if err := probeCkptio(e, image, records, out); err != nil {
		return nil, nil, err
	}
	if out["autotune.full_eval_ms"], err = fullEvalMs(m.cfg, m.search); err != nil {
		return nil, nil, err
	}
	if out["harness.replayed_cells"], err = probeResume(e); err != nil {
		return nil, nil, err
	}
	notes["core.subvector_ns"] = fmt.Sprintf("%d strided commands x 16 banks", len(strided))
	notes["addrmap.decode_ns.tuned"] = addrmap.Spec(m.tuned)
	notes["kernels.build_us"] = fmt.Sprintf("%d commands built", builds)
	probeSink = sink
	return out, notes, nil
}

// probeSession streams each trace through a Session on a warm System:
// Issue (with the backpressure pump), Queued sampled at each Issue, and
// Wait per ticket, plus the bytes allocated per Session run.
func probeSession(m *material, out map[string]float64) error {
	s, err := pva.NewSystem(m.cfg)
	if err != nil {
		return err
	}
	ps := s.(*pvaunit.System)
	var issueNs, waitNs time.Duration
	var issues, waits, queued int
	tickets := []pva.Ticket{}
	var allocs uint64
	for pass := 0; pass < 2; pass++ { // pass 0 warms the pools
		issueNs, waitNs, issues, waits, queued = 0, 0, 0, 0, 0
		a0 := allocatedBytes()
		for _, tr := range m.traces {
			ses, err := ps.Open()
			if err != nil {
				return err
			}
			tickets = tickets[:0]
			for _, c := range tr.Cmds {
				t0 := time.Now()
				t, err := ses.Issue(c)
				issueNs += time.Since(t0)
				if err != nil {
					return err
				}
				queued += ses.Queued()
				issues++
				tickets = append(tickets, t)
			}
			for _, t := range tickets {
				t0 := time.Now()
				if _, err := ses.Wait(t); err != nil {
					return err
				}
				waitNs += time.Since(t0)
				waits++
			}
			if _, err := ses.Result(); err != nil {
				return err
			}
		}
		allocs = allocatedBytes() - a0
	}
	out["pvaunit.issue_us"] = float64(issueNs) / 1e3 / float64(issues)
	out["pvaunit.wait_us"] = float64(waitNs) / 1e3 / float64(waits)
	out["pvaunit.queued_mean"] = float64(queued) / float64(issues)
	out["pvaunit.alloc_bytes_per_run"] = float64(allocs) / float64(len(m.traces))
	return nil
}

// runPass runs every trace once on sys and returns host ns and cycles.
func runPass(sys pva.System, traces []memsys.Trace) (time.Duration, uint64, error) {
	var cycles uint64
	t0 := time.Now()
	for _, tr := range traces {
		res, err := sys.Run(tr)
		if err != nil {
			return 0, 0, err
		}
		cycles += res.Cycles
	}
	return time.Since(t0), cycles, nil
}

// nsPerCycle is the median over three warm passes of host ns per
// simulated cycle.
func nsPerCycle(sys pva.System, traces []memsys.Trace) (float64, error) {
	if _, _, err := runPass(sys, traces); err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < 3; i++ {
		d, c, err := runPass(sys, traces)
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(d)/float64(c))
	}
	return median(xs), nil
}

// probeEngine runs the same traces with idle-cycle skipping on and off.
func probeEngine(m *material, out map[string]float64, notes map[string]string) error {
	strict := m.cfg
	strict.DisableIdleSkip = true
	vals := map[string]float64{}
	for name, cfg := range map[string]pva.Config{"skip": m.cfg, "strict": strict} {
		sys, err := pva.NewSystem(cfg)
		if err != nil {
			return err
		}
		v, err := nsPerCycle(sys, m.traces)
		if err != nil {
			return err
		}
		vals[name] = v
	}
	out["engine.ns_per_cycle_skip"] = vals["skip"]
	out["engine.ns_per_cycle_strict"] = vals["strict"]
	out["engine.skip_gain"] = vals["strict"] / vals["skip"]
	notes["engine.skip_gain"] = "strict / skip ns per cycle on the same traces"
	return nil
}

// probeBaseline runs the traces on the two serial systems.
func probeBaseline(m *material, out map[string]float64) error {
	var ns time.Duration
	var cycles uint64
	for _, sys := range []pva.System{pva.NewCacheLineSerial(), pva.NewGatheringSerial()} {
		if _, _, err := runPass(sys, m.traces); err != nil {
			return err
		}
		d, c, err := runPass(sys, m.traces)
		if err != nil {
			return err
		}
		ns += d
		cycles += c
	}
	out["baseline.run_ns_per_cycle"] = float64(ns) / float64(cycles)
	return nil
}

// probeBankctl drives the 16 bank controllers of channel 0 directly
// (bankctl.New / ObserveCommand / Tick) with the workload's commands, one
// transaction at a time, under the workload's decoder.
func probeBankctl(m *material, cmds []memsys.VectorCmd, out map[string]float64) error {
	const banks = 16
	store := memsys.NewStore()
	board := bus.NewBoard(banks)
	bcs := make([]*bankctl.BC, banks)
	_, closedForm := m.dec.(addrmap.HitMath)
	for b := range bcs {
		cfg := bankctl.PaperConfig(uint32(b))
		if !closedForm || m.dec.Channels() > 1 {
			cfg.View = addrmap.BankView{D: m.dec, Channel: 0, Bank: uint32(b)}
		}
		bcs[b] = bankctl.New(cfg, store, board)
	}
	var observeNs, tickNs time.Duration
	var observes, ticks int
	line := make([]uint32, 0, 64)
	for _, c := range cmds {
		txn, ok := board.Alloc()
		if !ok {
			return fmt.Errorf("bankctl probe: no free transaction")
		}
		board.Open(txn)
		if cap(line) < int(c.V.Length) {
			line = make([]uint32, 0, c.V.Length)
		}
		line = line[:c.V.Length]
		if c.Op == memsys.Write {
			if c.Data != nil {
				copy(line, c.Data)
			}
			for _, bc := range bcs {
				bc.StageWriteData(txn, line)
			}
		}
		t0 := time.Now()
		for _, bc := range bcs {
			if c.Indexed() {
				bc.ObserveIndexed(c.Op, c.V, c.Idx, txn)
			} else {
				bc.ObserveCommand(c.Op, c.V, txn)
			}
		}
		observeNs += time.Since(t0)
		observes += banks
		t0 = time.Now()
		for n := 0; !board.AllDone(txn); n++ {
			if n > 1<<20 {
				return fmt.Errorf("bankctl probe: transaction never completed")
			}
			for _, bc := range bcs {
				if err := bc.Tick(); err != nil {
					return err
				}
			}
			ticks += banks
		}
		tickNs += time.Since(t0)
		if c.Op == memsys.Read {
			for _, bc := range bcs {
				bc.CollectRead(txn, line)
			}
		}
		for _, bc := range bcs {
			bc.Release(txn)
		}
		board.Release(txn)
	}
	out["bankctl.observe_ns"] = float64(observeNs) / float64(observes)
	out["bankctl.tick_ns"] = float64(tickNs) / float64(ticks)
	return nil
}

// probeDramtech replays the addresses' (bank, internal bank, row)
// sequence through dramtech.Model legality checks and transitions, one
// model per (channel, bank), opening and closing rows as a controller
// would.
func probeDramtech(dec addrmap.Decoder, addrs []uint32) float64 {
	cfg := pvaunit.PaperConfig()
	sg := cfg.SGeom
	models := make([]*dramtech.Model, dec.Channels()*dec.Banks())
	for i := range models {
		models[i] = dramtech.NewModel(dramtech.Spec{}, sg.InternalBanks, cfg.Timing.TRCD, cfg.Timing.TRP, 0)
	}
	return perCall(probeMin, len(addrs), func() {
		var cycle uint64
		for _, mdl := range models {
			mdl.Reset()
		}
		for i, a := range addrs {
			c := dec.Decode(a)
			sc := sg.Decompose(c.BankWord)
			mdl := models[c.Channel*dec.Banks()+c.Bank]
			for done := false; !done; {
				cycle++
				r := mdl.CanAccess(sc.IBank, sc.Row, cycle)
				switch r.Code {
				case dramtech.RefusalNone:
					mdl.Access(sc.IBank, sc.Row, i%4 == 3, false, cycle)
					done = true
				case dramtech.RefusalBusy:
					cycle = r.ReadyAt - 1
				case dramtech.RefusalUnitClosed:
					if ra := mdl.CanActivate(sc.IBank, sc.Row, cycle); ra.Code == dramtech.RefusalNone {
						mdl.Activate(sc.IBank, sc.Row, cycle)
					} else if ra.Code == dramtech.RefusalBusy {
						cycle = ra.ReadyAt - 1
					}
				case dramtech.RefusalRowMismatch:
					if rp := mdl.CanPrecharge(sc.IBank, sc.Row, cycle); rp.Code == dramtech.RefusalNone {
						mdl.Precharge(sc.IBank, sc.Row, cycle)
					} else if rp.Code == dramtech.RefusalBusy {
						cycle = rp.ReadyAt - 1
					}
				}
			}
		}
	})
}

// probeCkptio encodes the workload's memory image, appends its result
// records to a fresh journal with fsync, and scans the journal back.
func probeCkptio(e *env, img *memsys.Image, records [][]byte, out map[string]float64) error {
	var buf bytes.Buffer
	var encErr error
	out["ckptio.encode_us"] = perCall(probeMin, 1, func() {
		buf.Reset()
		if err := ckptio.Encode(&buf, ckptio.Checkpoint{ConfigHash: 1, Image: img}); err != nil {
			encErr = err
		}
	}) / 1e3
	if encErr != nil {
		return encErr
	}
	if len(records) > 256 {
		records = records[:256]
	}
	path := filepath.Join(e.workDir, "probe.journal")
	os.Remove(path)
	j, err := ckptio.CreateJournal(path, 1, uint32(len(records)))
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, r := range records {
		if err := j.Append(1, r); err != nil {
			j.Close()
			return err
		}
	}
	out["ckptio.append_us"] = float64(time.Since(t0)) / 1e3 / float64(len(records))
	if err := j.Close(); err != nil {
		return err
	}
	var scanErr error
	out["ckptio.scan_ms"] = perCall(probeMin, 1, func() {
		_, recs, err := ckptio.ScanJournal(path)
		if err == nil && len(recs) != len(records) {
			err = fmt.Errorf("ckptio probe: scanned %d records, appended %d", len(recs), len(records))
		}
		if err != nil {
			scanErr = err
		}
	}) / 1e6
	return scanErr
}

// probeResume runs a journaled sweep of the first paper kernel at the
// journaled sweep's short vector length, resumes it from a copy of its
// journal cut after half its records, checks the resumed outcome, and
// returns the cells the resume replayed from the journal.
func probeResume(e *env) (float64, error) {
	w := &journaledSweep{
		e:           e,
		kernelNames: []string{kernels.All()[0].Name},
		opts:        pva.SweepOptions{Elements: journalElements, Workers: 1},
		elements:    gridElements(journalElements),
	}
	if _, err := w.tracedOp(nil, 0); err != nil {
		w.removeDirs()
		return 0, err
	}
	if err := w.check(nil); err != nil {
		return 0, err
	}
	return float64(w.resumed.Resumed), nil
}

// fullEvalMs is one autotune full-simulation evaluation re-run from
// outside: cfg's decoder over the traces on a warm clone, rewound between
// traces, in ms.
func fullEvalMs(cfg pva.Config, traces []memsys.Trace) (float64, error) {
	s, err := pva.NewSystem(cfg)
	if err != nil {
		return 0, err
	}
	proto := s.(*pvaunit.System)
	if _, _, err := runPass(proto, traces); err != nil {
		return 0, err
	}
	clone := proto.Clone()
	cp := clone.Snapshot()
	var runErr error
	ms := perCall(probeMin, 1, func() {
		for _, tr := range traces {
			if _, err := clone.Run(tr); err != nil {
				runErr = err
			}
			if err := clone.Restore(cp); err != nil {
				runErr = err
			}
		}
	}) / 1e6
	return ms, runErr
}
