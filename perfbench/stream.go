package main

import (
	"fmt"
	"sort"

	"pva"
	"pva/internal/addrmap"
	"pva/internal/memsys"
	"pva/internal/pvaunit"
)

// Stream mix shape: mixSessions Sessions of mixCmds commands each make
// one pass. mixCmds is well above the eight transaction IDs, so Issue
// applies backpressure; all addresses stay in a 1 Mi-word region so
// reads, writes, gathers and scatters overlap across commands and
// Sessions.
const (
	mixSessions = 32
	mixCmds     = 64
	mixRegion   = 1 << 20
	mixIdxSpan  = 1 << 16
)

var mixStrides = []uint32{1, 2, 3, 4, 8, 16, 19, 32, 33}

// splitmix64 is the benchmark's seeded generator; the same seed gives the
// same mix on every platform and Go version.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// genMix returns the seeded command mix: mixSessions traces of mixCmds
// commands, 40% strided reads, 25% strided writes with preset Data, 20%
// indexed gathers and 15% indexed scatters.
func genMix(seed uint64) []memsys.Trace {
	s := seed
	rnd := func(n uint64) uint32 { return uint32(splitmix64(&s) % n) }
	mix := make([]memsys.Trace, mixSessions)
	for i := range mix {
		cmds := make([]memsys.VectorCmd, mixCmds)
		for j := range cmds {
			kind := rnd(100)
			length := 8 + rnd(25)
			c := memsys.VectorCmd{Op: memsys.Read}
			if kind >= 40 && kind < 65 || kind >= 85 {
				c.Op = memsys.Write
				c.Data = make([]uint32, length)
				for k := range c.Data {
					c.Data[k] = uint32(splitmix64(&s))
				}
			}
			if kind < 65 {
				stride := mixStrides[rnd(uint64(len(mixStrides)))]
				c.V = pva.Vector{Base: rnd(mixRegion - 33*32), Stride: stride, Length: length}
			} else {
				c.V = pva.Vector{Base: rnd(mixRegion - mixIdxSpan), Length: length}
				c.Idx = make([]uint32, length)
				for k := range c.Idx {
					c.Idx[k] = rnd(mixIdxSpan)
				}
			}
			cmds[j] = c
		}
		mix[i] = memsys.Trace{Cmds: cmds}
	}
	return mix
}

// streamMixed is one client driving Sessions on a reused, warm
// 2-channel xor System in a closed loop.
type streamMixed struct {
	cfg     pva.Config
	sys     *pvaunit.System
	mix     []memsys.Trace
	want    [][][]uint32 // expected read lines per Session in steady state
	ref     memsys.System
	tickets []pva.Ticket
	lat     [][]uint64 // accept→retire cycles per command, per Session
	cycles  []uint64   // cycles per Session
	lastI   int
	lastRes memsys.Result
}

func streamConfig() pva.Config {
	c := pva.DefaultConfig()
	c.Channels = 2
	c.AddrMap = "xor"
	// A stalled Session fails after this many quiet cycles instead of
	// running to the engine's 50M-cycle limit; it never changes cycles.
	c.WatchdogCycles = 100000
	return c
}

// setupStream builds the System, generates the mix, and runs two
// untimed passes: pass 0 warms the pools and is checked against a
// reference replay from cold memory; the reference's pass 1 gives the
// expected lines of every later pass, since preset writes leave memory
// the same after each full pass.
func setupStream(e *env) (workload, error) {
	w := &streamMixed{cfg: streamConfig(), mix: genMix(e.seed), ref: pva.Reference()}
	s, err := pva.NewSystem(w.cfg)
	if err != nil {
		return nil, err
	}
	w.sys = s.(*pvaunit.System)
	w.lat = make([][]uint64, len(w.mix))
	for i := range w.lat {
		w.lat[i] = make([]uint64, mixCmds)
	}
	w.cycles = make([]uint64, len(w.mix))
	w.tickets = make([]pva.Ticket, 0, mixCmds)
	for pass := 0; pass < 2; pass++ {
		want := make([][][]uint32, len(w.mix))
		for i, tr := range w.mix {
			res, err := w.ref.Run(tr)
			if err != nil {
				return nil, err
			}
			want[i] = copyLines(res.ReadData)
		}
		w.want = want
		if pass == 1 {
			break
		}
		for i := range w.mix {
			if _, err := w.op(i); err != nil {
				return nil, err
			}
			if err := w.check(nil); err != nil {
				return nil, fmt.Errorf("warm pass: %w", err)
			}
		}
	}
	return w, nil
}

func copyLines(lines [][]uint32) [][]uint32 {
	out := make([][]uint32, len(lines))
	for i, l := range lines {
		out[i] = append([]uint32(nil), l...)
	}
	return out
}

func (w *streamMixed) pass() int { return len(w.mix) }

func (w *streamMixed) op(i int) (opStats, error) { return w.tracedOp(nil, i) }

// tracedOp is one Session: Open, Issue every command, Wait on every
// ticket, Result.
func (w *streamMixed) tracedOp(tr *tracer, i int) (opStats, error) {
	i %= len(w.mix)
	w.lastI = i
	id := tr.begin("pvaunit.Open")
	ses, err := w.sys.Open()
	tr.end(id)
	if err != nil {
		return opStats{}, err
	}
	w.tickets = w.tickets[:0]
	var elems uint64
	for _, c := range w.mix[i].Cmds {
		id := tr.begin("pvaunit.Issue")
		t, err := ses.Issue(c)
		tr.end(id)
		if err != nil {
			return opStats{}, err
		}
		w.tickets = append(w.tickets, t)
		elems += uint64(c.V.Length)
	}
	for j, t := range w.tickets {
		id := tr.begin("pvaunit.Wait")
		info, err := ses.Wait(t)
		tr.end(id)
		if err != nil {
			return opStats{}, err
		}
		w.lat[i][j] = info.CompletedAt - info.AcceptedAt
	}
	id = tr.begin("pvaunit.Result")
	res, err := ses.Result()
	tr.end(id)
	if err != nil {
		return opStats{}, err
	}
	w.lastRes = res
	w.cycles[i] = res.Cycles
	return opStats{cycles: res.Cycles, elements: elems}, nil
}

// check compares every gathered line of the last Session with the
// reference replay.
func (w *streamMixed) check(acc *layerAcc) error {
	want := w.want[w.lastI]
	for j, c := range w.mix[w.lastI].Cmds {
		if c.Op != memsys.Read {
			continue
		}
		got := w.lastRes.ReadData[j]
		if len(got) != len(want[j]) {
			return fmt.Errorf("session %d cmd %d: %d words, want %d", w.lastI, j, len(got), len(want[j]))
		}
		for k := range got {
			if got[k] != want[j][k] {
				return fmt.Errorf("session %d cmd %d word %d: got %#x, want %#x", w.lastI, j, k, got[k], want[j][k])
			}
		}
	}
	if acc != nil {
		acc.addPVA(w.lastRes, w.cfg.Channels)
		acc.ops++
	}
	return nil
}

// finish compares the final memory image with the reference's at every
// address the mix touches. Runs stop at pass boundaries, so both have
// applied the same writes last.
func (w *streamMixed) finish() (map[string]float64, error) {
	for _, tr := range w.mix {
		for _, c := range tr.Cmds {
			for k := uint32(0); k < c.V.Length; k++ {
				a := c.Addr(k)
				if g, r := w.sys.Peek(a), w.ref.Peek(a); g != r {
					return nil, fmt.Errorf("final image at %d: got %#x, want %#x", a, g, r)
				}
			}
		}
	}
	var all []float64
	var total uint64
	for i := range w.lat {
		for _, l := range w.lat[i] {
			all = append(all, float64(l))
		}
		total += w.cycles[i]
	}
	sort.Float64s(all)
	return map[string]float64{
		"sim.cycles_total":       float64(total),
		"sim.latency_p50_cycles": quantile(all, 0.50),
		"sim.latency_p99_cycles": quantile(all, 0.99),
	}, nil
}

func (w *streamMixed) material() *material {
	return &material{
		cfg:    w.cfg,
		traces: w.mix,
		search: w.mix[:len(pva.PaperStrides())],
		dec:    addrmap.MustXORBank(2, 16),
		tuned:  addrmap.MustTuned(2, 16, addrmap.XORFoldMasks(2, 16)),
	}
}
