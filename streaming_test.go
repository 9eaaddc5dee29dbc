package pva

import (
	"testing"

	"pva/internal/harness"
	"pva/internal/kernels"
	"pva/internal/memsys"
	"pva/internal/pvaunit"
)

// streamSystem builds the internal PVA system matching one sweep cell.
func streamSystem(t *testing.T, static bool) *pvaunit.System {
	t.Helper()
	cfg := pvaunit.PaperConfig()
	if static {
		cfg = pvaunit.SRAMConfig()
	}
	s, err := pvaunit.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runSession replays a trace through a streaming Session and returns the
// result plus every ticket's final progress record, so the comparison
// covers per-command issue and retire timestamps, not just totals.
func runSession(sys *pvaunit.System, tr Trace) (memsys.Result, []pvaunit.TicketInfo, error) {
	ses, err := sys.Open()
	if err != nil {
		return memsys.Result{}, nil, err
	}
	tickets := make([]pvaunit.Ticket, len(tr.Cmds))
	for i, c := range tr.Cmds {
		tk, err := ses.Issue(c)
		if err != nil {
			return memsys.Result{}, nil, err
		}
		tickets[i] = tk
	}
	if err := ses.Drain(); err != nil {
		return memsys.Result{}, nil, err
	}
	res, err := ses.Result()
	if err != nil {
		return memsys.Result{}, nil, err
	}
	infos := make([]pvaunit.TicketInfo, len(tickets))
	for i, tk := range tickets {
		info, err := ses.Poll(tk)
		if err != nil {
			return memsys.Result{}, nil, err
		}
		infos[i] = info
	}
	return res, infos, nil
}

// TestStreamingEquivalenceGrid is the metamorphic streaming test over
// the full golden grid: for every kernel x stride x alignment cell of
// the paper sweep, on both PVA systems, issuing the cell's trace one
// command at a time through a Session (with default backpressure) and
// draining must reproduce the batch Run bit for bit — cycles, stats,
// and every gathered word. Combined with TestSeedCycleEquivalence this
// pins the streaming path to the pre-refactor seed cycle counts.
func TestStreamingEquivalenceGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1024-element grid")
	}
	for _, static := range []bool{false, true} {
		for _, k := range kernels.All() {
			for _, stride := range harness.PaperStrides() {
				for a := 0; a < kernels.Alignments; a++ {
					p := kernels.PaperParams(stride, a)
					tr := k.Build(p)
					name := map[bool]string{false: "pva-sdram", true: "pva-sram"}[static]

					batch, err := streamSystem(t, static).Run(tr)
					if err != nil {
						t.Fatalf("%s %s stride=%d align=%d batch: %v", name, k.Name, stride, a, err)
					}
					ses, err := streamSystem(t, static).Open()
					if err != nil {
						t.Fatal(err)
					}
					tickets := make([]pvaunit.Ticket, len(tr.Cmds))
					for i, c := range tr.Cmds {
						tk, err := ses.Issue(c)
						if err != nil {
							t.Fatalf("%s %s stride=%d align=%d issue %d: %v", name, k.Name, stride, a, i, err)
						}
						tickets[i] = tk
					}
					if err := ses.Drain(); err != nil {
						t.Fatalf("%s %s stride=%d align=%d drain: %v", name, k.Name, stride, a, err)
					}
					stream, err := ses.Result()
					if err != nil {
						t.Fatal(err)
					}
					if stream.Cycles != batch.Cycles {
						t.Fatalf("%s %s stride=%d align=%d: stream %d cycles, batch %d",
							name, k.Name, stride, a, stream.Cycles, batch.Cycles)
					}
					if stream.Stats != batch.Stats {
						t.Fatalf("%s %s stride=%d align=%d stats diverge:\nstream %+v\nbatch  %+v",
							name, k.Name, stride, a, stream.Stats, batch.Stats)
					}
					for i := range tr.Cmds {
						if (batch.ReadData[i] == nil) != (stream.ReadData[i] == nil) {
							t.Fatalf("%s %s stride=%d align=%d cmd %d: read-data presence diverges",
								name, k.Name, stride, a, i)
						}
						for j := range batch.ReadData[i] {
							if stream.ReadData[i][j] != batch.ReadData[i][j] {
								t.Fatalf("%s %s stride=%d align=%d cmd %d word %d: stream %#x batch %#x",
									name, k.Name, stride, a, i, j, stream.ReadData[i][j], batch.ReadData[i][j])
							}
						}
					}
					for _, tk := range tickets {
						info, err := ses.Poll(tk)
						if err != nil || !info.Done {
							t.Fatalf("%s %s stride=%d align=%d ticket %d unfinished after drain",
								name, k.Name, stride, a, tk)
						}
					}
				}
			}
		}
	}
}

// TestStreamingQuickPath is the -short variant: one representative cell
// per kernel so the equivalence machinery is exercised on every CI run.
func TestStreamingQuickPath(t *testing.T) {
	for _, k := range kernels.All() {
		p := kernels.PaperParams(19, 2)
		p.Elements = 128
		tr := k.Build(p)
		batch, err := streamSystem(t, false).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		ses, err := streamSystem(t, false).Open()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range tr.Cmds {
			if _, err := ses.Issue(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := ses.Drain(); err != nil {
			t.Fatal(err)
		}
		stream, err := ses.Result()
		if err != nil {
			t.Fatal(err)
		}
		if stream.Cycles != batch.Cycles || stream.Stats != batch.Stats {
			t.Fatalf("%s: stream (%d cycles) diverges from batch (%d cycles)",
				k.Name, stream.Cycles, batch.Cycles)
		}
	}
}

// FuzzStreamingEquivalence drives a Session with a fuzzed interleaving
// of Issue, Poll, and Wait over a fuzzed kernel cell. Poll never
// advances the clock, so interleavings without Wait must stay cycle-
// identical to the batch run; Wait legitimately reorders admission
// against the clock, so for those the test demands data correctness
// (every gathered word equal to the batch gather) and a clean drain.
func FuzzStreamingEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(0), []byte{0x00, 0x01, 0x02})
	f.Add(uint8(3), uint8(19), uint8(4), []byte{0xFF, 0x80, 0x00, 0x40})
	f.Add(uint8(6), uint8(8), uint8(2), []byte{0x11, 0x22, 0x33, 0x44, 0x55})
	// The indexed workloads (gather, scatter, spmv follow the eight
	// strided kernels in the combined list).
	f.Add(uint8(8), uint8(4), uint8(1), []byte{0xC0, 0x80, 0x00})
	f.Add(uint8(10), uint8(2), uint8(3), []byte{0xFF, 0x41})
	f.Fuzz(func(t *testing.T, kIdx, stride, align uint8, plan []byte) {
		ks := append(kernels.All(), kernels.Indexed()...)
		k := ks[int(kIdx)%len(ks)]
		p := kernels.PaperParams(uint32(stride)%24+1, int(align)%kernels.Alignments)
		p.Elements = 128
		tr := k.Build(p)

		batch, err := streamSystem(t, false).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		ses, err := streamSystem(t, false).Open()
		if err != nil {
			t.Fatal(err)
		}
		var tickets []pvaunit.Ticket
		waited := false
		for i, c := range tr.Cmds {
			tk, err := ses.Issue(c)
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
			op := byte(0)
			if len(plan) > 0 {
				op = plan[i%len(plan)]
			}
			switch {
			case op&0xC0 == 0xC0:
				// Wait on a fuzz-chosen earlier ticket: advances the clock.
				waited = true
				target := tickets[int(op&0x3F)%len(tickets)]
				if _, err := ses.Wait(target); err != nil {
					t.Fatal(err)
				}
			case op&0xC0 == 0x80:
				// Poll a fuzz-chosen ticket: never advances the clock.
				target := tickets[int(op&0x3F)%len(tickets)]
				before := ses.Now()
				if _, err := ses.Poll(target); err != nil {
					t.Fatal(err)
				}
				if ses.Now() != before {
					t.Fatalf("Poll advanced the clock %d -> %d", before, ses.Now())
				}
			}
		}
		if err := ses.Drain(); err != nil {
			t.Fatal(err)
		}
		stream, err := ses.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !waited && stream.Cycles != batch.Cycles {
			t.Fatalf("Wait-free interleaving diverges: stream %d cycles, batch %d", stream.Cycles, batch.Cycles)
		}
		if !waited && stream.Stats != batch.Stats {
			t.Fatalf("Wait-free interleaving stats diverge:\nstream %+v\nbatch  %+v", stream.Stats, batch.Stats)
		}
		for i := range tr.Cmds {
			for j := range batch.ReadData[i] {
				if stream.ReadData[i][j] != batch.ReadData[i][j] {
					t.Fatalf("cmd %d word %d: stream %#x batch %#x (waited=%v)",
						i, j, stream.ReadData[i][j], batch.ReadData[i][j], waited)
				}
			}
		}
	})
}

// TestPublicStreamingAPI exercises the package-level Open/Session
// surface end to end, the way the README quickstart does.
func TestPublicStreamingAPI(t *testing.T) {
	ses, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tk, err := ses.Issue(VectorCmd{Op: Read, V: Vector{Base: 0, Stride: 19, Length: 32}})
	if err != nil {
		t.Fatal(err)
	}
	info, err := ses.Wait(tk)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Done || len(info.Data) != 32 {
		t.Fatalf("unexpected ticket info: %+v", info)
	}
	for j, w := range info.Data {
		if want := memsys.Fill(19 * uint32(j)); w != want {
			t.Fatalf("word %d: got %#x want %#x", j, w, want)
		}
	}
	sram, err := OpenSRAM(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sram.Issue(VectorCmd{Op: Read, V: Vector{Base: 0, Stride: 1, Length: 32}}); err != nil {
		t.Fatal(err)
	}
	if err := sram.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := sram.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("SRAM session reported zero cycles")
	}
}
