package pva

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"pva/internal/pvaunit"
)

// seedPoint mirrors one row of testdata/seed_cycles.json: the cycle
// counts of the full paper sweep measured on the single-channel seed
// implementation, before the multi-channel refactor landed.
type seedPoint struct {
	Kernel string `json:"kernel"`
	Stride uint32 `json:"stride"`
	Align  int    `json:"align"`
	System string `json:"system"`
	Cycles uint64 `json:"cycles"`
}

// TestSeedCycleEquivalence replays the full paper sweep (every kernel,
// stride, alignment, and system at 1024 elements) and demands
// bit-identical cycle counts against the golden file captured from the
// pre-refactor single-channel implementation. This is the contract the
// channelized front end must honor: Channels=1 with the default word
// interleave IS the paper's machine, cycle for cycle.
func TestSeedCycleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1024-element sweep")
	}
	raw, err := os.ReadFile("testdata/seed_cycles.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []seedPoint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	points, err := SweepWithOptions(nil, nil, nil, SweepOptions{Elements: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(want) {
		t.Fatalf("sweep produced %d points, golden file has %d", len(points), len(want))
	}
	// Both the golden generator and SweepWithOptions emit the planner's
	// canonical order, so rows pair up index for index.
	for i, w := range want {
		p := points[i]
		if p.Kernel != w.Kernel || p.Stride != w.Stride || p.Alignment != w.Align || p.System.String() != w.System {
			t.Fatalf("row %d: got (%s, %d, %d, %s), golden (%s, %d, %d, %s)",
				i, p.Kernel, p.Stride, p.Alignment, p.System, w.Kernel, w.Stride, w.Align, w.System)
		}
		if p.Cycles != w.Cycles {
			t.Errorf("%s stride %d align %d on %s: %d cycles, seed had %d",
				w.Kernel, w.Stride, w.Align, w.System, p.Cycles, w.Cycles)
		}
	}
}

// TestExplicitDecoderMatchesDefault checks that spelling the default out
// (Channels=1, AddrMap "word") changes nothing: the explicitly decoded
// system must reproduce the implicit configuration's cycle counts.
func TestExplicitDecoderMatchesDefault(t *testing.T) {
	for _, kn := range []string{"copy", "vaxpy"} {
		for _, stride := range []uint32{1, 4, 19} {
			k, err := KernelByName(kn)
			if err != nil {
				t.Fatal(err)
			}
			p := PaperParams(stride, 0)
			p.Elements = 256
			tr := k.Build(p)

			run := func(c Config) uint64 {
				t.Helper()
				sys, err := NewSystem(c)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run(tr)
				if err != nil {
					t.Fatal(err)
				}
				return res.Cycles
			}
			implicit := run(DefaultConfig())
			explicit := run(Config{Channels: 1, AddrMap: "word"})
			if implicit != explicit {
				t.Errorf("%s stride %d: implicit %d cycles, explicit decoder %d", kn, stride, implicit, explicit)
			}
		}
	}
}

// TestMultiChannelDifferential runs the evaluation kernels on every
// system at 2 and 4 channels under each decoder, verifying every point
// against the functional reference: whatever the decode function does to
// the timing, the data movement must stay exactly right.
func TestMultiChannelDifferential(t *testing.T) {
	for _, channels := range []uint32{2, 4} {
		for _, am := range []string{"word", "line", "xor"} {
			t.Run(fmt.Sprintf("C%d_%s", channels, am), func(t *testing.T) {
				_, err := SweepWithOptions(
					[]string{"copy", "tridiag", "vaxpy"},
					[]uint32{1, 2, 19},
					nil,
					SweepOptions{Elements: 128, Verify: true, Channels: channels, AddrMap: am},
				)
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestMultiChannelTraceDifferential drives the fuzz corpus seed traces
// (dependent gather-compute-scatter chains included) through the
// multi-channel PVA under each decoder and compares against the
// reference word for word.
func TestMultiChannelTraceDifferential(t *testing.T) {
	var corpus [][]byte
	for _, s := range []uint32{0, 1, 2, 3, 4, 8, 16, 19, 32, 48, 1 << 16, 19 << 10} {
		corpus = append(corpus, append(seedCmd(0, 64, s, 31), seedCmd(1, 96, s, 31)...))
	}
	corpus = append(corpus, append(append(seedCmd(0, 0, 19, 31), seedCmd(3, 1<<20, 4, 15)...), seedCmd(0, 1<<20, 4, 15)...))
	corpus = append(corpus, append(seedCmd(1, 128, 0, 31), seedCmd(0, 128, 0, 7)...))

	for _, channels := range []uint32{2, 4} {
		for _, am := range []string{"word", "line", "xor"} {
			t.Run(fmt.Sprintf("C%d_%s", channels, am), func(t *testing.T) {
				for _, data := range corpus {
					tr, ok := parseFuzzTrace(data, true)
					if !ok {
						continue
					}
					cfg := DefaultConfig()
					cfg.Channels = channels
					cfg.AddrMap = am
					sys, err := NewSystem(cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstReference(t, sys, tr)
				}
			})
		}
	}
}

// TestChannelScalingExperiment runs the cmd/sweep channel-scaling
// experiment in miniature and sanity-checks the physics: at unit stride
// the word-interleaved channels split every vector evenly, so four
// channels must beat one by a wide margin, and the single-channel row
// must be the baseline (speedup exactly 1).
func TestChannelScalingExperiment(t *testing.T) {
	points, err := ChannelSweep([]string{"copy"}, []uint32{1}, []uint32{1, 2, 4}, nil, SweepOptions{Elements: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	byChan := map[uint32]ChannelPoint{}
	for _, p := range points {
		byChan[p.Channels] = p
	}
	if s := byChan[1].Speedup; s != 1 {
		t.Errorf("single-channel baseline speedup = %v, want 1", s)
	}
	if byChan[2].Cycles >= byChan[1].Cycles {
		t.Errorf("2 channels (%d cycles) not faster than 1 (%d)", byChan[2].Cycles, byChan[1].Cycles)
	}
	if byChan[4].Cycles >= byChan[2].Cycles {
		t.Errorf("4 channels (%d cycles) not faster than 2 (%d)", byChan[4].Cycles, byChan[2].Cycles)
	}
	if byChan[4].Speedup < 1.5 {
		t.Errorf("4-channel speedup %.2fx, want at least 1.5x at unit stride", byChan[4].Speedup)
	}
}

// TestUnknownAddrMapRejected locks the error path: a typo'd decoder name
// must fail loudly at construction, not fall back to word interleave.
func TestUnknownAddrMapRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AddrMap = "sudoku"
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("NewSystem accepted unknown addrmap")
	}
	if _, err := SweepWithOptions([]string{"copy"}, []uint32{1}, nil, SweepOptions{Channels: 2, AddrMap: "sudoku"}); err == nil {
		t.Fatal("Sweep accepted unknown addrmap")
	}
}

// TestMultiChannelTxnDeadlock pins the shared transaction-ID pool
// against a circular wait. On this trace a two-channel xor system once
// filled all eight IDs with younger commands that had issued through
// channel 0 while an older write, with elements on channel 1 only,
// waited for an ID; channel 1's scheduler stopped at that write and
// never reserved the younger commands' channel-1 tenures, so nothing
// could retire. Batch Run and a streaming Session must both complete
// and match the reference.
func TestMultiChannelTxnDeadlock(t *testing.T) {
	cmds := []struct {
		op                   Op
		base, stride, length uint32
	}{
		{Read, 11283, 2, 16}, {Read, 11951, 16, 22}, {Write, 13627, 32, 10},
		{Read, 9943, 16, 28}, {Read, 6243, 2, 23}, {Write, 4519, 3, 29},
		{Write, 5893, 1, 28}, {Write, 4749, 19, 9}, {Read, 733, 19, 18},
		{Read, 265, 3, 29}, {Read, 14964, 33, 9}, {Write, 8435, 19, 31},
		{Write, 10211, 3, 25},
	}
	var tr Trace
	for _, c := range cmds {
		cmd := VectorCmd{Op: c.op, V: Vector{Base: c.base, Stride: c.stride, Length: c.length}}
		if c.op == Write {
			cmd.Data = make([]uint32, c.length)
			for k := range cmd.Data {
				cmd.Data[k] = c.base + uint32(k)
			}
		}
		tr.Cmds = append(tr.Cmds, cmd)
	}
	cfg := DefaultConfig()
	cfg.Channels = 2
	cfg.AddrMap = "xor"
	cfg.WatchdogCycles = 20000
	newSys := func() *pvaunit.System {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.(*pvaunit.System)
	}
	checkAgainstReference(t, newSys(), tr)
	batch := newSys()
	want, err := batch.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	streamed := newSys()
	got, _, err := runSession(streamed, tr)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if got.Cycles != want.Cycles || got.Stats != want.Stats {
		t.Errorf("session (%d cycles, %+v), batch (%d cycles, %+v)",
			got.Cycles, got.Stats, want.Cycles, want.Stats)
	}
	for i, c := range tr.Cmds {
		for j := range want.ReadData[i] {
			if got.ReadData[i][j] != want.ReadData[i][j] {
				t.Fatalf("session cmd %d word %d = %#x, batch %#x", i, j, got.ReadData[i][j], want.ReadData[i][j])
			}
		}
		for j := uint32(0); j < c.V.Length; j++ {
			if a := c.Addr(j); streamed.Peek(a) != batch.Peek(a) {
				t.Fatalf("session final image at %d = %#x, batch %#x", a, streamed.Peek(a), batch.Peek(a))
			}
		}
	}
}
