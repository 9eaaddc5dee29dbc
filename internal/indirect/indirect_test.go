// Package indirect_test checks the two-phase vector-indirect
// scatter/gather engine (pva.IndirectEngine) through its public API:
// data of address-list and two-phase operations, the broadcast and
// bank-parallel timing, and argument errors.
package indirect_test

import (
	"math/rand"
	"testing"

	"pva"
	"pva/internal/memsys"
)

func TestGatherAddrsData(t *testing.T) {
	e := pva.NewIndirectEngine()
	addrs := []uint32{5, 1000, 17, 17 + 16, 3, 3} // duplicates and same-bank pairs
	res, err := e.GatherAddrs(addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if res.Data[i] != memsys.Fill(a) {
			t.Errorf("word %d (addr %d) = %#x, want Fill", i, a, res.Data[i])
		}
	}
	if res.Cycles == 0 || res.BroadcastCycle != 3 {
		t.Errorf("cycles=%d broadcast=%d", res.Cycles, res.BroadcastCycle)
	}
}

func TestScatterThenGather(t *testing.T) {
	e := pva.NewIndirectEngine()
	addrs := []uint32{10, 26, 42, 1 << 20}
	data := []uint32{100, 200, 300, 400}
	if _, err := e.ScatterAddrs(addrs, data); err != nil {
		t.Fatal(err)
	}
	res, err := e.GatherAddrs(addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if res.Data[i] != data[i] {
			t.Errorf("word %d = %d, want %d", i, res.Data[i], data[i])
		}
	}
}

func TestTwoPhaseGather(t *testing.T) {
	e := pva.NewIndirectEngine()
	// Build an indirection vector at 1<<16: offsets into a table.
	ivBase := uint32(1 << 16)
	offsets := []uint32{7, 129, 3, 514, 31, 8, 77, 2048}
	for i, off := range offsets {
		e.Store().Write(ivBase+uint32(i), off)
	}
	table := uint32(1 << 20)
	// Seed table entries.
	for _, off := range offsets {
		e.Store().Write(table+off, off*11)
	}
	iv := pva.Vector{Base: ivBase, Stride: 1, Length: uint32(len(offsets))}
	res, err := e.Gather(table, iv)
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range offsets {
		if res.Data[i] != off*11 {
			t.Errorf("gathered[%d] = %d, want %d", i, res.Data[i], off*11)
		}
	}
}

func TestTwoPhaseScatter(t *testing.T) {
	e := pva.NewIndirectEngine()
	ivBase := uint32(4096)
	offsets := []uint32{1, 65, 3, 130}
	for i, off := range offsets {
		e.Store().Write(ivBase+uint32(i), off)
	}
	table := uint32(1 << 18)
	data := []uint32{11, 22, 33, 44}
	iv := pva.Vector{Base: ivBase, Stride: 1, Length: 4}
	if _, err := e.Scatter(table, iv, data); err != nil {
		t.Fatal(err)
	}
	for i, off := range offsets {
		if got := e.Store().Read(table + off); got != data[i] {
			t.Errorf("table[%d] = %d, want %d", off, got, data[i])
		}
	}
}

func TestParallelismBeatsSingleBank(t *testing.T) {
	e := pva.NewIndirectEngine()
	// 32 addresses spread across all 16 banks vs 32 in a single bank.
	spread := make([]uint32, 32)
	for i := range spread {
		spread[i] = uint32(i) * 19
	}
	single := make([]uint32, 32)
	for i := range single {
		single[i] = uint32(i) * 16
	}
	rs, err := e.GatherAddrs(spread)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e.GatherAddrs(single)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cycles >= r1.Cycles {
		t.Errorf("spread gather (%d) not faster than single-bank (%d)", rs.Cycles, r1.Cycles)
	}
}

func TestRandomGatherQuickish(t *testing.T) {
	e := pva.NewIndirectEngine()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(64)
		addrs := make([]uint32, n)
		for i := range addrs {
			addrs[i] = rng.Uint32() % (1 << 24)
		}
		res, err := e.GatherAddrs(addrs)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range addrs {
			if res.Data[i] != e.Store().Read(a) {
				t.Fatalf("trial %d word %d wrong", trial, i)
			}
		}
	}
}

func TestErrors(t *testing.T) {
	e := pva.NewIndirectEngine()
	if _, err := e.GatherAddrs(nil); err == nil {
		t.Error("empty gather accepted")
	}
	if _, err := e.ScatterAddrs([]uint32{1, 2}, []uint32{1}); err == nil {
		t.Error("mismatched scatter accepted")
	}
}
