package pvaunit

import (
	"fmt"
	"testing"

	"pva/internal/addrmap"
	"pva/internal/kernels"
	"pva/internal/memsys"
)

// TestIdleSkipBitIdentical proves the event-driven cycle skipping elides
// only no-op cycles: for every kernel, paper stride and alignment, the
// skipping and strict tick-every-cycle engines must agree on the cycle
// count, every statistic, and every gathered word — on the SDRAM
// prototype, the idealized SRAM variant, a tuned-decoder system (whose
// controllers enumerate their elements through a BankView) and a
// 2-channel xor system. The strict engine ticks every controller every
// cycle, so it also proves that waking only the banks a broadcast hands
// work to loses nothing.
func TestIdleSkipBitIdentical(t *testing.T) {
	strides := []uint32{1, 2, 4, 8, 16, 19}
	if testing.Short() {
		strides = []uint32{1, 16, 19}
	}
	tuned := PaperConfig()
	tuned.Decoder = addrmap.MustTuned(1, 16, []uint32{0x9, 0x12, 0x24, 0x48})
	xor2 := PaperConfig()
	xor2.Channels = 2
	xor2.Decoder = addrmap.MustXORBank(2, 16)
	for _, sys := range []struct {
		name string
		cfg  Config
	}{
		{"sdram", PaperConfig()},
		{"sram", SRAMConfig()},
		{"tuned", tuned},
		{"xor-2ch", xor2},
	} {
		for _, k := range kernels.All() {
			for _, s := range strides {
				for a := 0; a < kernels.Alignments; a++ {
					p := kernels.PaperParams(s, a)
					p.Elements = 256
					trace := k.Build(p)
					name := fmt.Sprintf("%s/%s/stride%d/align%d", sys.name, k.Name, s, a)
					fast := runEngine(t, sys.cfg, false, trace, name)
					slow := runEngine(t, sys.cfg, true, trace, name)
					if fast.Cycles != slow.Cycles {
						t.Fatalf("%s: skip %d cycles, strict %d", name, fast.Cycles, slow.Cycles)
					}
					if fast.Stats != slow.Stats {
						t.Fatalf("%s: stats diverged\nskip:   %+v\nstrict: %+v", name, fast.Stats, slow.Stats)
					}
					for i := range slow.ReadData {
						for j := range slow.ReadData[i] {
							if fast.ReadData[i][j] != slow.ReadData[i][j] {
								t.Fatalf("%s: cmd %d word %d diverged", name, i, j)
							}
						}
					}
				}
			}
		}
	}
}

// TestIdleSkipBitIdenticalRefresh extends the equivalence to a refresh-
// enabled configuration, where the skipping engine must land exactly on
// every refresh obligation.
func TestIdleSkipBitIdenticalRefresh(t *testing.T) {
	k, err := kernels.ByName("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	p := kernels.PaperParams(16, 0)
	p.Elements = 256
	trace := k.Build(p)
	mk := func(disable bool) Config {
		c := PaperConfig()
		c.Timing.RefreshInterval = 200
		c.Timing.TRFC = 8
		c.DisableIdleSkip = disable
		return c
	}
	fast, err := MustNew(mk(false)).Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := MustNew(mk(true)).Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cycles != slow.Cycles || fast.Stats != slow.Stats {
		t.Fatalf("refresh run diverged: skip %d cycles %+v, strict %d cycles %+v",
			fast.Cycles, fast.Stats, slow.Cycles, slow.Stats)
	}
}

func runEngine(t *testing.T, cfg Config, disableSkip bool, trace memsys.Trace, name string) memsys.Result {
	t.Helper()
	cfg.DisableIdleSkip = disableSkip
	res, err := MustNew(cfg).Run(trace)
	if err != nil {
		t.Fatalf("%s (skip disabled=%v): %v", name, disableSkip, err)
	}
	return res
}
