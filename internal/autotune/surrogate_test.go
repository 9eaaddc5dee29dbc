package autotune

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"testing"

	"pva/internal/addr"
	"pva/internal/addrmap"
	"pva/internal/kernels"
	"pva/internal/pvaunit"
)

// refCost is the surrogate's cost model evaluated the direct way: one
// Decode and one Decompose per element under the decoder. The table-
// driven surrogate must agree with it on every mask set.
func refCost(traces []kernels.AddressTrace, geom addr.SDRAMGeom, d addrmap.Decoder) uint64 {
	banks := d.Banks()
	ib := geom.InternalBanks
	claims := make([]uint32, d.Channels()*banks)
	lastRow := make([]uint32, len(claims)*int(ib))
	var total uint64
	for _, tr := range traces {
		for i := range lastRow {
			lastRow[i] = ^uint32(0)
		}
		for _, cmd := range tr.Cmds {
			var maxClaim uint32
			for i := range claims {
				claims[i] = 0
			}
			for _, a := range cmd {
				co := d.Decode(a)
				u := co.Channel*banks + co.Bank
				claims[u]++
				if claims[u] > maxClaim {
					maxClaim = claims[u]
				}
				dc := geom.Decompose(co.BankWord)
				slot := u*ib + dc.IBank
				if lastRow[slot] != dc.Row {
					if lastRow[slot] != ^uint32(0) {
						total += rowSwitchWeight
					}
					lastRow[slot] = dc.Row
				}
			}
			total += uint64(maxClaim)
		}
	}
	return total
}

// surrogateHarness pairs a surrogate table with the reference inputs.
type surrogateHarness struct {
	t        testing.TB
	traces   []kernels.AddressTrace
	geom     addr.SDRAMGeom
	channels uint32
	banks    uint32
	sur      *surrogate
	masks    []uint32 // the surrogate's current mask set
}

func newHarness(t testing.TB, traces []kernels.AddressTrace, channels, banks uint32) *surrogateHarness {
	geom := pvaunit.PaperConfig().SGeom
	return &surrogateHarness{
		t: t, traces: traces, geom: geom, channels: channels, banks: banks,
		sur:   newSurrogate(traces, geom, channels, banks),
		masks: make([]uint32, bits.TrailingZeros32(banks)),
	}
}

func (h *surrogateHarness) ref(masks []uint32) uint64 {
	return refCost(h.traces, h.geom, addrmap.MustTuned(h.channels, h.banks, masks))
}

// load makes masks current in the table and checks its cost.
func (h *surrogateHarness) load(masks []uint32) {
	h.t.Helper()
	copy(h.masks, masks)
	if got, want := h.sur.load(h.masks), h.ref(h.masks); got != want {
		h.t.Fatalf("load(%#x) = %d, reference %d", h.masks, got, want)
	}
}

// flip checks flipCost(j, k) against the reference with the toggle
// applied, and that scoring left the current masks' cost untouched.
func (h *surrogateHarness) flip(j int, k uint) {
	h.t.Helper()
	h.masks[j] ^= 1 << k
	want := h.ref(h.masks)
	h.masks[j] ^= 1 << k
	if got := h.sur.flipCost(j, k); got != want {
		h.t.Fatalf("masks %#x: flipCost(%d, %d) = %d, reference %d", h.masks, j, k, got, want)
	}
	if got, want := h.sur.score(0, 0, 0), h.ref(h.masks); got != want {
		h.t.Fatalf("masks %#x: cost after flipCost(%d, %d) = %d, reference %d", h.masks, j, k, got, want)
	}
}

// accept applies a toggle to both sides and checks the new current cost.
func (h *surrogateHarness) accept(j int, k uint) {
	h.t.Helper()
	h.sur.accept(j, k)
	h.masks[j] ^= 1 << k
	if got, want := h.sur.score(0, 0, 0), h.ref(h.masks); got != want {
		h.t.Fatalf("masks %#x: cost after accept(%d, %d) = %d, reference %d", h.masks, j, k, got, want)
	}
}

// TestSurrogateFlipMatchesReference checks the pre-decoded table against
// the decode-per-element reference: every one-bit toggle of random mask
// sets, and the current cost along random chains of accepted toggles,
// on every channel/bank split of 16 units, with and without MaskBits.
func TestSurrogateFlipMatchesReference(t *testing.T) {
	var traces []kernels.AddressTrace
	for _, name := range []string{"saxpy", "vaxpy", "tridiag"} {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range KernelWorkload(k, []uint32{1, 4, 19}, 1, 64).Traces {
			traces = append(traces, kernels.CaptureAddresses(tr))
		}
	}
	for _, shape := range [][2]uint32{{1, 16}, {2, 8}, {4, 4}} {
		for _, maskBits := range []uint{0, 6} {
			t.Run(fmt.Sprintf("%dx%d/maskbits%d", shape[0], shape[1], maskBits), func(t *testing.T) {
				h := newHarness(t, traces, shape[0], shape[1])
				vary := h.sur.varyMask()
				if maskBits > 0 {
					vary &= 1<<maskBits - 1
				}
				var ks []uint
				for v := vary; v != 0; v &= v - 1 {
					ks = append(ks, uint(bits.TrailingZeros32(v)))
				}
				seed := uint64(shape[0])<<8 | uint64(maskBits)
				masks := make([]uint32, len(h.masks))
				for round := 0; round < 4; round++ {
					for j := range masks {
						masks[j] = uint32(splitmix64(&seed)) & vary
					}
					h.load(masks)
					for j := range masks {
						for _, k := range ks {
							h.flip(j, k)
						}
					}
					for step := 0; step < 24; step++ {
						r := splitmix64(&seed)
						h.accept(int(r%uint64(len(masks))), ks[r>>32%uint64(len(ks))])
					}
				}
			})
		}
	}
}

// FuzzSurrogateFlip drives the table with fuzzer-chosen addresses, mask
// sets and toggle sequences, checking every score against the
// decode-per-element reference.
//
//	go test -run xxx -fuzz FuzzSurrogateFlip -fuzztime 30s ./internal/autotune
func FuzzSurrogateFlip(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte("\x00\x00\x00\x00\x13\x00\x00\x00\x26\x00\x00\x00\x00\x10\x00\x00"), []byte{1, 7, 0x42, 0x80})
	f.Add(uint8(0x19), uint64(7), []byte("\xff\xff\xff\xff\x01\x02\x03\x04\x00\x00\x01\x00\x10\x20\x30\x40\x55\xaa\x55\xaa"), []byte{3, 3, 0xff, 0x10, 0x21})
	f.Add(uint8(0x2e), uint64(42), []byte("\x00\x01\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00\x04\x00\x00"), []byte{0, 4, 8, 12, 16, 20})
	f.Fuzz(func(t *testing.T, shape uint8, seed uint64, raw []byte, toggles []byte) {
		// shape: bits 0-1 pick the channel/bank split, bits 2-4 the
		// command length, bit 5 splits the addresses over two traces.
		shapes := [][2]uint32{{1, 16}, {2, 8}, {4, 4}, {1, 2}}
		sh := shapes[shape&3]
		perCmd := int(shape>>2&7) + 1
		addrs := make([]uint32, len(raw)/4)
		for i := range addrs {
			addrs[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		if len(addrs) == 0 || len(toggles) > 64 {
			return
		}
		parts := [][]uint32{addrs}
		if shape&0x20 != 0 && len(addrs) > 1 {
			parts = [][]uint32{addrs[:len(addrs)/2], addrs[len(addrs)/2:]}
		}
		var traces []kernels.AddressTrace
		for _, p := range parts {
			var tr kernels.AddressTrace
			for len(p) > 0 {
				n := min(perCmd, len(p))
				tr.Cmds = append(tr.Cmds, p[:n])
				p = p[n:]
			}
			traces = append(traces, tr)
		}
		h := newHarness(t, traces, sh[0], sh[1])
		masks := make([]uint32, len(h.masks))
		for j := range masks {
			masks[j] = uint32(splitmix64(&seed))
		}
		h.load(masks)
		// Each toggle byte: bits 0-1 pick the mask, bits 2-6 the bank-word
		// bit; the toggle is accepted unless bit 7 is set.
		for _, b := range toggles {
			j, k := int(b)%len(masks), uint(b>>2)%32
			h.flip(j, k)
			if b&0x80 == 0 {
				h.accept(j, k)
			}
		}
	})
}
