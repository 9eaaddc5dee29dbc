// The decode-only surrogate: a cheap stand-in for the cycle-accurate
// simulator that ranks address decoders by the conflict structure they
// give a recorded address trace. Everything about an element that no
// mask can change — its bank word, its channel and plain interleave
// bank, and the internal bank and row its bank word decomposes to — is
// decoded once per Search into a flat table. A greedy step toggles one
// bit of one mask, which flips one bank bit and only on the elements
// whose bank word has the toggled bit set, so scoring a neighbour is one
// pass over the table with that bit flipped in place: no Decode, no
// Decompose and no decoder construction per evaluation. That is what
// lets the search walk the XOR-hash space greedily and keep the
// expensive simulator for the few survivors.
//
// The cost model charges exactly the two effects the PVA's performance
// hinges on:
//
//   - Serialization floor: a vector command finishes no sooner than its
//     most-loaded (channel, bank) unit, one column access per claimed
//     element. Each command contributes its maximum per-unit claim.
//   - Row churn: an access leaving the open row of its internal bank
//     pays precharge + activate. Row state is tracked per (channel,
//     bank, internal bank) across the whole trace, matching the
//     device's open-row behavior between commands.
//
// The surrogate is a ranking heuristic, not a cycle predictor: the
// search promotes its best candidates to the real simulator before
// declaring a winner (see Search).

package autotune

import (
	"math/bits"

	"pva/internal/addr"
	"pva/internal/addrmap"
	"pva/internal/kernels"
)

// rowSwitchWeight is the surrogate's charge for an access that misses
// the open row of its internal bank, in column-access units. With the
// paper's 2-2-2 timing a conflict costs precharge + activate on top of
// the column access; 4 keeps the two effects on comparable scales.
const rowSwitchWeight = 4

// element is one captured access, pre-decoded. Only unit depends on the
// masks: unit = base ^ fold(bw), the Tuned decoder's channel*banks+bank.
type element struct {
	bw    uint32 // bank word
	base  uint32 // channel*banks + plain interleave bank bits
	ibank uint32 // internal bank of bw
	row   uint32 // row of bw
	unit  uint32 // (channel, bank) unit under the current masks
}

// surrogate scores mask sets over a fixed set of captured traces. It
// holds one current mask set, encoded in the table's units; flipCost
// scores a one-bit neighbour of it and accept moves to that neighbour.
// The scratch state is reused across evaluations, so a greedy search
// allocates nothing per candidate. Not safe for concurrent use; the
// search scores candidates on one goroutine.
type surrogate struct {
	elems    []element
	cmdEnd   []uint32 // per command, end of its elements in elems
	traceEnd []uint32 // per trace, end of its commands in cmdEnd
	ib       uint32   // internal banks per device
	claims   []uint32 // per unit, elements claimed this command
	touched  []uint32 // units claimed this command, for sparse reset
	lastRow  []uint32 // per (unit*ib + ibank) open row
	evals    int      // evaluations scored (load and flipCost)
}

// newSurrogate pre-decodes the captured traces for decoders with the
// given channel/bank shape, under zero masks.
func newSurrogate(traces []kernels.AddressTrace, geom addr.SDRAMGeom, channels, banks uint32) *surrogate {
	word := addrmap.MustTuned(channels, banks, nil)
	n, cmds := 0, 0
	for _, tr := range traces {
		n += tr.Elements()
		cmds += len(tr.Cmds)
	}
	units := channels * banks
	s := &surrogate{
		elems:    make([]element, 0, n),
		cmdEnd:   make([]uint32, 0, cmds),
		traceEnd: make([]uint32, 0, len(traces)),
		ib:       geom.InternalBanks,
		claims:   make([]uint32, units),
		touched:  make([]uint32, 0, units),
		lastRow:  make([]uint32, units*geom.InternalBanks),
	}
	for _, tr := range traces {
		for _, cmd := range tr.Cmds {
			for _, a := range cmd {
				co := word.Decode(a)
				dc := geom.Decompose(co.BankWord)
				u := co.Channel*banks + co.Bank
				s.elems = append(s.elems, element{bw: co.BankWord, base: u, ibank: dc.IBank, row: dc.Row, unit: u})
			}
			s.cmdEnd = append(s.cmdEnd, uint32(len(s.elems)))
		}
		s.traceEnd = append(s.traceEnd, uint32(len(s.cmdEnd)))
	}
	return s
}

// varyMask returns the bank-word bits that vary across the traces.
func (s *surrogate) varyMask() uint32 {
	var vary uint32
	for i := range s.elems {
		vary |= s.elems[i].bw ^ s.elems[0].bw
	}
	return vary
}

// load makes masks the current mask set and returns its cost.
func (s *surrogate) load(masks []uint32) uint64 {
	for i := range s.elems {
		e := &s.elems[i]
		var f uint32
		for j, m := range masks {
			f |= uint32(bits.OnesCount32(e.bw&m)&1) << uint(j)
		}
		e.unit = e.base ^ f
	}
	s.evals++
	return s.score(0, 0, 0)
}

// flipCost returns the cost of the current masks with bank-word bit k
// toggled in mask j.
func (s *surrogate) flipCost(j int, k uint) uint64 {
	s.evals++
	return s.score(uint(j), k, 1)
}

// accept toggles bank-word bit k in mask j of the current mask set.
func (s *surrogate) accept(j int, k uint) {
	for i := range s.elems {
		e := &s.elems[i]
		e.unit ^= (e.bw >> k & 1) << uint(j)
	}
}

// score returns the surrogate cost of every captured trace, lower is
// better, with bank bit j of each element's unit XORed by bit k of its
// bank word when on is 1 (on 0: the current masks as they stand). Row
// state resets between traces — each trace models an independent run
// from a warm-restored checkpoint.
func (s *surrogate) score(j, k uint, on uint32) uint64 {
	var total uint64
	var lo, c uint32
	for _, te := range s.traceEnd {
		for i := range s.lastRow {
			s.lastRow[i] = ^uint32(0)
		}
		for ; c < te; c++ {
			hi := s.cmdEnd[c]
			var maxClaim uint32
			for _, e := range s.elems[lo:hi] {
				u := e.unit ^ (e.bw>>k&on)<<j
				if s.claims[u] == 0 {
					s.touched = append(s.touched, u)
				}
				s.claims[u]++
				if s.claims[u] > maxClaim {
					maxClaim = s.claims[u]
				}
				slot := u*s.ib + e.ibank
				if s.lastRow[slot] != e.row {
					if s.lastRow[slot] != ^uint32(0) {
						total += rowSwitchWeight
					}
					s.lastRow[slot] = e.row
				}
			}
			total += uint64(maxClaim)
			for _, u := range s.touched {
				s.claims[u] = 0
			}
			s.touched = s.touched[:0]
			lo = hi
		}
	}
	return total
}
