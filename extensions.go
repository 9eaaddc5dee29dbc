// Extension-facing API: the vector-indirect scatter/gather and
// bit-reversal capabilities the paper's conclusion sketches, plus the
// SplitVector paging front end and the hardware complexity accounting.

package pva

import (
	"fmt"

	"pva/internal/bitrev"
	"pva/internal/complexity"
	"pva/internal/core"
	"pva/internal/memsys"
	"pva/internal/pvaunit"
	"pva/internal/shadow"
	"pva/internal/vcmd"
)

// ShadowSpace is the Impulse-style remapping table of Section 3.2: a
// dense shadow region whose cache-line fills the controller turns into
// base-stride gathers of real memory.
type ShadowSpace = shadow.Space

// ShadowMapping is one shadow region configuration.
type ShadowMapping = shadow.Mapping

// NewShadowSpace validates and indexes shadow mappings.
func NewShadowSpace(maps []ShadowMapping) (*ShadowSpace, error) { return shadow.New(maps) }

// IndirectEngine performs two-phase vector-indirect scatter/gather, the
// extension the paper's conclusion sketches (Section 7): phase one
// loads the indirection vector, phase two broadcasts the resolved
// addresses over the vector bus, two per cycle, and every bank
// controller claims its elements by bit mask and services them in
// parallel. Each address-list operation is one indexed vector command
// on a real PVA system, so the timing is the pipeline's own.
type IndirectEngine struct {
	sys *pvaunit.System
}

// IndirectResult reports one indirect operation.
type IndirectResult struct {
	Cycles         uint64   // total modeled latency
	BroadcastCycle uint64   // cycles spent broadcasting addresses (2/cycle)
	BankCycles     []uint64 // per-bank service time (device read/write latency cycles)
	StageCycles    uint64   // line transfer back (or in) over the bus
	Data           []uint32 // gathered data (nil for scatters)
}

// indirectLineWords bounds one indirect operation's address list: two
// of the prototype's 32-word lines.
const indirectLineWords = 64

// NewIndirectEngine returns an engine with the paper's prototype
// parameters over a fresh store.
func NewIndirectEngine() *IndirectEngine {
	cfg := DefaultConfig()
	cfg.LineWords = indirectLineWords
	icfg, err := cfg.toInternal(false)
	if err != nil {
		panic(err)
	}
	sys, err := pvaunit.New(icfg)
	if err != nil {
		panic(err)
	}
	return &IndirectEngine{sys: sys}
}

// Store exposes the backing store for seeding and inspection.
func (e *IndirectEngine) Store() *memsys.Store { return e.sys.Store() }

// GatherAddrs gathers arbitrary word addresses in parallel across the
// banks. This is the phase-two primitive; bit-reversed gathers and the
// second phase of vector-indirect reads use it directly.
func (e *IndirectEngine) GatherAddrs(addrs []uint32) (IndirectResult, error) {
	return e.run(addrs, nil)
}

// ScatterAddrs writes data[i] to addrs[i], the scatter dual.
func (e *IndirectEngine) ScatterAddrs(addrs []uint32, data []uint32) (IndirectResult, error) {
	if len(addrs) != len(data) {
		return IndirectResult{}, fmt.Errorf("pva: indirect: %d addresses, %d data words", len(addrs), len(data))
	}
	return e.run(addrs, data)
}

// Gather is the full two-phase operation: load the indirection vector
// iv (whose elements are word offsets), then gather table[iv[i]] for
// every element.
func (e *IndirectEngine) Gather(table uint32, iv Vector) (IndirectResult, error) {
	return e.twoPhase(table, iv, nil)
}

// Scatter is the write dual of Gather: table[iv[i]] = data[i].
func (e *IndirectEngine) Scatter(table uint32, iv Vector, data []uint32) (IndirectResult, error) {
	return e.twoPhase(table, iv, data)
}

// twoPhase runs phase (i), the indirection-vector load — an ordinary
// base-stride gather — then phase (ii), the gather (data == nil) or
// scatter over the resolved addresses, charging both phases' cycles.
func (e *IndirectEngine) twoPhase(table uint32, iv Vector, data []uint32) (IndirectResult, error) {
	ivAddrs := make([]uint32, iv.Length)
	for i := range ivAddrs {
		ivAddrs[i] = iv.Addr(uint32(i))
	}
	p1, err := e.GatherAddrs(ivAddrs)
	if err != nil {
		return IndirectResult{}, fmt.Errorf("pva: indirect phase 1: %w", err)
	}
	addrs := make([]uint32, len(p1.Data))
	for i, off := range p1.Data {
		addrs[i] = table + off
	}
	var p2 IndirectResult
	if data == nil {
		p2, err = e.GatherAddrs(addrs)
	} else {
		p2, err = e.ScatterAddrs(addrs, data)
	}
	if err != nil {
		return IndirectResult{}, fmt.Errorf("pva: indirect phase 2: %w", err)
	}
	p2.Cycles += p1.Cycles
	return p2, nil
}

// run executes one indexed vector command (a write when data != nil).
// The command's base is zero so the index list carries the complete
// word addresses, which is exactly the broadcast the paper describes.
func (e *IndirectEngine) run(addrs []uint32, data []uint32) (IndirectResult, error) {
	if len(addrs) == 0 {
		return IndirectResult{}, fmt.Errorf("pva: indirect: empty address list")
	}
	cmd := VectorCmd{
		Op:  Read,
		V:   Vector{Length: uint32(len(addrs))},
		Idx: addrs,
	}
	if data != nil {
		cmd.Op = Write
		cmd.Data = data
	}
	rr, err := e.sys.Run(Trace{Cmds: []VectorCmd{cmd}})
	if err != nil {
		return IndirectResult{}, fmt.Errorf("pva: indirect: %w", err)
	}
	// Session hardware (and its device counters) is rewound on every
	// Run, so the post-run stats are this operation's alone.
	dev := e.sys.DeviceStats()
	res := IndirectResult{
		Cycles:         rr.Cycles,
		BroadcastCycle: rr.Stats.IndexBusCycles,
		BankCycles:     make([]uint64, len(dev)),
		StageCycles:    1 + uint64(len(addrs)+1)/2,
	}
	for b, ds := range dev {
		res.BankCycles[b] = ds.ReadLatencyCycles + ds.WriteLatencyCycles
	}
	if data == nil {
		// Result buffers are reused across Runs on one System: copy.
		res.Data = append([]uint32(nil), rr.ReadData[0]...)
	}
	return res, nil
}

// BitReverse reverses the low `bits` bits of x — the FFT reordering
// pattern of Section 7.
func BitReverse(x uint32, bits uint) uint32 { return bitrev.Reverse(x, bits) }

// BitRevAddresses returns the bit-reversed application vector: element
// i at base + BitReverse(i, bits)*scale words.
func BitRevAddresses(base uint32, bits uint, scale uint32) []uint32 {
	return bitrev.Addresses(base, bits, scale)
}

// BitRevAnalysis quantifies the bank parallelism available to a
// bit-reversed access stream under a bank-decode function.
type BitRevAnalysis = bitrev.Analysis

// AnalyzeBitRev reports distinct banks touched per line-sized chunk.
func AnalyzeBitRev(addrs []uint32, chunkLen int, bank func(uint32) uint32) BitRevAnalysis {
	return bitrev.Analyze(addrs, chunkLen, bank)
}

// TLB is the memory controller's superpage table (Section 4.3.2).
type TLB = vcmd.TLB

// TLBMapping is one superpage mapping.
type TLBMapping = vcmd.Mapping

// NewTLB validates and indexes superpage mappings.
func NewTLB(maps []TLBMapping) (*TLB, error) { return vcmd.NewTLB(maps) }

// IdentityTLB identity-maps [0, words) at the given superpage size.
func IdentityTLB(words, pageWords uint32) *TLB { return vcmd.Identity(words, pageWords) }

// SplitVector breaks a virtual-space vector into physical per-superpage
// vector commands using the paper's division-free lower-bound split.
func SplitVector(t *TLB, v Vector) ([]Vector, error) {
	subs, err := vcmd.SplitVector(t, v)
	if err != nil {
		return nil, err
	}
	out := make([]Vector, len(subs))
	for i, s := range subs {
		out[i] = core.Vector(s)
	}
	return out, nil
}

// TranslateIndexed translates a virtual-space indexed access — a base
// plus explicit element offsets — through the superpage TLB into
// physical word addresses, one Lookup per element (the per-element
// index-resolution traffic the strided SplitVector path avoids; it
// shows up in the TLB's Lookups counter). The result is usable directly
// as a VectorCmd index list with Base 0.
func TranslateIndexed(t *TLB, base uint32, idx []uint32) ([]uint32, error) {
	return vcmd.TranslateIndexed(t, base, idx)
}

// ComplexityParams are the bank-controller design parameters whose
// structural cost Complexity accounts for (the Table 1 substitute).
type ComplexityParams = complexity.Params

// ComplexityEstimate is the structural account.
type ComplexityEstimate = complexity.Estimate

// Complexity computes the structural hardware account of one bank
// controller.
func Complexity(p ComplexityParams) (ComplexityEstimate, error) { return complexity.New(p) }

// PaperComplexityParams is the prototype configuration.
func PaperComplexityParams() ComplexityParams { return complexity.PaperParams() }
