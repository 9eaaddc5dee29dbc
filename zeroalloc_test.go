package pva

import "testing"

// steadyTrace is a small mixed read/preset-write trace for the
// allocation pin. Compute-driven writes are deliberately absent: a
// Compute closure allocates its result line by design, so the
// zero-allocation guarantee covers reads and preset-data writes — the
// paths the simulator itself owns end to end.
func steadyTrace() Trace {
	data := make([]uint32, 32)
	for i := range data {
		data[i] = uint32(i) * 3
	}
	return Trace{Cmds: []VectorCmd{
		{Op: Write, V: Vector{Base: 0, Stride: 4, Length: 32}, Data: data},
		{Op: Read, V: Vector{Base: 1, Stride: 19, Length: 32}},
		{Op: Read, V: Vector{Base: 7, Stride: 5, Length: 32}},
		{Op: Write, V: Vector{Base: 3, Stride: 8, Length: 32}, Data: data},
		{Op: Read, V: Vector{Base: 0, Stride: 4, Length: 32}, DependsOn: []int{0}},
	}}
}

// TestSteadyStateZeroAlloc pins the tentpole guarantee: once a System's
// pools are warm, repeated Runs through the public API allocate nothing
// — every command state, line buffer, FIFO entry, and device pipe slot
// is recycled. A regression here is a regression in the free lists, the
// capacity-preserving resets, or the session-reuse path, and should be
// fixed rather than ratified.
func TestSteadyStateZeroAlloc(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := steadyTrace()
	for i := 0; i < 3; i++ { // warm the pools and slice capacities
		if _, err := sys.Run(tr); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sys.Run(tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Run allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSteadyStateZeroAllocStrict repeats the pin with idle-cycle
// skipping disabled: the strict tick-every-cycle loop exercises every
// component's Tick path each cycle and must be just as allocation-free.
func TestSteadyStateZeroAllocStrict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableIdleSkip = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := steadyTrace()
	for i := 0; i < 3; i++ {
		if _, err := sys.Run(tr); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sys.Run(tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("strict-loop steady-state Run allocates %.1f objects/op, want 0", allocs)
	}
}
