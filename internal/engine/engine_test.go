package engine

import (
	"errors"
	"fmt"
	"testing"

	"pva/internal/fault"
)

// fakeComp is a Clocked component that does real work every period
// cycles and records every cycle at which it was ticked non-idly.
type fakeComp struct {
	cycle  uint64
	period uint64
	due    uint64
	events []uint64 // cycles at which the periodic event fired
	ticks  uint64   // total Tick calls (no-ops included)
}

func newFakeComp(period, first uint64) *fakeComp {
	return &fakeComp{period: period, due: first}
}

func (c *fakeComp) Tick() error {
	if c.cycle == c.due {
		c.events = append(c.events, c.cycle)
		c.due += c.period
	}
	c.cycle++
	c.ticks++
	return nil
}

func (c *fakeComp) CycleNow() uint64 { return c.cycle }

func (c *fakeComp) AdvanceIdle(delta uint64) error {
	if c.cycle+delta > c.due {
		return fmt.Errorf("fakeComp: idle jump %d lands past due cycle %d", delta, c.due)
	}
	c.cycle += delta
	return nil
}

func (c *fakeComp) NextEventAt() uint64 { return c.due }

// fakeDriver completes one unit of work every stride cycles, n units
// total.
type fakeDriver struct {
	n        int
	stride   uint64
	done     int
	progress uint64
	steps    []uint64
}

func (d *fakeDriver) Step(now uint64) error {
	d.steps = append(d.steps, now)
	if d.done < d.n && now == uint64(d.done+1)*d.stride {
		d.done++
		d.progress = now
	}
	return nil
}

func (d *fakeDriver) NextWake(now uint64) uint64 {
	if d.done >= d.n {
		return NoEvent
	}
	next := uint64(d.done+1) * d.stride
	if next < now {
		return now
	}
	return next
}

func (d *fakeDriver) Done() bool        { return d.done >= d.n }
func (d *fakeDriver) Progress() uint64  { return d.progress }
func (d *fakeDriver) DebugDump() string { return fmt.Sprintf("fakeDriver: %d of %d done", d.done, d.n) }

// TestIdleSkipEquivalence cross-checks the skipping engine against the
// strict tick-every-cycle loop: identical component event times,
// identical final clocks.
func TestIdleSkipEquivalence(t *testing.T) {
	run := func(disable bool) (*fakeComp, *fakeDriver, uint64) {
		c := newFakeComp(7, 3)
		d := &fakeDriver{n: 5, stride: 13}
		e := New(Config{DisableIdleSkip: disable}, d)
		e.Register(c)
		if err := e.Run(); err != nil {
			t.Fatalf("run(disable=%v): %v", disable, err)
		}
		return c, d, e.Now()
	}
	cs, ds, ends := run(false)
	cx, dx, endx := run(true)
	if fmt.Sprint(cs.events) != fmt.Sprint(cx.events) {
		t.Errorf("component events diverge: skip=%v strict=%v", cs.events, cx.events)
	}
	if ds.done != dx.done || ds.progress != dx.progress {
		t.Errorf("driver state diverges: skip=%+v strict=%+v", ds, dx)
	}
	if ends != endx {
		t.Errorf("final clock diverges: skip=%d strict=%d", ends, endx)
	}
	if cs.ticks >= cx.ticks {
		t.Errorf("skipping engine ticked %d times, strict %d; expected fewer", cs.ticks, cx.ticks)
	}
}

// fakeGroup batches fakeComps behind the Group interface the way the
// pvaunit session batches one channel's bank controllers.
type fakeGroup struct {
	comps []*fakeComp
	wake  []uint64
}

func newFakeGroup(periods ...uint64) *fakeGroup {
	g := &fakeGroup{}
	for _, p := range periods {
		g.comps = append(g.comps, newFakeComp(p, p))
		g.wake = append(g.wake, 0)
	}
	return g
}

func (g *fakeGroup) Step(cycle uint64, strict bool) (uint64, error) {
	next := uint64(NoEvent)
	for i, c := range g.comps {
		if !strict && g.wake[i] > cycle {
			if g.wake[i] < next {
				next = g.wake[i]
			}
			continue
		}
		if lag := c.CycleNow(); lag < cycle {
			if err := c.AdvanceIdle(cycle - lag); err != nil {
				return 0, err
			}
		}
		if err := c.Tick(); err != nil {
			return 0, err
		}
		g.wake[i] = c.NextEventAt()
		if g.wake[i] < next {
			next = g.wake[i]
		}
	}
	return next, nil
}

// TestGroupIdleSkipEquivalence is the group-granular counterpart of
// TestIdleSkipEquivalence: registered groups skipped on one cached
// group-wide wake produce exactly the per-member event times, driver
// trajectory and final clock of the strict loop, with fewer ticks.
func TestGroupIdleSkipEquivalence(t *testing.T) {
	run := func(strict bool) ([]*fakeGroup, *fakeDriver, uint64) {
		groups := []*fakeGroup{
			newFakeGroup(3, 7),
			newFakeGroup(5),
			newFakeGroup(2, 11, 13),
			newFakeGroup(17),
		}
		d := &fakeDriver{n: 20, stride: 6}
		e := New(Config{DisableIdleSkip: strict}, d)
		for _, g := range groups {
			e.RegisterGroup(g)
		}
		if err := e.Run(); err != nil {
			t.Fatalf("run(strict=%v): %v", strict, err)
		}
		return groups, d, e.Now()
	}
	gs, ds, ends := run(false)
	gx, dx, endx := run(true)
	var skipTicks, strictTicks uint64
	for gi := range gs {
		for ci := range gs[gi].comps {
			s, x := gs[gi].comps[ci], gx[gi].comps[ci]
			if fmt.Sprint(s.events) != fmt.Sprint(x.events) {
				t.Errorf("group %d comp %d events diverge:\nskip   %v\nstrict %v",
					gi, ci, s.events, x.events)
			}
			skipTicks += s.ticks
			strictTicks += x.ticks
		}
	}
	if ds.done != dx.done || ds.progress != dx.progress {
		t.Errorf("driver state diverges: skip=%+v strict=%+v", ds, dx)
	}
	if ends != endx {
		t.Errorf("final clock diverges: skip=%d strict=%d", ends, endx)
	}
	if skipTicks >= strictTicks {
		t.Errorf("skipping engine ticked group members %d times, strict %d; expected fewer", skipTicks, strictTicks)
	}
}

// TestWatchdog verifies that a driver reporting no progress trips the
// watchdog with a DeadlockError carrying the driver's dump, at the
// cycle the strict loop would trip it.
func TestWatchdog(t *testing.T) {
	for _, disable := range []bool{false, true} {
		d := &fakeDriver{n: 1, stride: NoEvent / 2} // effectively never completes
		e := New(Config{WatchdogCycles: 50, DisableIdleSkip: disable}, d)
		err := e.Run()
		if !errors.Is(err, fault.ErrDeadlock) {
			t.Fatalf("disable=%v: got %v, want ErrDeadlock", disable, err)
		}
		var de *fault.DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("disable=%v: error %T lacks DeadlockError", disable, err)
		}
		if de.Cycle != 51 {
			t.Errorf("disable=%v: watchdog fired at cycle %d, want 51", disable, de.Cycle)
		}
		if de.Dump == "" {
			t.Errorf("disable=%v: deadlock dump empty", disable)
		}
	}
}

// TestMaxCycles verifies the hard backstop.
func TestMaxCycles(t *testing.T) {
	d := &fakeDriver{n: 1, stride: NoEvent / 2}
	e := New(Config{MaxCycles: 100}, d)
	err := e.Run()
	var de *fault.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if de.Cycle != 101 {
		t.Errorf("backstop fired at cycle %d, want 101", de.Cycle)
	}
}

// TestHandleWake verifies that a driver poking a skipped component's
// handle forces its tick on the poked cycle.
func TestHandleWake(t *testing.T) {
	c := newFakeComp(1000, 1000) // would sleep essentially forever
	var h *Handle
	d := &wakeDriver{target: 42}
	e := New(Config{}, d)
	h = e.Register(c)
	d.h = h
	d.c = c
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if c.cycle < 43 {
		t.Errorf("component clock %d; the wake at 42 should have ticked it through 43", c.cycle)
	}
	if c.ticks == 0 {
		t.Error("component never ticked despite the wake")
	}
}

// wakeDriver idles until cycle target, pokes the component's handle
// there, and finishes once the component has been ticked past target.
type wakeDriver struct {
	target   uint64
	h        *Handle
	c        *fakeComp
	poked    bool
	progress uint64
}

func (d *wakeDriver) Step(now uint64) error {
	d.progress = now
	if now == d.target && !d.poked {
		d.h.Wake(now)
		d.poked = true
	}
	return nil
}

func (d *wakeDriver) NextWake(now uint64) uint64 {
	if !d.poked {
		if d.target < now {
			return now
		}
		return d.target
	}
	return now // spin until Done
}

func (d *wakeDriver) Done() bool        { return d.poked && d.c.cycle > d.target }
func (d *wakeDriver) Progress() uint64  { return d.progress }
func (d *wakeDriver) DebugDump() string { return "wakeDriver" }

// TestResumableClock verifies RunWhile leaves the clock where it
// stopped and a later call picks it up — the property Sessions build on.
func TestResumableClock(t *testing.T) {
	d := &fakeDriver{n: 4, stride: 10}
	e := New(Config{}, d)
	if err := e.RunWhile(func() bool { return d.done < 2 }); err != nil {
		t.Fatal(err)
	}
	if d.done != 2 {
		t.Fatalf("first RunWhile stopped with %d done, want 2", d.done)
	}
	mid := e.Now()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d.done != 4 {
		t.Fatalf("resumed run finished %d, want 4", d.done)
	}
	if e.Now() <= mid {
		t.Errorf("clock did not advance across resume: %d -> %d", mid, e.Now())
	}
}
