package autotune

import (
	"reflect"
	"testing"

	"pva/internal/kernels"
)

// testWorkload is a small multi-stride mix: no single fixed decoder is
// ideal for all three strides, which is exactly the regime the tuner is
// for. 64-element vectors keep the full simulations fast.
func testWorkload(t *testing.T, name string) Workload {
	t.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return KernelWorkload(k, []uint32{1, 4, 19}, 0, 64)
}

func TestAutotuneSearchDeterministic(t *testing.T) {
	w := testWorkload(t, "copy")
	opts := Options{Seed: 42, Restarts: 3}

	serial := opts
	serial.Workers = 1
	a, err := Search(w, serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(w, serial)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}

	pooled := opts // Workers 0: fan out over the engine pool
	c, err := Search(w, pooled)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("serial and pooled disagree:\nserial %+v\npooled %+v", a, c)
	}
}

func TestAutotuneSeedChangesRestarts(t *testing.T) {
	w := testWorkload(t, "copy")
	a, err := Search(w, Options{Seed: 1, Restarts: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(w, Options{Seed: 2, Restarts: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds may still converge to the same winner; what must
	// hold is that both are internally consistent and neither loses to
	// the fixed baselines.
	for _, r := range []*Result{a, b} {
		if _, best := r.BestFixed(); r.Best.Cycles > best {
			t.Fatalf("seed run lost to fixed baseline: best %d vs %d", r.Best.Cycles, best)
		}
	}
}

func TestAutotuneNeverLosesToWordOrXOR(t *testing.T) {
	for _, name := range []string{"copy", "saxpy", "tridiag"} {
		w := testWorkload(t, name)
		res, err := Search(w, Options{Seed: 7, Restarts: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// The unrefined landmarks are always promoted, so the measured
		// winner is at most the word and xor totals by construction.
		for _, base := range []string{"word", "xor"} {
			if res.Best.Cycles > res.Baselines[base] {
				t.Errorf("%s: tuned %d cycles worse than %s %d", name, res.Best.Cycles, base, res.Baselines[base])
			}
		}
		if res.Best.Spec == "" || res.Best.Cycles == 0 {
			t.Errorf("%s: winner missing evidence: %+v", name, res.Best)
		}
	}
}

func TestAutotuneLadderCounts(t *testing.T) {
	w := testWorkload(t, "saxpy")
	res, err := Search(w, Options{Seed: 3, Restarts: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SurrogateEvals == 0 {
		t.Fatal("surrogate rung never ran")
	}
	// Full simulations: one per survivor plus the three baselines.
	if want := len(res.Survivors) + 3; res.FullEvals != want {
		t.Fatalf("FullEvals = %d, want %d (survivors %d + 3 baselines)", res.FullEvals, want, len(res.Survivors))
	}
	if res.SurrogateEvals < res.FullEvals {
		t.Fatalf("ladder inverted: %d surrogate vs %d full evaluations", res.SurrogateEvals, res.FullEvals)
	}
	for i := 1; i < len(res.Survivors); i++ {
		if res.Survivors[i-1].Cycles > res.Survivors[i].Cycles {
			t.Fatalf("survivors not sorted by cycles: %+v", res.Survivors)
		}
	}
	// Pinned values: any change to the surrogate's evaluation (not just
	// its cost model) must leave the search's walk and output unchanged.
	if res.SurrogateEvals != 366 || res.FullEvals != 9 {
		t.Errorf("evals = %d surrogate, %d full; want 366, 9", res.SurrogateEvals, res.FullEvals)
	}
	if res.Best.Spec != "tuned:0x1111111,0x2222222,0x4444444,0x8888888" || res.Best.Cycles != 376 {
		t.Errorf("best = %s at %d cycles", res.Best.Spec, res.Best.Cycles)
	}
	var sur []uint64
	for _, c := range res.Survivors {
		sur = append(sur, c.Surrogate)
	}
	if want := []uint64{624, 372, 348, 339, 504, 351}; !reflect.DeepEqual(sur, want) {
		t.Errorf("survivor surrogates = %v, want %v", sur, want)
	}
}

func TestAutotuneDisableSurrogate(t *testing.T) {
	w := testWorkload(t, "copy")
	res, err := Search(w, Options{Seed: 5, Restarts: 1, Workers: 1, MaskBits: 3, DisableSurrogate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SurrogateEvals != 0 {
		t.Fatalf("surrogate ran %d times with DisableSurrogate", res.SurrogateEvals)
	}
	if res.FullEvals <= len(res.Survivors)+3 {
		t.Fatalf("full-sim-only search did too few simulations: %d", res.FullEvals)
	}
	if _, best := res.BestFixed(); res.Best.Cycles > best {
		t.Fatalf("full-sim search lost to fixed baseline: %d vs %d", res.Best.Cycles, best)
	}
	if res.FullEvals != 83 || res.Best.Spec != "tuned:0x1,0x2,0x0,0x0" || res.Best.Cycles != 254 {
		t.Errorf("full-sim search: %d full evals, best %s at %d cycles; want 83, tuned:0x1,0x2,0x0,0x0 at 254",
			res.FullEvals, res.Best.Spec, res.Best.Cycles)
	}
}

func TestAutotuneEmptyWorkload(t *testing.T) {
	if _, err := Search(Workload{Name: "empty"}, Options{}); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestAutotuneMultiChannelShape(t *testing.T) {
	w := testWorkload(t, "copy")
	res, err := Search(w, Options{Seed: 11, Restarts: 2, Channels: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []string{"word", "xor"} {
		if res.Best.Cycles > res.Baselines[base] {
			t.Fatalf("4-channel tuned %d worse than %s %d", res.Best.Cycles, base, res.Baselines[base])
		}
	}
}
