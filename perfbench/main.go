// Command perfbench is the PVA simulator's benchmark. It runs one named
// workload in a closed loop for a fixed time, checks every op's output,
// and prints every end-to-end metric by name with its unit; with
// -trace 1 it instead drives the same ops call by call under spans and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// opStats is what one op simulated: cycles (sum of Result.Cycles) and
// vector elements moved.
type opStats struct {
	cycles, elements uint64
}

// workload is one named input set. Every method runs on the caller's
// goroutine; an op may fan out to at most nproc workers internally.
type workload interface {
	// pass is the number of ops in one pass over the workload's fixed op
	// set; timed loops stop only at pass boundaries, so every run weighs
	// each op of the set equally.
	pass() int
	// op runs op i the way a user would (tracing off).
	op(i int) (opStats, error)
	// tracedOp runs the same op call by call through the layers' public
	// functions, recording spans into tr; a nil tr records nothing.
	tracedOp(tr *tracer, i int) (opStats, error)
	// check verifies the output of the op just run. It is not timed.
	check(acc *layerAcc) error
	// finish runs the end-of-run checks and returns the sim.* metrics of
	// one pass over the fixed op set.
	finish() (map[string]float64, error)
	// material is the workload's own data for the per-layer probes,
	// which measure every per-layer metric the same way on every workload.
	material() *material
}

type workloadDef struct {
	name, why, bypasses string
	setup               func(env *env) (workload, error)
}

// env is what every workload's setup receives.
type env struct {
	seed    uint64
	workers int    // worker goroutines an op may use: nproc
	workDir string // scratch directory inside the checkout
	golden  string // path of the 960-point seed golden
}

var workloads = []workloadDef{
	{
		name:     "paper-sweep",
		why:      "the paper's 960-cell evaluation at 1024 elements, default config, word decode; ~95% pvaunit front end + bankctl + engine",
		bypasses: "addrmap (closed-form word decode), autotune, ckptio",
		setup:    setupPaperSweep,
	},
	{
		name:     "autotune-ladder",
		why:      "AutotuneKernel over the 8 paper kernels at the paper strides; mostly the autotune surrogate and addrmap.Tuned.Decode",
		bypasses: "bankctl does little; ckptio",
		setup:    setupAutotune,
	},
	{
		name:     "stream-mixed",
		why:      "one client's closed-loop Sessions on a warm 2-channel xor System: strided reads/writes, indexed gathers/scatters, backpressure",
		bypasses: "kernels, harness, autotune, ckptio",
		setup:    setupStream,
	},
	{
		name:     "journaled-sweep",
		why:      "ResumableSweep with short vectors into a fresh journal, then a resume from a copy cut after half its records; ckptio dominates",
		bypasses: "autotune; bankctl is lightly loaded",
		setup:    setupJournaled,
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "seconds to measure")
	traced := fs.Int("trace", 0, "1: traced per-layer run; 0: untraced end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	e, err := newEnv(*seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.workDir)
	budget := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *traced == 1 {
		rep, err = tracedRun(def, e, budget)
	} else {
		rep, err = untracedRun(def, e, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.host = fingerprint(def.name, *seed)
	if err := rep.print(stdout, *traced == 1); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// newEnv prepares the scratch directory under the checkout's build
// directory. The golden file's presence doubles as the check that the
// benchmark runs from a checkout root.
func newEnv(seed uint64) (*env, error) {
	golden := filepath.Join("testdata", "seed_cycles.json")
	if _, err := os.Stat(golden); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return nil, err
	}
	return &env{seed: seed, workers: runtime.NumCPU(), workDir: dir, golden: golden}, nil
}

// report is one run's result.
type report struct {
	host      host
	workload  *workloadDef
	attempted int
	failed    int
	errs      []string
	values    map[string]float64
	notes     map[string]string
}

func newReport(def *workloadDef) *report {
	return &report{workload: def, values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) fail(op int, err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("op %d: %v", op, err))
	}
}

// print writes the human-readable report and then the JSON result line.
func (r *report) print(w io.Writer, traced bool) error {
	hj, err := json.Marshal(r.host)
	if err != nil {
		return err
	}
	mode := "untraced end-to-end run"
	defs := endToEnd
	if traced {
		mode = "traced per-layer run"
		defs = perLayer
	}
	fmt.Fprintf(w, "perfbench %s (%s)\n", r.workload.name, mode)
	fmt.Fprintf(w, "why: %s\nbypasses: %s\nhost: %s\n", r.workload.why, r.workload.bypasses, hj)
	for _, e := range r.errs {
		fmt.Fprintf(w, "FAILED %s\n", e)
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		line := fmt.Sprintf("%-30s %16.6g %-10s", d.Name, v, d.Unit)
		if n := r.notes[d.Name]; n != "" {
			line += "  " + n
		}
		if traced {
			line += fmt.Sprintf("  [moves %s; flat on %s]", d.Moves, d.Flat)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
		if d.Declared {
			out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		}
	}
	for _, d := range defs {
		if _, ok := r.values[d.Name]; d.Declared && !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	res, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", res)
	return err
}

// setupRepeats is how many times set-up runs; setup_s is their median,
// and the last set-up's state is the one measured.
const setupRepeats = 5

func setupMedian(def *workloadDef, e *env) (workload, float64, error) {
	var w workload
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		w, err = def.setup(e)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return w, median(times), nil
}

// minOps is the fewest timed ops a run makes, so op_ms.tail has its ten
// samples beyond the reported percentile.
const minOps = 20

// untracedRun is the end-to-end run: set-up, then a closed loop of ops
// for the time budget with tracing off.
func untracedRun(def *workloadDef, e *env, budget time.Duration) (*report, error) {
	w, setupS, err := setupMedian(def, e)
	if err != nil {
		return nil, err
	}
	rep := newReport(def)
	rep.values["setup_s"] = setupS
	rep.notes["setup_s"] = fmt.Sprintf("median of %d set-ups", setupRepeats)

	timedLoop(w, rep, budget, minOps)
	return rep, nil
}

// timedLoop runs ops in a closed loop until the budget is spent, at least
// minOps ops have run, and a pass is complete; it checks every op and
// fills rep with the end-to-end metrics.
func timedLoop(w workload, rep *report, budget time.Duration, minOps int) {
	var lat []float64
	var opTime time.Duration
	var sim opStats
	runtime.GC()
	heap := startHeapSampler()
	alloc0 := allocatedBytes()
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		st, err := w.op(i)
		dt := time.Since(t0)
		rep.attempted++
		if err == nil {
			err = w.check(nil)
		}
		if err != nil {
			rep.fail(i, err)
		}
		lat = append(lat, float64(dt)/1e6)
		opTime += dt
		sim.cycles += st.cycles
		sim.elements += st.elements
		if (i+1)%w.pass() == 0 && len(lat) >= minOps && time.Since(start) >= budget {
			break
		}
	}
	allocs := allocatedBytes() - alloc0
	rep.values["heap_peak_bytes"] = float64(heap.stop())

	sims, err := w.finish()
	if err != nil {
		rep.attempted++
		rep.fail(len(lat), fmt.Errorf("end-of-run check: %w", err))
	}
	for k, v := range sims {
		rep.values[k] = v
	}
	for k, v := range simNotes(sims) {
		rep.notes[k] = v
	}
	rep.values["op_ms.p50"] = median(lat)
	rep.notes["op_ms.p50"] = fmt.Sprintf("median of %d ops", len(lat))
	if v, pct, ok := tail(lat, 10); ok {
		rep.values["op_ms.tail"] = v
		rep.notes["op_ms.tail"] = fmt.Sprintf("p%.1f of %d ops (10 beyond it)", pct, len(lat))
	}
	rep.values["sim_cycles_per_s"] = float64(sim.cycles) / opTime.Seconds()
	rep.values["elements_per_s"] = float64(sim.elements) / opTime.Seconds()
	rep.values["alloc_bytes_per_op"] = float64(allocs) / float64(len(lat))
	rep.values["error_rate"] = float64(rep.failed) / float64(rep.attempted)
	rep.notes["error_rate"] = fmt.Sprintf("%d failed of %d attempted", rep.failed, rep.attempted)
}

// simNotes labels the headline speedups with their error against the
// paper's reported figures.
func simNotes(sims map[string]float64) map[string]string {
	notes := map[string]string{}
	for name, paper := range map[string]float64{
		"sim.speedup_vs_cacheline": 32.8,
		"sim.speedup_vs_gathering": 3.3,
	} {
		if v, ok := sims[name]; ok {
			notes[name] = fmt.Sprintf("paper %.1fx, error %+.1f%%", paper, 100*(v-paper)/paper)
		}
	}
	return notes
}

// tracedRun is the per-layer run: the same ops driven call by call under
// spans, the same ops again with spans off for the tracing overhead, and
// the per-layer probes over the workload's own data.
func tracedRun(def *workloadDef, e *env, budget time.Duration) (*report, error) {
	w, err := def.setup(e)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	rep := newReport(def)
	acc := newLayerAcc()
	if _, err := w.op(0); err != nil { // warm caches and pools
		return nil, err
	}
	if err := w.check(nil); err != nil {
		return nil, err
	}

	tr := newTracer()
	var tracedWall, plainWall time.Duration
	ops := 0
	start := time.Now()
	for ; ops < w.pass() || time.Since(start) < budget/3 || ops%w.pass() != 0; ops++ {
		tr.setOp(ops)
		root := tr.begin("bench.op")
		t0 := time.Now()
		_, err := w.tracedOp(tr, ops)
		tracedWall += time.Since(t0)
		tr.end(root)
		rep.attempted++
		if err == nil {
			err = w.check(acc)
		}
		if err != nil {
			rep.fail(ops, err)
		}
	}
	for i := 0; i < ops; i++ {
		t0 := time.Now()
		_, err := w.tracedOp(nil, i)
		plainWall += time.Since(t0)
		rep.attempted++
		if err == nil {
			err = w.check(nil)
		}
		if err != nil {
			rep.fail(i, err)
		}
	}
	if _, err := w.finish(); err != nil {
		rep.fail(ops, fmt.Errorf("end-of-run check: %w", err))
	}
	rep.values["trace.overhead_share"] = (tracedWall.Seconds() - plainWall.Seconds()) / plainWall.Seconds()
	rep.notes["trace.overhead_share"] = fmt.Sprintf("traced %.1f ms - untraced %.1f ms over %d ops",
		float64(tracedWall)/1e6, float64(plainWall)/1e6, ops)

	_, rootTotal := spanStats(tr.spans, "bench.op")
	self := layerSelf(tr.spans)
	for _, l := range spanLayers {
		rep.values["self_share."+l] = float64(self[l]) / float64(rootTotal)
		rep.notes["self_share."+l] = fmt.Sprintf("self %.2f ms of %.2f ms traced", float64(self[l])/1e6, float64(rootTotal)/1e6)
	}

	probes, notes, err := runProbes(w.material(), e)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		rep.values[k] = v
	}
	for k, v := range notes {
		rep.notes[k] = v
	}
	for k, v := range acc.metrics() {
		rep.values[k] = v
	}
	searchMetrics(acc, tr, rep)
	estimateShares(rep, acc, float64(rootTotal)/float64(ops))
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", def.name, e.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	rep.notes["trace.overhead_share"] += fmt.Sprintf("; %d spans in %s", len(tr.spans), path)
	return rep, nil
}

// estimateShares notes, beside a per-call cost, the share of op time it
// would explain at the workload's own per-op count. Both factors are
// printed; the product is an estimate, since the probe calls the layer
// outside the simulator's own loop.
func estimateShares(rep *report, acc *layerAcc, opNs float64) {
	s, ops := acc.stats, float64(acc.ops)
	for name, count := range map[string]uint64{
		"memsys.store_read_ns":  s.SDRAMReads,
		"memsys.store_write_ns": s.SDRAMWrites,
		"dramtech.access_ns":    s.SDRAMReads + s.SDRAMWrites,
	} {
		perOp := float64(count) / ops
		est := rep.values[name] * perOp
		rep.notes[name] = strings.TrimSpace(fmt.Sprintf("estimate: %.4g ns x %.0f per op = %.3g ms of %.3g ms per op (%.2f%%) %s",
			rep.values[name], perOp, est/1e6, opNs/1e6, 100*est/opNs, rep.notes[name]))
	}
}

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler polls the bytes held in heap objects and keeps the peak.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// stop ends sampling and returns the peak.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	h.sample()
	return h.peak
}
