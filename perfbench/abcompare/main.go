// Command abcompare is a stdlib-only A/B comparator for the benchmark.
// It runs the benchmark in two checkouts — the parent (A) and the change
// (B) — as ten interleaved pairs per workload on one host, alternating
// which side runs first, with the same seed on both sides of a pair and a
// new seed per pair. Every workload of B's BENCHMARK.json is compared.
// Per (workload, metric) it reports each side's median and quartiles, B's
// win fraction over the pairs, and a verdict against the metric's bound
// from B's BENCHMARK.json:
//
//	regression     B's median is worse than A's by more than the bound
//	unresolved     a side's quartile spread exceeds the bound, unless
//	               every B run beats every A run
//	gain           B wins at least 9 of 10 pairs and the medians differ
//	               by more than A's own quartile spread
//	failing        would be a gain, but B fails more ops than A or some
//	               B run is not correct
//	same           otherwise
//
// Simulated metrics (names starting with "sim.") are not timed: both
// sides of a pair must report exactly the same value ("identical"), and
// any difference is "model changed", never a gain or a regression.
//
// abcompare exits 3 if any verdict is regression, failing or model
// changed, or if B fails more ops than A or some B run is not correct.
//
// Usage, from anywhere:
//
//	go run ./abcompare -a /path/to/parent -b /path/to/change
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one end-to-end metric as BENCHMARK.json declares it.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// pairs is the number of interleaved pairs per workload: a gain needs
// at least 9 wins in 10.
const pairs = 10

// firstSeed is the seed of the first pair; pair i uses firstSeed+i.
const firstSeed = 1

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abcompare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dirA := fs.String("a", "", "checkout of the parent commit")
	dirB := fs.String("b", "", "checkout of the change")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dirA == "" || *dirB == "" {
		fmt.Fprintln(stderr, "abcompare: need -a and -b")
		return 2
	}
	b, err := readBenchmark(*dirB)
	if err != nil {
		fmt.Fprintln(stderr, "abcompare:", err)
		return 1
	}
	bad := 0
	for _, w := range b.Workloads {
		runs := map[string][]result{}
		for i := 0; i < pairs; i++ {
			order := []string{"a", "b"}
			if i%2 == 1 {
				order = []string{"b", "a"}
			}
			for _, side := range order {
				dir := *dirA
				if side == "b" {
					dir = *dirB
				}
				res, err := runOnce(dir, b, w.Name, uint64(firstSeed+i))
				if err != nil {
					fmt.Fprintf(stderr, "abcompare: %s %s pair %d: %v\n", w.Name, side, i, err)
					return 1
				}
				runs[side] = append(runs[side], res)
			}
		}
		for _, m := range b.EndToEnd {
			c := judge(m, runs["a"], runs["b"])
			if failingVerdict(c.verdict) {
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %-20s A %s  B %s  B wins %2d/%-2d  %s\n", w.Name, m.Name,
				fmtQ(c.a), fmtQ(c.b), c.wins, c.pairs, c.verdict)
		}
		verdict := "ok"
		if worseOps(runs["a"], runs["b"]) {
			verdict = "failing"
			bad++
		}
		fmt.Fprintf(stdout, "%-16s %-20s A %d/%d failed  B %d/%d failed  %s\n", w.Name, "ops",
			failed(runs["a"]), attempted(runs["a"]), failed(runs["b"]), attempted(runs["b"]), verdict)
	}
	if bad > 0 {
		return 3
	}
	return 0
}

func failingVerdict(v string) bool {
	return v == "regression" || v == "failing" || v == "model changed"
}

// worseOps reports whether B fails more ops than A or some B run is not
// correct: then no metric of B counts as a gain.
func worseOps(a, b []result) bool {
	if failed(b) > failed(a) {
		return true
	}
	for _, r := range b {
		if !r.Correct {
			return true
		}
	}
	return false
}

// judge gives one metric's verdict over the paired runs (a[i] and b[i]
// ran with the same seed).
func judge(m metric, a, b []result) comparison {
	xa, xb := values(a, m.Name), values(b, m.Name)
	if strings.HasPrefix(m.Name, "sim.") {
		c := comparison{a: summarize(xa), b: summarize(xb), pairs: len(xa), verdict: "identical"}
		if len(xa) == 0 || len(xa) != len(xb) {
			c.verdict = "missing"
		}
		for i := range xa {
			if i < len(xb) && xa[i] != xb[i] {
				c.verdict = "model changed"
			}
		}
		return c
	}
	c := compare(m, xa, xb)
	if c.verdict == "gain" && worseOps(a, b) {
		c.verdict = "failing"
	}
	return c
}

func readBenchmark(dir string) (*benchmark, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(b.Command) == 0 {
		return nil, errors.New("BENCHMARK.json has no command")
	}
	return &b, nil
}

// runOnce runs the benchmark command in dir and parses its last line.
func runOnce(dir string, b *benchmark, workload string, seed uint64) (result, error) {
	args := append(append([]string(nil), b.Command[1:]...),
		"--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(b.RunSeconds), "--trace", "0")
	cmd := exec.Command(b.Command[0], args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("last line: %w", err)
	}
	return res, nil
}

func values(rs []result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func failed(rs []result) (n int) {
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func attempted(rs []result) (n int) {
	for _, r := range rs {
		n += r.Attempted
	}
	return n
}

// summary is a side's median and quartiles.
type summary struct{ q1, med, q3 float64 }

func fmtQ(s summary) string {
	return fmt.Sprintf("%11.5g [%.5g, %.5g]", s.med, s.q1, s.q3)
}

type comparison struct {
	a, b        summary
	wins, pairs int
	verdict     string
}

// compare applies the verdict rules to one metric's paired values
// (a[i] and b[i] come from pair i).
func compare(m metric, a, b []float64) comparison {
	c := comparison{a: summarize(a), b: summarize(b), pairs: len(a)}
	if len(a) == 0 || len(a) != len(b) {
		c.verdict = "missing"
		return c
	}
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := range a {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	worse := c.b.med - c.a.med
	if m.Better == "higher" {
		worse = -worse
	}
	base := math.Abs(c.a.med)
	spreadA, spreadB := c.a.q3-c.a.q1, c.b.q3-c.b.q1
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case base > 0 && worse > m.Bound*base:
		c.verdict = "regression"
	case base > 0 && (spreadA > m.Bound*base || spreadB > m.Bound*math.Abs(c.b.med)) && !allBetter:
		c.verdict = "unresolved"
	case 10*c.wins >= 9*c.pairs && -worse > spreadA:
		c.verdict = "gain"
	default:
		c.verdict = "same"
	}
	return c
}

// summarize returns the median and quartiles by the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method).
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return summary{s[0], s[0], s[0]}
	}
	q := func(i int) float64 {
		n := len(s)
		m := i * (n + 1)
		j := m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(m - 4*j)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return summary{q(1), q(2), q(3)}
}
