// Command perfbench is the repository's benchmark: it drives the built
// darkcrowd binary through three scripted workloads, checks every output,
// and prints one JSON result line.
//
//	perfbench --workload batch_crowd15k --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it measures the end-to-end metrics of the workload with
// tracing off. With --trace 1 it runs the workload once more in-process,
// calling each layer's public functions from this package with a span
// around every call, and reports the per-layer metrics. metrics.json lists
// every metric, the call it times and the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is what every workload run shares.
type env struct {
	bin     string // the darkcrowd binary under test
	work    string // scratch directory for this run's files
	fixture string // cache directory of generated inputs
	seed    int64
	seconds float64
	tiny    bool // self-test scale
	out     io.Writer

	ops  int // operations attempted
	fail int // operations that failed or gave a wrong answer
	errs []string
}

// op records one attempted operation; a non-nil err counts it as failed.
func (e *env) op(err error) {
	e.ops++
	if err != nil {
		e.fail++
		if len(e.errs) < 20 {
			e.errs = append(e.errs, err.Error())
		}
	}
}

// logf prints a human-readable line; the JSON result is always the last
// line of standard output.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.out, format+"\n", args...)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name (see metrics.json)")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 25, "measurement time per run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer run")
	bin := fs.String("bin", ".bench_build/darkcrowd", "darkcrowd binary under test")
	dir := fs.String("dir", ".bench_build", "directory for fixtures and run files")
	tiny := fs.Bool("tiny", false, "shrink every workload for the self-test")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if _, err := os.Stat(*bin); err != nil {
		return fmt.Errorf("darkcrowd binary: %w", err)
	}
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		return err
	}
	e := &env{
		bin:     absBin,
		work:    filepath.Join(*dir, "work", w.name),
		fixture: filepath.Join(*dir, "fixtures", w.name),
		seed:    *seed,
		seconds: *seconds,
		tiny:    *tiny,
		out:     stdout,
	}
	if err := os.RemoveAll(e.work); err != nil {
		return err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	e.logf("perfbench %s seed=%d seconds=%g trace=%d", w.name, e.seed, e.seconds, *traced)
	e.logf("machine: %s", machine())

	var ms map[string]metric
	if *traced == 1 {
		ms, err = w.traced(e)
	} else {
		ms, err = w.endToEnd(e)
	}
	if err != nil {
		return err
	}
	want := endToEndMetrics
	if *traced == 1 {
		want = perLayerMetrics
	}
	for _, d := range want {
		m, ok := ms[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", w.name, d.name)
		}
		m.Unit = d.unit
		ms[d.name] = m
	}
	// The workload measured exactly the listed metrics; anything else is a
	// bug in this package.
	if len(ms) != len(want) {
		return fmt.Errorf("workload %s measured %d metrics, want %d", w.name, len(ms), len(want))
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e.logf("metric %-32s %14.6g %s", n, ms[n].Value, ms[n].Unit)
	}
	e.logf("failed_ops_ratio %d/%d = %g", e.fail, e.ops, ratio(e.fail, e.ops))
	for _, s := range e.errs {
		e.logf("FAILED: %s", s)
	}
	if e.ops == 0 {
		return errors.New("no operation attempted")
	}
	line, err := json.Marshal(result{Correct: e.fail == 0, Attempted: e.ops, Failed: e.fail, Metrics: ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// machine describes the hardware and runtime the run used.
func machine() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}

// logSamples prints a summary of the samples behind a metric.
func (e *env) logSamples(what string, xs []float64) {
	e.logf("%s: %d samples, min %.6g, median %.6g, max %.6g", what, len(xs), slices.Min(xs), median(xs), slices.Max(xs))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
