package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// batchEndToEnd measures a batch workload: set-up builds the reference
// profile, then `darkcrowd geolocate` runs on the crowds in turn for the
// measurement time, and every report it writes is checked.
func batchEndToEnd(e *env, shape batchShape) (map[string]metric, error) {
	crowds, err := e.batchInputs(shape)
	if err != nil {
		return nil, err
	}
	ref := filepath.Join(e.work, "ref.json")
	setup, err := e.buildReference(ref, referenceBuilds)
	if err != nil {
		return nil, err
	}
	report := filepath.Join(e.work, "report.json")
	walls := make([][]float64, len(crowds)) // per crowd
	rss := make([][]float64, len(crowds))
	start := time.Now()
	var last time.Duration
	first := e.firstCrowd(len(crowds))
	for reps := 0; keepGoing(time.Since(start), last, e.seconds, reps, len(crowds)); reps++ {
		i := (first + reps) % len(crowds)
		r, err := e.geolocate(crowds[i], ref, report, shape)
		last = r.wall
		e.op(err)
		if err != nil {
			continue
		}
		if err := e.ownRSS(r.rssMB); err != nil {
			return nil, err
		}
		walls[i] = append(walls[i], seconds(r.wall))
		rss[i] = append(rss[i], r.rssMB)
	}
	// How long a crowd takes depends on the crowd, so each crowd's median
	// is averaged over the crowds: the mean estimates the workload's cost
	// per crowd, where a median over a few crowds would jump between them.
	// Peak RSS is aggregated the same way: it moves with where the GC
	// happens to run, from process to process.
	var perCrowd, perCrowdRSS []float64
	for i, w := range walls {
		if len(w) == 0 {
			return nil, fmt.Errorf("every geolocate run of crowd %d failed: %s", i, e.errs[0])
		}
		e.logSamples(fmt.Sprintf("crowd %d geolocate s", i), w)
		e.logSamples(fmt.Sprintf("crowd %d peak RSS MB", i), rss[i])
		perCrowd = append(perCrowd, median(w))
		perCrowdRSS = append(perCrowdRSS, median(rss[i]))
	}
	return map[string]metric{
		"result_s":    {Value: mean(perCrowd)},
		"setup_s":     {Value: median(setup)},
		"peak_rss_mb": {Value: mean(perCrowdRSS)},
	}, nil
}

// firstCrowd is the crowd a run starts with: the seed rotates the order
// the crowds are run in.
func (e *env) firstCrowd(n int) int {
	return int((e.seed%int64(n) + int64(n)) % int64(n))
}

// buildReference runs `darkcrowd reference` n times into path and returns
// each build's wall time in seconds.
func (e *env) buildReference(path string, n int) ([]float64, error) {
	var walls []float64
	for i := 0; i < n; i++ {
		r, err := runProc(e.bin, "reference", "-out", path)
		e.op(err)
		if err != nil {
			return nil, err
		}
		walls = append(walls, seconds(r.wall))
	}
	e.logSamples("reference builds", walls)
	return walls, nil
}

// geolocate runs one `darkcrowd geolocate` with the workload's flags and
// checks the report it writes. The process is timed from start to exit.
func (e *env) geolocate(crowd, ref, report string, shape batchShape) (procRun, error) {
	if err := os.Remove(report); err != nil && !errors.Is(err, os.ErrNotExist) {
		return procRun{}, err
	}
	r, err := runProc(e.bin, geolocateArgs(crowd, ref, report, shape.bootstrap)...)
	if err != nil {
		return r, err
	}
	rep, err := readReport(report)
	if err != nil {
		return r, err
	}
	return r, checkBatchReport(rep, shape.crowd.regions, shape.bootstrap)
}

// geolocateArgs is the batch workloads' command line.
func geolocateArgs(crowd, ref, report string, bootstrap int) []string {
	return []string{"geolocate", "-in", crowd, "-ref", ref, "-margins", "-provenance",
		"-bootstrap", strconv.Itoa(bootstrap), "-out", report}
}
