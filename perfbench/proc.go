package main

import (
	"bytes"
	"fmt"
	"math"
	"os/exec"
	"slices"
	"strings"
	"syscall"
	"time"
)

// procRun is one finished process of the program under test.
type procRun struct {
	wall  time.Duration // start to exit
	rssMB float64       // rusage maxrss
}

// runProc runs bin with args to completion. Standard output is discarded;
// standard error is kept for the failure message.
func runProc(bin string, args ...string) (procRun, error) {
	cmd := command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	r := procRun{wall: time.Since(t0)}
	if cmd.ProcessState != nil {
		r.rssMB = maxRSSMB(cmd.ProcessState.SysUsage())
	}
	if err != nil {
		return r, fmt.Errorf("%s %v: %w: %s", bin, args, err, lastLine(stderr.String()))
	}
	return r, nil
}

// command prepares a child process of the benchmark. The child is killed
// if the benchmark itself dies, so an interrupted run leaves no process
// behind.
func command(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// maxRSSMB reads a finished process's peak resident set size (Linux
// reports maxrss in KiB).
func maxRSSMB(usage any) float64 {
	ru, ok := usage.(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// ownRSS checks that a measured child's peak RSS is its own. Linux folds
// the memory of the process a child was started from into the child's
// maxrss, so a value not above this process's own peak may be this
// process's; the self-test's processes are too small to tell apart.
func (e *env) ownRSS(childMB float64) error {
	if e.tiny {
		return nil
	}
	var self syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &self); err != nil {
		return err
	}
	if own := float64(self.Maxrss) / 1024; childMB <= own {
		return fmt.Errorf("a measured process's peak RSS (%.1f MB) does not exceed the benchmark's own (%.1f MB)", childMB, own)
	}
	return nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// median of the values (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile is the nearest-rank q-quantile of exact samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// keepGoing reports whether another repetition fits the measurement time:
// the next one starts only when it is expected to end within half a
// repetition of the deadline. The first minReps always run.
func keepGoing(elapsed, last time.Duration, budget float64, reps, minReps int) bool {
	if reps < minReps {
		return true
	}
	return elapsed.Seconds()+last.Seconds()/2 < budget
}
