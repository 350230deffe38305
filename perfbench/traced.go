package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// The traced run records a span around every call this package makes into
// a layer's public functions. Spans are kept in memory and written to
// spans.json in the run directory when the run ends.

// span is one timed call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	// StartNS and EndNS count from the tracer's creation.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// AllocBytes and GCCycles are runtime/metrics deltas over the span:
	// heap bytes allocated and GC cycles completed.
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint64 `json:"gc_cycles"`
}

type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // indices of open spans, innermost last
	buf   []metrics.Sample
}

func newTracer(run string) *tracer {
	return &tracer{
		run: run,
		t0:  time.Now(),
		buf: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}},
	}
}

func (t *tracer) readMetrics() (alloc, cycles uint64) {
	metrics.Read(t.buf)
	return t.buf[0].Value.Uint64(), t.buf[1].Value.Uint64()
}

// begin opens a span as a child of the innermost open one. The runtime
// metrics are read before the clock starts, so their cost stays outside
// the span.
func (t *tracer) begin(name string) {
	s := span{ID: len(t.spans) + 1, Run: t.run, Name: name}
	if n := len(t.open); n > 0 {
		s.Parent = t.spans[t.open[n-1]].ID
	}
	s.AllocBytes, s.GCCycles = t.readMetrics()
	s.StartNS = int64(time.Since(t.t0))
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, s)
}

// end closes the innermost open span and returns it.
func (t *tracer) end() span {
	now := int64(time.Since(t.t0))
	alloc, cycles := t.readMetrics()
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.EndNS = now
	s.AllocBytes = alloc - s.AllocBytes
	s.GCCycles = cycles - s.GCCycles
	return *s
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// write saves the spans with the machine they ran on.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Run     string `json:"run"`
		Machine string `json:"machine"`
		Spans   []span `json:"spans"`
	}{t.run, machine(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// settle collects the previous phase's garbage outside any span, so a
// span does not pay for its predecessor's heap.
func settle() { runtime.GC() }

// finishTrace writes the spans and logs where they went.
func (e *env) finishTrace(t *tracer) error {
	path := filepath.Join(e.work, "spans.json")
	if err := t.write(path); err != nil {
		return err
	}
	e.logf("wrote %d spans to %s", len(t.spans), path)
	return nil
}

func runID(e *env, workload string) string {
	return fmt.Sprintf("%s-seed%d-%d", workload, e.seed, time.Now().UnixNano())
}
