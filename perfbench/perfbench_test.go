package main

// The benchmark's self-test, at a tiny scale:
//
//	cd perfbench && go test ./...
//
// It builds darkcrowd, runs every workload in both modes, and checks that
// every named metric comes out with its unit and that the correctness
// checks reject corrupted reports.

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"darkcrowd/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite metrics.json from the tables")

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// darkcrowdBin builds the program under test once per test binary.
func darkcrowdBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-test")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "darkcrowd")
		out, err := exec.Command("go", "build", "-o", binPath, "darkcrowd/cmd/darkcrowd").CombinedOutput()
		if err != nil {
			buildErr = err
			binPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("build darkcrowd: %v: %s", buildErr, binPath)
	}
	return binPath
}

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if binPath != "" && buildErr == nil {
		os.RemoveAll(filepath.Dir(binPath))
	}
	os.Exit(code)
}

// TestEveryMetricEmitted runs each workload in both modes and checks the
// result line: correct, and exactly the listed metrics, each with its
// unit and a finite value.
func TestEveryMetricEmitted(t *testing.T) {
	bin := darkcrowdBin(t)
	dir := t.TempDir()
	for _, w := range workloadNames() {
		for _, mode := range []string{"0", "1"} {
			var out bytes.Buffer
			err := run([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", mode, "--tiny", "--bin", bin, "--dir", dir}, &out)
			if err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w, mode, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w, mode, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w, mode, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := endToEndMetrics
			if mode == "1" {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, mode, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w, mode, d.name)
				case m.Unit != d.unit || m.Unit == "":
					t.Errorf("%s trace=%s: metric %s has unit %q, want %q", w, mode, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%s: metric %s = %v", w, mode, d.name, m.Value)
				}
			}
		}
	}
}

// TestChecksRejectCorruptReports corrupts a real report in the ways the
// checks exist to catch.
func TestChecksRejectCorruptReports(t *testing.T) {
	bin := darkcrowdBin(t)
	dir := t.TempDir()
	spec := tinyCrowd(crowd15k.crowd)
	crowd, ref, report := filepath.Join(dir, "crowd.csv"), filepath.Join(dir, "ref.json"), filepath.Join(dir, "report.json")
	if _, err := runProc(bin, generateArgs(spec, 5, crowd)...); err != nil {
		t.Fatal(err)
	}
	if _, err := runProc(bin, "reference", "-out", ref); err != nil {
		t.Fatal(err)
	}
	if _, err := runProc(bin, geolocateArgs(crowd, ref, report, 4)...); err != nil {
		t.Fatal(err)
	}
	load := func() *pipeline.Report {
		rep, err := readReport(report)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if err := checkBatchReport(load(), spec.regions, 4); err != nil {
		t.Fatalf("intact report rejected: %v", err)
	}

	corruptions := map[string]func(*pipeline.Report){
		"heaviest component moved 6 h": func(r *pipeline.Report) { r.Components[0].Offset += 6 },
		"no components":                func(r *pipeline.Report) { r.Components = nil },
		"provenance record tampered":   func(r *pipeline.Report) { r.Provenance.Records[1].Hash = strings.Repeat("f", 64) },
		"provenance missing":           func(r *pipeline.Report) { r.Provenance = nil },
		"bootstrap missing":            func(r *pipeline.Report) { r.Confidence = nil },
		"margins missing":              func(r *pipeline.Report) { r.MarginSummary = nil },
	}
	for name, corrupt := range corruptions {
		rep := load()
		corrupt(rep)
		if err := checkBatchReport(rep, spec.regions, 4); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
	// A region the crowd was not generated from.
	if err := checkBatchReport(load(), []regionCount{{"us-ca", 1}}, 4); err == nil {
		t.Error("components checked against the wrong regions passed")
	}

	intact := load()
	if err := sameFit("self", load().Geolocation, intact.Geolocation); err != nil {
		t.Fatalf("identical fits differ: %v", err)
	}
	moved := load()
	moved.Mixture[0].Weight = math.Nextafter(moved.Mixture[0].Weight, 2)
	if err := sameFit("one ulp", moved.Geolocation, intact.Geolocation); err == nil {
		t.Error("a mixture weight one ulp off passed the equality check")
	}
	serve := &pipeline.ServeReport{Gen: 10, Posts: 10, Geo: intact.Geolocation}
	if err := checkServeReport(serve, 10, spec.regions); err != nil {
		t.Errorf("intact serve report rejected: %v", err)
	}
	if err := checkServeReport(serve, 11, spec.regions); err == nil {
		t.Error("a serve report missing a post passed")
	}
}

// TestDescriptionsInStep keeps metrics.json and BENCHMARK.json in step with
// the tables in workloads.go.
func TestDescriptionsInStep(t *testing.T) {
	want, err := json.MarshalIndent(describe(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("metrics.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("metrics.json is stale; rerun with -update")
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q with the table's why", i, w.Name, workloads[i].name)
		}
	}
	if len(bench.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, want %d", len(bench.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bench.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("BENCHMARK.json end-to-end metric %d is %+v, want %s %s %s %g", i, m, d.name, d.unit, d.better, d.bound)
		}
	}
	if len(bench.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, want %d", len(bench.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bench.PerLayer {
		d := perLayerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("BENCHMARK.json per-layer metric %d is %+v, want %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
}
