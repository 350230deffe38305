package main

// benchgen -bench: measure the tracked data-path kernels and write a
// machine-readable report (BENCH_placement.json at the repo root).
//
// The report pins three things per workload: ns/op, B/op and allocs/op, as
// produced by the shared internal/bench harness on the same synthetic
// Twitter dataset the experiments use. It also embeds the pre-columnar
// baseline — the numbers the same workloads measured before the columnar
// trace store, the integer profile builder and the all-rotations EMD
// kernel landed — so the speedup columns in EXPERIMENTS.md can be
// regenerated from one place.
//
//	benchgen -bench                          # run suite, write BENCH_placement.json
//	benchgen -bench -bench-out out.json      # write elsewhere
//	benchgen -bench -check                   # also fail (>2x ns/op) vs checked-in report
//	benchgen -bench -cpuprofile cpu.pprof    # pprof profiles of the suite
//	benchgen -bench -memprofile mem.pprof
//
// The -check gate compares the fresh run against the report already on
// disk, not against the embedded baseline: CI uses it to catch ns/op
// regressions of more than 2x on any tracked workload while tolerating the
// noise of shared runners.

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"darkcrowd/internal/bench"
	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/stats"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
)

// preColumnarBaseline holds the tracked workloads as measured at commit
// 472e580 (row-oriented Dataset, string-keyed profile builder, one
// EMDCircular call per zone), on the same class of machine CI uses
// (Intel Xeon @ 2.10GHz, GOMAXPROCS=1). Keyed by twitter scale.
var preColumnarBaseline = map[int]map[string]bench.Metric{
	20: {
		"profile_build":         {NsPerOp: 65962482, BytesPerOp: 23944541, AllocsPerOp: 329148},
		"generic_profile_build": {NsPerOp: 143575089, BytesPerOp: 62598403, AllocsPerOp: 327494},
		"placement":             {NsPerOp: 18680551, BytesPerOp: 88000, AllocsPerOp: 13},
		"dataset_index":         {NsPerOp: 10132673, BytesPerOp: 11816771, AllocsPerOp: 8636},
		"csv_read":              {NsPerOp: 34509608, BytesPerOp: 28836030, AllocsPerOp: 206767},
		"csv_write":             {NsPerOp: 14293301, BytesPerOp: 5556828, AllocsPerOp: 103364},
	},
	40: {
		"profile_build":         {NsPerOp: 29878734, BytesPerOp: 11980292, AllocsPerOp: 163790},
		"generic_profile_build": {NsPerOp: 70631568, BytesPerOp: 28816259, AllocsPerOp: 163361},
		"placement":             {NsPerOp: 10521697, BytesPerOp: 47128, AllocsPerOp: 11},
		"dataset_index":         {NsPerOp: 5438488, BytesPerOp: 5899199, AllocsPerOp: 4287},
		"csv_read":              {NsPerOp: 19891641, BytesPerOp: 14266484, AllocsPerOp: 102953},
		"csv_write":             {NsPerOp: 7438496, BytesPerOp: 2771012, AllocsPerOp: 51459},
	},
}

// runBench measures the tracked workloads and writes the JSON report to
// outPath. A non-empty checkPath additionally gates the run on the report
// committed there (see bench.CheckRegression).
func runBench(scale int, seed int64, outPath, checkPath string, cpuProfile, memProfile string) int {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: start CPU profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	ds, err := synth.TwitterDataset(seed, synth.TwitterOptions{Scale: scale})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: build dataset: %v\n", err)
		return 1
	}
	generic, err := profile.BuildGeneric(ds, profile.GenericOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: build generic profile: %v\n", err)
		return 1
	}
	var csvBuf bytes.Buffer
	if err := ds.WriteCSV(&csvBuf); err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: serialize dataset: %v\n", err)
		return 1
	}
	csvBytes := csvBuf.Bytes()

	workloads := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"profile_build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := profile.BuildUserProfiles(ds, profile.BuildOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"generic_profile_build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := profile.BuildGeneric(ds, profile.GenericOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"placement", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := geoloc.PlaceUsers(generic.UserProfiles, generic.Generic, geoloc.PlaceOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"dataset_index", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds.InvalidateIndex()
				if got := ds.ByUser(); len(got) == 0 {
					b.Fatal("empty ByUser")
				}
			}
		}},
		{"csv_read", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := trace.ReadCSVOpts("bench", bytes.NewReader(csvBytes), trace.ReadCSVOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"csv_write", func(b *testing.B) {
			var buf bytes.Buffer
			buf.Grow(len(csvBytes))
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := ds.WriteCSV(&buf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"emd_all_rotations", func(b *testing.B) {
			p := generic.Generic
			q := profile.Uniform()
			out := make([]float64, len(p))
			scratch := make([]float64, 2*len(p))
			for i := 0; i < b.N; i++ {
				if _, err := stats.EMDCircularAllRotations(p[:], q[:], out, scratch); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	report := bench.NewReport("benchgen -bench", scale, seed)
	for _, w := range workloads {
		report.RunMinOf(os.Stdout, w.name, 1, w.fn)
	}
	report.DeriveBaseline(preColumnarBaseline[scale])

	if checkPath != "" {
		if err := bench.CheckRegression(os.Stdout, checkPath, report.Workloads, 2); err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: -check: %v\n", err)
			return 1
		}
	}

	if err := report.WriteFile(outPath); err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", outPath)

	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: -memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: write heap profile: %v\n", err)
			return 1
		}
	}
	return 0
}
