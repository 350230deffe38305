package main

// benchgen -bench-ingest: measure the ingest data path — sequential CSV
// parse, sharded parallel parse, binary snapshot encode/decode, and the
// two ends of the ingest→profile pipeline (sequential read + columnar
// build vs. sharded read + fused build) — and write BENCH_ingest.json.
//
//	benchgen -bench-ingest                         # run suite, write BENCH_ingest.json
//	benchgen -bench-ingest -ingest-workers 8       # shard the parser differently
//	benchgen -bench-ingest -check                  # regression + speedup gates (CI)
//
// With -check the suite enforces two hard ratios on top of the usual 2x
// regression gate: snapshot_load must be at least 5x faster than
// csv_read (the point of the snapshot format is skipping the parse), and
// ingest_fused must beat ingest_seq outright (the point of fusing the
// profile build into the parse).

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"darkcrowd/internal/bench"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
)

// ingestGates are the hard cross-workload speedup floors -check enforces.
var ingestGates = map[string]float64{
	"snapshot_load_speedup_vs_csv_read": 5,
	"ingest_fused_speedup_vs_seq":       1,
}

// runIngestBench measures the ingest workloads and writes the JSON report
// to outPath. A non-empty checkPath gates on the committed report plus
// the hard speedup floors in ingestGates.
func runIngestBench(scale int, seed int64, workers int, outPath, checkPath string) int {
	ds, err := synth.TwitterDataset(seed, synth.TwitterOptions{Scale: scale})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: build dataset: %v\n", err)
		return 1
	}
	var csvBuf bytes.Buffer
	if err := ds.WriteCSV(&csvBuf); err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: serialize dataset: %v\n", err)
		return 1
	}
	csvBytes := csvBuf.Bytes()
	var snapBuf bytes.Buffer
	if err := ds.WriteSnapshot(&snapBuf); err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: serialize snapshot: %v\n", err)
		return 1
	}
	snapBytes := snapBuf.Bytes()

	workloads := []struct {
		name string
		fn   func(b *testing.B)
	}{
		// csv_read is the sequential reader IngestCSV falls back to on
		// quoted input.
		{"csv_read", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := trace.ReadCSVOpts("bench", bytes.NewReader(csvBytes), trace.ReadCSVOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"csv_read_parallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := trace.IngestCSV("bench", csvBytes, trace.IngestOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"snapshot_write", func(b *testing.B) {
			var buf bytes.Buffer
			buf.Grow(len(snapBytes))
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := ds.WriteSnapshot(&buf); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"snapshot_load", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := trace.ReadSnapshotBytes(snapBytes); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ingest_seq", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, _, err := trace.ReadCSVOpts("bench", bytes.NewReader(csvBytes), trace.ReadCSVOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := profile.BuildUserProfiles(got, profile.BuildOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ingest_fused", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := trace.IngestCSV("bench", csvBytes, trace.IngestOptions{
					Workers:      workers,
					CollectCells: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := profile.BuildUserProfilesFused(res.Cells, profile.BuildOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	report := bench.NewReport("benchgen -bench-ingest", scale, seed)
	report.IngestWorkers = workers
	for _, w := range workloads {
		report.RunMinOf(os.Stdout, w.name, 3, w.fn)
	}
	report.Ratios = map[string]float64{
		"snapshot_load_speedup_vs_csv_read": report.Ratio("csv_read", "snapshot_load"),
		"parallel_read_speedup_vs_csv_read": report.Ratio("csv_read", "csv_read_parallel"),
		"ingest_fused_speedup_vs_seq":       report.Ratio("ingest_seq", "ingest_fused"),
	}
	for name, val := range report.Ratios {
		fmt.Printf("%-36s %6.2fx\n", name, val)
	}

	if checkPath != "" {
		if err := bench.CheckRegression(os.Stdout, checkPath, report.Workloads, 2); err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: -check: %v\n", err)
			return 1
		}
		if err := bench.CheckFloors(os.Stderr, report.Ratios, ingestGates); err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: -check: %v\n", err)
			return 1
		}
		fmt.Println("check passed: ingest speedup gates hold")
	}

	if err := report.WriteFile(outPath); err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", outPath)
	return 0
}
