package darkcrowd

// Golden-fixture regression test: a seeded end-to-end GeolocateCrowd run
// is snapshotted to testdata/geolocate_golden.json and every future run
// must reproduce it exactly. The fixture freezes the whole numeric
// pipeline — synthesis, profile building, polishing, EMD placement, EM —
// so any unintended change to the math shows up as a diff, not as a
// silently shifted result. Regenerate after an *intended* change with:
//
//	go test -run TestGeolocateCrowdGolden -update
//
// and review the fixture diff like any other code change.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"darkcrowd/internal/obs"
	"darkcrowd/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

const goldenPath = "testdata/geolocate_golden.json"

// goldenReport is the serialized snapshot. Floats are stored as exact
// bit patterns alongside their readable values, so the comparison is
// bit-for-bit while the fixture stays reviewable.
type goldenReport struct {
	Components         []goldenComponent `json:"components"`
	PlacementHistogram []string          `json:"placement_histogram_bits"`
	HistogramReadable  []float64         `json:"placement_histogram"`
	ActiveUsers        int               `json:"active_users"`
	RemovedUsers       []string          `json:"removed_users"`
	AvgFitDistance     string            `json:"avg_fit_distance_bits"`
	StdFitDistance     string            `json:"std_fit_distance_bits"`
}

type goldenComponent struct {
	WeightBits    string  `json:"weight_bits"`
	OffsetBits    string  `json:"offset_bits"`
	SigmaBits     string  `json:"sigma_bits"`
	Weight        float64 `json:"weight"`
	Offset        float64 `json:"offset"`
	NearestOffset string  `json:"nearest_offset"`
	Sigma         float64 `json:"sigma"`
}

func bits(v float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(v))
}

func snapshotReport(r *Report) goldenReport {
	g := goldenReport{
		ActiveUsers:       r.ActiveUsers,
		RemovedUsers:      r.RemovedUsers,
		HistogramReadable: r.PlacementHistogram,
		AvgFitDistance:    bits(r.AvgFitDistance),
		StdFitDistance:    bits(r.StdFitDistance),
	}
	for _, v := range r.PlacementHistogram {
		g.PlacementHistogram = append(g.PlacementHistogram, bits(v))
	}
	for _, c := range r.Components {
		g.Components = append(g.Components, goldenComponent{
			WeightBits:    bits(c.Weight),
			OffsetBits:    bits(c.Offset),
			SigmaBits:     bits(c.Sigma),
			Weight:        c.Weight,
			Offset:        c.Offset,
			NearestOffset: c.NearestOffset.String(),
			Sigma:         c.Sigma,
		})
	}
	return g
}

// goldenRun is the frozen pipeline configuration. Changing any seed or
// size here invalidates the fixture.
func goldenRun(t *testing.T) *Report {
	t.Helper()
	labelled, err := SyntheticTwitterDataset(1, 60)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildReference(labelled)
	if err != nil {
		t.Fatal(err)
	}
	crowd, err := SyntheticCrowd(2, map[string]int{"jp": 60, "us-il": 30}, 100)
	if err != nil {
		t.Fatal(err)
	}
	report, err := GeolocateCrowd(crowd.Posts, ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return report
}

func TestGeolocateCrowdGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end golden run in -short mode")
	}
	got := snapshotReport(goldenRun(t))

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read fixture (run with -update to create it): %v", err)
	}
	var want goldenReport
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		gotJSON, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("geolocation drifted from golden fixture %s\n"+
			"if the change is intended, regenerate with -update and review the diff\ngot:\n%s",
			goldenPath, gotJSON)
	}
}

// TestGeolocateCrowdGoldenIngestInvariant round-trips the golden crowd
// through every ingest path — sequential CSV read, sharded parallel read,
// binary snapshot round-trip, and the fused parse+cell-collect path — and
// demands each one reproduce the committed fixture bit for bit. The
// fixture pins not just the math but every road into it.
func TestGeolocateCrowdGoldenIngestInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end ingest sweep in -short mode")
	}
	labelled, err := SyntheticTwitterDataset(1, 60)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildReference(labelled)
	if err != nil {
		t.Fatal(err)
	}
	crowd, err := SyntheticCrowd(2, map[string]int{"jp": 60, "us-il": 30}, 100)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := crowd.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	csvBytes := csvBuf.Bytes()

	seq, _, err := trace.ReadCSVOpts("golden", bytes.NewReader(csvBytes), trace.ReadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := trace.IngestCSV("golden", csvBytes, trace.IngestOptions{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	var snapBuf bytes.Buffer
	if err := seq.WriteSnapshot(&snapBuf); err != nil {
		t.Fatal(err)
	}
	snapped, err := trace.ReadSnapshotBytes(snapBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fused, err := trace.IngestCSV("golden", csvBytes, trace.IngestOptions{Workers: 3, CollectCells: true})
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read fixture (run with -update to create it): %v", err)
	}
	var want goldenReport
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	paths := []struct {
		name string
		ds   *Dataset
	}{
		{"sequential", seq},
		{"sharded", sharded.Dataset},
		{"snapshot", snapped},
		{"fused", fused.Dataset},
	}
	for _, p := range paths {
		report, err := GeolocateCrowd(p.ds.Posts, ref, Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got := snapshotReport(report); !reflect.DeepEqual(want, got) {
			t.Errorf("%s ingest path drifted from golden fixture %s", p.name, goldenPath)
		}
	}
}

// TestGeolocateCrowdGoldenParallelismInvariant re-runs the golden
// pipeline at several worker counts and demands the identical snapshot —
// the facade-level version of the placement determinism property.
func TestGeolocateCrowdGoldenParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end determinism sweep in -short mode")
	}
	labelled, err := SyntheticTwitterDataset(1, 60)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildReference(labelled)
	if err != nil {
		t.Fatal(err)
	}
	crowd, err := SyntheticCrowd(2, map[string]int{"jp": 60, "us-il": 30}, 100)
	if err != nil {
		t.Fatal(err)
	}
	var base goldenReport
	for i, workers := range []int{1, 2, 4, 7, 16} {
		report, err := GeolocateCrowd(crowd.Posts, ref, Options{Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snap := snapshotReport(report)
		if i == 0 {
			base = snap
			continue
		}
		if !reflect.DeepEqual(base, snap) {
			t.Errorf("workers=%d: report differs from workers=1", workers)
		}
	}
}

// TestGeolocateCrowdObservationInvariant runs the golden pipeline
// unobserved and fully observed (metrics registry + stage span + logger)
// and demands bit-identical snapshots — instrumentation must never
// perturb the numbers. It also sanity-checks that the observed run
// actually recorded the pipeline stages and counters.
func TestGeolocateCrowdObservationInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end observation sweep in -short mode")
	}
	labelled, err := SyntheticTwitterDataset(1, 60)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildReference(labelled)
	if err != nil {
		t.Fatal(err)
	}
	crowd, err := SyntheticCrowd(2, map[string]int{"jp": 60, "us-il": 30}, 100)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := GeolocateCrowd(crowd.Posts, ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	o := &obs.Observer{
		Metrics: obs.NewRegistry(),
		Span:    obs.StartSpan("geolocate"),
		Log:     obs.NewLogger(&logBuf),
	}
	observed, err := GeolocateCrowd(crowd.Posts, ref, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	o.Span.End()
	if !reflect.DeepEqual(snapshotReport(plain), snapshotReport(observed)) {
		t.Error("observed run differs from unobserved run — instrumentation perturbed the pipeline")
	}
	for _, stage := range []string{"profile-build", "polish", "placement", "em-select"} {
		if o.Span.Find(stage) == nil {
			t.Errorf("stage %q missing from span tree:\n%s", stage, o.Span.Tree())
		}
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["placement.users_placed"]; got != int64(observed.ActiveUsers) {
		t.Errorf("placement.users_placed = %d, want %d", got, observed.ActiveUsers)
	}
	if snap.Counters["profile.users_built"] == 0 {
		t.Error("profile.users_built not recorded")
	}
	if snap.Gauges["em.selected_k"] != int64(len(observed.Components)) {
		t.Errorf("em.selected_k = %d, want %d", snap.Gauges["em.selected_k"], len(observed.Components))
	}
	if !strings.Contains(logBuf.String(), "stage=em-select") {
		t.Errorf("progress log missing em-select event:\n%s", logBuf.String())
	}
}
