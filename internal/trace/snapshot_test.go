package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// snapshotTestDataset builds a dataset exercising every snapshot feature:
// interned repeat users, sub-second times, negative epochs, out-of-order
// posts, and ground-truth labels.
func snapshotTestDataset(t *testing.T) *Dataset {
	t.Helper()
	csv := "user_id,time_rfc3339\n" +
		"zed,2021-03-04T05:06:07Z\n" +
		"abe,2021-03-04T05:06:07.25Z\n" +
		"zed,1969-12-31T23:59:59Z\n" +
		"mid,2021-03-04T06:00:00+02:00\n" +
		"abe,2021-03-04T05:06:08Z\n"
	d, rep, err := ReadCSVOpts("snapshot-test", bytes.NewReader([]byte(csv)), ReadCSVOptions{})
	if err != nil || !rep.Empty() {
		t.Fatalf("test dataset failed to parse: %v %v", err, rep)
	}
	d.GroundTruth = map[string]string{"zed": "jp", "abe": "us-il"}
	return d
}

// encodeSnapshot renders a dataset to snapshot bytes.
func encodeSnapshot(t *testing.T, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip pins the core contract: write → read reproduces
// the dataset (posts, ground truth, columnar store) bit-identically, and
// re-encoding the decoded dataset reproduces the bytes (canonical form).
func TestSnapshotRoundTrip(t *testing.T) {
	t.Parallel()
	cases := map[string]*Dataset{
		"full":  snapshotTestDataset(t),
		"empty": {Name: "empty"},
	}
	r := rand.New(rand.NewSource(3))
	gen, err := IngestCSV("gen", genEquivCSV(r, false), IngestOptions{ReadCSVOptions: ReadCSVOptions{Lenient: true}, Workers: 3})
	if err != nil {
		t.Fatalf("generated dataset: %v", err)
	}
	cases["generated"] = gen.Dataset
	for name, d := range cases {
		t.Run(name, func(t *testing.T) {
			raw := encodeSnapshot(t, d)
			got, err := ReadSnapshot(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("ReadSnapshot: %v", err)
			}
			if got.Name != d.Name {
				t.Fatalf("name %q, want %q", got.Name, d.Name)
			}
			if (got.Posts == nil) != (d.Posts == nil) || !reflect.DeepEqual(got.Posts, d.Posts) {
				t.Fatalf("posts mismatch:\n got %v\nwant %v", got.Posts, d.Posts)
			}
			if !reflect.DeepEqual(got.GroundTruth, d.GroundTruth) {
				t.Fatalf("ground truth mismatch: %v vs %v", got.GroundTruth, d.GroundTruth)
			}
			sameStore(t, d.Index(), got.Index())
			if again := encodeSnapshot(t, got); !bytes.Equal(raw, again) {
				t.Fatalf("snapshot encoding is not canonical: %d vs %d bytes", len(raw), len(again))
			}
		})
	}
}

// TestSnapshotTimesSurvive asserts decoded times are bit-identical
// (DeepEqual, not just Equal) for whole, fractional and negative-epoch
// instants — the property the geolocation golden test leans on.
func TestSnapshotTimesSurvive(t *testing.T) {
	t.Parallel()
	d := snapshotTestDataset(t)
	got, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Posts {
		if !reflect.DeepEqual(d.Posts[i].Time, got.Posts[i].Time) {
			t.Fatalf("post %d time representation drifted: %#v vs %#v", i, d.Posts[i].Time, got.Posts[i].Time)
		}
	}
	if got.Posts[1].Time.Nanosecond() != 250000000 {
		t.Fatalf("fractional second lost: %v", got.Posts[1].Time)
	}
}

// TestSnapshotCorruption asserts every single-bit flip and every
// truncation of a valid snapshot is rejected with a *SnapshotError —
// no panics, no silently wrong datasets.
func TestSnapshotCorruption(t *testing.T) {
	t.Parallel()
	raw := encodeSnapshot(t, snapshotTestDataset(t))
	check := func(mutated []byte, what string) {
		t.Helper()
		ds, err := decodeSnapshot(mutated)
		if err == nil {
			t.Fatalf("%s: corrupted snapshot decoded successfully (%v)", what, ds.Summarize())
		}
		var se *SnapshotError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error is %T, want *SnapshotError: %v", what, err, err)
		}
	}
	for cut := 0; cut < len(raw); cut++ {
		check(raw[:cut], "truncation")
	}
	for i := 0; i < len(raw); i++ {
		for bit := 0; bit < 8; bit++ {
			mutated := bytes.Clone(raw)
			mutated[i] ^= 1 << bit
			check(mutated, "bit flip")
		}
	}
	check(append(bytes.Clone(raw), 0), "trailing byte")
}

// TestSnapshotVersionDrift pins the evolution rule: unknown versions and
// unknown section tags are rejected, not guessed at.
func TestSnapshotVersionDrift(t *testing.T) {
	t.Parallel()
	raw := encodeSnapshot(t, snapshotTestDataset(t))
	futureVersion := bytes.Clone(raw)
	futureVersion[8] = 2
	if _, err := decodeSnapshot(futureVersion); err == nil {
		t.Fatal("future version accepted")
	}
	unknownTag := bytes.Clone(raw)
	copy(unknownTag[16:], "XXXX")
	var se *SnapshotError
	if _, err := decodeSnapshot(unknownTag); !errors.As(err, &se) {
		t.Fatalf("unknown tag: %v", err)
	}
}

// TestSnapshotDecodedStoreUsable sanity-checks that a decoded dataset's
// pre-built index answers queries without rebuilding.
func TestSnapshotDecodedStoreUsable(t *testing.T) {
	t.Parallel()
	d := snapshotTestDataset(t)
	got, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	if got.idx == nil {
		t.Fatal("decoded dataset has no pre-built index")
	}
	if !reflect.DeepEqual(got.PostCounts(), d.PostCounts()) {
		t.Fatalf("post counts mismatch: %v vs %v", got.PostCounts(), d.PostCounts())
	}
	if !reflect.DeepEqual(got.ByUser(), d.ByUser()) {
		t.Fatal("ByUser mismatch on decoded store")
	}
	if _, last, ok := got.TimeRange(); !ok || last.Unix() != d.Posts[4].Time.Unix() {
		t.Fatalf("time range wrong: %v %v", last, ok)
	}
}
