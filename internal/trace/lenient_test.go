package trace

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

const lenientHeader = "user_id,time_rfc3339\n"

func TestReadCSVLenientQuarantinesBadRows(t *testing.T) {
	t.Parallel()
	in := lenientHeader +
		"u1,2017-03-01T10:00:00Z\n" +
		"u2,notatime\n" + // bad timestamp -> quarantined
		"only-one-field\n" + // wrong field count -> quarantined
		"u3,2017-03-01T12:00:00Z\n" +
		"u5\"x,2017-03-01T13:00:00Z\n" + // bare-quote damage -> quarantined
		"u4,2017-03-01T14:00:00Z\n"
	ds, report, err := ReadCSVOpts("dirty", strings.NewReader(in), ReadCSVOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ds.Posts); got != 3 {
		t.Errorf("kept %d posts, want 3: %+v", got, ds.Posts)
	}
	if report.BadRows != 3 {
		t.Errorf("BadRows = %d, want 3: %+v", report.BadRows, report)
	}
	if len(report.Rows) != 3 {
		t.Fatalf("sample has %d rows, want 3", len(report.Rows))
	}
	if report.Rows[0].Line != 3 || report.Rows[0].Field != "time_rfc3339" || report.Rows[0].Raw != "notatime" {
		t.Errorf("first quarantined row = %+v", report.Rows[0])
	}
	if report.Rows[1].Field != "record" {
		t.Errorf("field-count damage should quarantine as record: %+v", report.Rows[1])
	}
	if report.Empty() {
		t.Error("report with 3 bad rows claims Empty")
	}
	if !strings.Contains(report.String(), "3 row(s) quarantined") {
		t.Errorf("report summary = %q", report.String())
	}
	// Survivors are the well-formed rows, in order.
	for i, want := range []string{"u1", "u3", "u4"} {
		if ds.Posts[i].UserID != want {
			t.Errorf("post %d is %q, want %q", i, ds.Posts[i].UserID, want)
		}
	}
}

func TestReadCSVLenientCleanFileEmptyReport(t *testing.T) {
	t.Parallel()
	in := lenientHeader + "u1,2017-03-01T10:00:00Z\n"
	ds, report, err := ReadCSVOpts("clean", strings.NewReader(in), ReadCSVOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Posts) != 1 || !report.Empty() {
		t.Errorf("clean lenient read: %d posts, report %+v", len(ds.Posts), report)
	}
}

func TestReadCSVLenientHeaderStaysStrict(t *testing.T) {
	t.Parallel()
	for _, in := range []string{"", "wrong,header\na,b\n"} {
		if _, _, err := ReadCSVOpts("x", strings.NewReader(in), ReadCSVOptions{Lenient: true}); err == nil {
			t.Errorf("lenient read of %q should still fail on the header", in)
		}
	}
}

func TestReadCSVLenientBudget(t *testing.T) {
	t.Parallel()
	var sb strings.Builder
	sb.WriteString(lenientHeader)
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&sb, "u%d,notatime\n", i)
	}
	_, report, err := ReadCSVOpts("x", strings.NewReader(sb.String()),
		ReadCSVOptions{Lenient: true, MaxBadRows: 4})
	var budget *BadRowBudgetError
	if !errors.As(err, &budget) {
		t.Fatalf("got %v, want *BadRowBudgetError", err)
	}
	if budget.Budget != 4 || budget.Report.BadRows != 5 {
		t.Errorf("budget error = %+v (report %+v)", budget, budget.Report)
	}
	if report.BadRows != 5 {
		t.Errorf("returned report counts %d bad rows, want 5 (budget+1)", report.BadRows)
	}
	// Within budget: all 10 quarantined, no error.
	_, report, err = ReadCSVOpts("x", strings.NewReader(sb.String()),
		ReadCSVOptions{Lenient: true, MaxBadRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if report.BadRows != 10 {
		t.Errorf("BadRows = %d, want 10", report.BadRows)
	}
}

func TestReadCSVLenientSampleCap(t *testing.T) {
	t.Parallel()
	var sb strings.Builder
	sb.WriteString(lenientHeader)
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&sb, "u%d,notatime\n", i)
	}
	// Default cap.
	_, report, err := ReadCSVOpts("x", strings.NewReader(sb.String()), ReadCSVOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.BadRows != 30 || len(report.Rows) != DefaultQuarantineSample {
		t.Errorf("default cap: %d bad rows, %d sampled", report.BadRows, len(report.Rows))
	}
	// Explicit cap, and long raw values are truncated.
	long := lenientHeader + "u1," + strings.Repeat("x", 200) + "\n"
	_, report, err = ReadCSVOpts("x", strings.NewReader(long), ReadCSVOptions{Lenient: true, SampleCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rows) != 1 || len(report.Rows[0].Raw) > 90 {
		t.Errorf("sample = %+v", report.Rows)
	}
}

// TestReadCSVLenientRoundTripUnchanged: on a well-formed file the lenient
// reader must produce exactly the strict reader's dataset.
func TestReadCSVLenientRoundTripUnchanged(t *testing.T) {
	t.Parallel()
	d := &Dataset{Name: "rt"}
	base := time.Date(2017, 2, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 50; i++ {
		d.Posts = append(d.Posts, Post{UserID: fmt.Sprintf("u%d", i%7), Time: base.Add(time.Duration(i) * time.Hour)})
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	strict, _, err := ReadCSVOpts("rt", bytes.NewReader(raw), ReadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lenient, report, err := ReadCSVOpts("rt", bytes.NewReader(raw), ReadCSVOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Empty() {
		t.Errorf("clean file quarantined rows: %+v", report)
	}
	if len(strict.Posts) != len(lenient.Posts) {
		t.Fatalf("lenient kept %d posts, strict %d", len(lenient.Posts), len(strict.Posts))
	}
	for i := range strict.Posts {
		if strict.Posts[i] != lenient.Posts[i] {
			t.Fatalf("post %d differs: %+v vs %+v", i, strict.Posts[i], lenient.Posts[i])
		}
	}
}

func TestMergeConflictErrorIsDeterministicAndDescriptive(t *testing.T) {
	t.Parallel()
	a := &Dataset{Name: "a", GroundTruth: map[string]string{"u1": "de", "u2": "fr", "u3": "it"}}
	b := &Dataset{Name: "b", GroundTruth: map[string]string{"u1": "jp", "u2": "us"}}
	var first string
	for trial := 0; trial < 10; trial++ {
		_, err := Merge("ab", a, b)
		if err == nil {
			t.Fatal("conflicting merge should fail")
		}
		msg := err.Error()
		if trial == 0 {
			first = msg
			for _, want := range []string{"2 conflicting", `user "u1"`, `user "u2"`, `"de"`, `"jp"`, `dataset "a"`, `dataset "b"`} {
				if !strings.Contains(msg, want) {
					t.Errorf("merge error missing %s: %s", want, msg)
				}
			}
			continue
		}
		if msg != first {
			t.Fatalf("merge error is nondeterministic:\n%s\nvs\n%s", first, msg)
		}
	}
	// Agreeing duplicate labels still merge fine.
	c := &Dataset{Name: "c", GroundTruth: map[string]string{"u3": "it"}}
	if _, err := Merge("ac", a, c); err != nil {
		t.Errorf("agreeing labels should merge: %v", err)
	}
}

func TestMergeManyConflictsTruncatesList(t *testing.T) {
	t.Parallel()
	a := &Dataset{Name: "a", GroundTruth: map[string]string{}}
	b := &Dataset{Name: "b", GroundTruth: map[string]string{}}
	for i := 0; i < 9; i++ {
		u := fmt.Sprintf("u%d", i)
		a.GroundTruth[u] = "de"
		b.GroundTruth[u] = "jp"
	}
	_, err := Merge("ab", a, b)
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "9 conflicting") || !strings.Contains(err.Error(), "and 4 more") {
		t.Errorf("merge error = %s", err)
	}
}
