package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func at(h int) time.Time {
	return time.Date(2017, time.June, 1, h, 0, 0, 0, time.UTC)
}

func sample() *Dataset {
	return &Dataset{
		Name: "sample",
		Posts: []Post{
			{UserID: "alice", Time: at(9)},
			{UserID: "bob", Time: at(10)},
			{UserID: "alice", Time: at(11)},
			{UserID: "carol", Time: at(12)},
			{UserID: "alice", Time: at(13)},
		},
		GroundTruth: map[string]string{"alice": "de", "bob": "fr", "carol": "de"},
	}
}

func TestUsersAndCounts(t *testing.T) {
	t.Parallel()
	d := sample()
	users := d.Users()
	want := []string{"alice", "bob", "carol"}
	if len(users) != len(want) {
		t.Fatalf("Users() = %v, want %v", users, want)
	}
	for i := range want {
		if users[i] != want[i] {
			t.Errorf("Users()[%d] = %q, want %q", i, users[i], want[i])
		}
	}
	counts := d.PostCounts()
	if counts["alice"] != 3 || counts["bob"] != 1 || counts["carol"] != 1 {
		t.Errorf("PostCounts() = %v", counts)
	}
	if d.NumPosts() != 5 {
		t.Errorf("NumPosts() = %d, want 5", d.NumPosts())
	}
}

func TestByUser(t *testing.T) {
	t.Parallel()
	d := sample()
	byUser := d.ByUser()
	if len(byUser["alice"]) != 3 {
		t.Errorf("alice has %d posts, want 3", len(byUser["alice"]))
	}
	if byUser["alice"][0].Time != at(9) {
		t.Error("post order not preserved")
	}
}

func TestTimeRange(t *testing.T) {
	t.Parallel()
	d := sample()
	first, last, ok := d.TimeRange()
	if !ok {
		t.Fatal("TimeRange on non-empty dataset not ok")
	}
	if first != at(9) || last != at(13) {
		t.Errorf("TimeRange = %v..%v", first, last)
	}
	empty := &Dataset{}
	if _, _, ok := empty.TimeRange(); ok {
		t.Error("TimeRange on empty dataset should not be ok")
	}
}

func TestFilterMinPosts(t *testing.T) {
	t.Parallel()
	d := sample()
	filtered := d.FilterMinPosts(2)
	if got := filtered.Users(); len(got) != 1 || got[0] != "alice" {
		t.Errorf("FilterMinPosts(2) users = %v, want [alice]", got)
	}
	if len(filtered.GroundTruth) != 1 {
		t.Errorf("ground truth not pruned: %v", filtered.GroundTruth)
	}
	// Original untouched.
	if d.NumPosts() != 5 {
		t.Error("FilterMinPosts mutated the original")
	}
}

func TestWindow(t *testing.T) {
	t.Parallel()
	d := sample()
	w := d.Window(at(10), at(13))
	if w.NumPosts() != 3 {
		t.Errorf("Window has %d posts, want 3 (half-open)", w.NumPosts())
	}
	for _, p := range w.Posts {
		if p.Time.Before(at(10)) || !p.Time.Before(at(13)) {
			t.Errorf("post at %v outside window", p.Time)
		}
	}
}

func TestMerge(t *testing.T) {
	t.Parallel()
	a := &Dataset{Name: "a", Posts: []Post{{UserID: "u1", Time: at(1)}},
		GroundTruth: map[string]string{"u1": "de"}}
	b := &Dataset{Name: "b", Posts: []Post{{UserID: "u2", Time: at(2)}},
		GroundTruth: map[string]string{"u2": "fr"}}
	m, err := Merge("ab", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPosts() != 2 || len(m.GroundTruth) != 2 {
		t.Errorf("merge result: %d posts, %v", m.NumPosts(), m.GroundTruth)
	}

	conflict := &Dataset{Name: "c", Posts: nil, GroundTruth: map[string]string{"u1": "it"}}
	if _, err := Merge("bad", a, conflict); err == nil {
		t.Error("conflicting ground truth should fail")
	}
}

func TestSortByTime(t *testing.T) {
	t.Parallel()
	d := &Dataset{Posts: []Post{
		{UserID: "b", Time: at(12)},
		{UserID: "a", Time: at(9)},
		{UserID: "c", Time: at(12)},
	}}
	d.SortByTime()
	if d.Posts[0].UserID != "a" {
		t.Error("not sorted")
	}
	if d.Posts[1].UserID != "b" || d.Posts[2].UserID != "c" {
		t.Error("sort not stable for equal timestamps")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	t.Parallel()
	d := sample()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, report, err := ReadCSVOpts("sample", &buf, ReadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report != nil {
		t.Errorf("strict mode produced a quarantine report: %+v", report)
	}
	if got.NumPosts() != d.NumPosts() {
		t.Errorf("CSV round trip: %d posts, want %d", got.NumPosts(), d.NumPosts())
	}
	for i := range d.Posts {
		if !got.Posts[i].Time.Equal(d.Posts[i].Time) || got.Posts[i].UserID != d.Posts[i].UserID {
			t.Errorf("post %d differs: %+v vs %+v", i, got.Posts[i], d.Posts[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	t.Parallel()
	if _, _, err := ReadCSVOpts("x", strings.NewReader(""), ReadCSVOptions{}); err == nil {
		t.Error("empty CSV should fail")
	}
	if _, _, err := ReadCSVOpts("x", strings.NewReader("wrong,header\na,b\n"), ReadCSVOptions{}); err == nil {
		t.Error("bad header should fail")
	}
	if _, _, err := ReadCSVOpts("x", strings.NewReader("user_id,time_rfc3339\nu1,notatime\n"), ReadCSVOptions{}); err == nil {
		t.Error("bad timestamp should fail")
	}
}

func TestClone(t *testing.T) {
	t.Parallel()
	d := sample()
	c := d.Clone()
	c.Posts[0].UserID = "mallory"
	c.GroundTruth["alice"] = "xx"
	if d.Posts[0].UserID != "alice" || d.GroundTruth["alice"] != "de" {
		t.Error("Clone shares state with original")
	}
}

func TestSummarize(t *testing.T) {
	t.Parallel()
	d := sample()
	s := d.Summarize()
	if s.Users != 3 || s.Posts != 5 {
		t.Errorf("Summary = %+v", s)
	}
	if s.MeanPosts < 1.6 || s.MeanPosts > 1.7 {
		t.Errorf("MeanPosts = %g", s.MeanPosts)
	}
	if !strings.Contains(s.String(), "3 users") {
		t.Errorf("Summary.String() = %q", s.String())
	}
	empty := (&Dataset{Name: "e"}).Summarize()
	if empty.Users != 0 || empty.MeanPosts != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestSubsample(t *testing.T) {
	t.Parallel()
	d := &Dataset{Name: "big", GroundTruth: map[string]string{"u": "de"}}
	for i := 0; i < 1000; i++ {
		d.Posts = append(d.Posts, Post{UserID: "u", Time: at(i % 24)})
	}
	half, err := d.Subsample(0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n := half.NumPosts(); n < 400 || n > 600 {
		t.Errorf("subsample kept %d of 1000 at p=0.5", n)
	}
	// Deterministic under the seed.
	again, err := d.Subsample(0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if again.NumPosts() != half.NumPosts() {
		t.Error("subsample not deterministic")
	}
	all, err := d.Subsample(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if all.NumPosts() != 1000 {
		t.Errorf("p=1 kept %d", all.NumPosts())
	}
	none, err := d.Subsample(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if none.NumPosts() != 0 {
		t.Errorf("p=0 kept %d", none.NumPosts())
	}
	if _, err := d.Subsample(1.5, 1); err == nil {
		t.Error("p>1 accepted")
	}
	if half.GroundTruth["u"] != "de" {
		t.Error("ground truth lost")
	}
}
