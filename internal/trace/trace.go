// Package trace defines the activity-trace data model every other part of
// the reproduction consumes: a post is a (user, UTC timestamp) pair, and a
// dataset is a named collection of posts with optional ground-truth region
// labels.
//
// This mirrors the paper's data handling: "The data collected (only author
// ID and time of posting, without the body of the forum post)" (§VIII). A
// trace "can be of any kind: posts, comments to posts, messages exchanged,
// access times, or even all the above" (§IV) — everything reduces to
// timestamped user activity.
package trace

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// Post is a single activity event: a user posted at an instant, normalized
// to UTC.
type Post struct {
	UserID string    `json:"user_id"`
	Time   time.Time `json:"time"`
}

// Dataset is a named activity trace. GroundTruth optionally maps user IDs
// to region codes for datasets with verified origin (the Twitter dataset of
// Table I, or validation forums).
type Dataset struct {
	Name        string            `json:"name"`
	Posts       []Post            `json:"posts"`
	GroundTruth map[string]string `json:"ground_truth,omitempty"`

	// idx is the lazily built columnar index (see Index in columnar.go).
	idx *Store
}

// copyGroundTruth returns a deep copy of a ground-truth map (nil for nil).
// Derived datasets must never alias the source's map: a caller mutating the
// filtered copy would silently corrupt the original.
func copyGroundTruth(gt map[string]string) map[string]string {
	if gt == nil {
		return nil
	}
	out := make(map[string]string, len(gt))
	for k, v := range gt {
		out[k] = v
	}
	return out
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{Name: d.Name, Posts: make([]Post, len(d.Posts))}
	copy(out.Posts, d.Posts)
	out.GroundTruth = copyGroundTruth(d.GroundTruth)
	return out
}

// NumPosts returns the number of posts.
func (d *Dataset) NumPosts() int { return len(d.Posts) }

// Users returns the distinct user IDs, sorted — a copy of the columnar
// index's interned dictionary.
func (d *Dataset) Users() []string {
	s := d.Index()
	out := make([]string, len(s.ids))
	copy(out, s.ids)
	return out
}

// ByUser groups posts by user ID. Post order within a user follows the
// dataset order. The groups are views carved out of one shared backing
// array (capped, so appending to one group cannot clobber a neighbour).
func (d *Dataset) ByUser() map[string][]Post {
	s := d.Index()
	backing := make([]Post, len(d.Posts))
	for k, pos := range s.posts {
		backing[k] = d.Posts[pos]
	}
	out := make(map[string][]Post, len(s.ids))
	for u, id := range s.ids {
		lo, hi := s.offsets[u], s.offsets[u+1]
		out[id] = backing[lo:hi:hi]
	}
	return out
}

// PostCounts returns the number of posts per user, read off the columnar
// index's offsets.
func (d *Dataset) PostCounts() map[string]int {
	s := d.Index()
	out := make(map[string]int, len(s.ids))
	for u, id := range s.ids {
		out[id] = int(s.offsets[u+1] - s.offsets[u])
	}
	return out
}

// TimeRange returns the earliest and latest post times. ok is false for an
// empty dataset.
func (d *Dataset) TimeRange() (first, last time.Time, ok bool) {
	if len(d.Posts) == 0 {
		return time.Time{}, time.Time{}, false
	}
	first, last = d.Posts[0].Time, d.Posts[0].Time
	for _, p := range d.Posts[1:] {
		if p.Time.Before(first) {
			first = p.Time
		}
		if p.Time.After(last) {
			last = p.Time
		}
	}
	return first, last, true
}

// FilterUsers returns a new dataset keeping only posts whose user the
// predicate accepts. Ground truth entries for dropped users are removed.
// The predicate is evaluated once per distinct user (via the columnar
// index), not once per post.
func (d *Dataset) FilterUsers(keep func(userID string) bool) *Dataset {
	s := d.Index()
	keepUser := make([]bool, s.NumUsers())
	kept := 0
	for u, id := range s.ids {
		if keep(id) {
			keepUser[u] = true
			kept += s.Count(u)
		}
	}
	out := &Dataset{Name: d.Name}
	if kept > 0 {
		out.Posts = make([]Post, 0, kept)
		for i, p := range d.Posts {
			if keepUser[s.userOf[i]] {
				out.Posts = append(out.Posts, p)
			}
		}
	}
	if d.GroundTruth != nil {
		out.GroundTruth = make(map[string]string)
		for u, r := range d.GroundTruth {
			if keep(u) {
				out.GroundTruth[u] = r
			}
		}
	}
	return out
}

// FilterPosts returns a new dataset keeping only posts the predicate
// accepts. Ground truth is carried over (as a copy, so the datasets stay
// independent).
func (d *Dataset) FilterPosts(keep func(Post) bool) *Dataset {
	out := &Dataset{Name: d.Name, GroundTruth: copyGroundTruth(d.GroundTruth)}
	for _, p := range d.Posts {
		if keep(p) {
			out.Posts = append(out.Posts, p)
		}
	}
	return out
}

// FilterMinPosts drops users with fewer than min posts — the paper's
// active-user threshold ("we chose the threshold to be 30 posts", §IV).
func (d *Dataset) FilterMinPosts(min int) *Dataset {
	s := d.Index()
	return d.FilterUsers(func(id string) bool {
		u, ok := s.Lookup(id)
		return ok && s.Count(u) >= min
	})
}

// Window returns the posts falling in [from, to). When the dataset is
// chronologically sorted (the common case — generators and loaders sort),
// the boundaries are binary-searched instead of scanning every post.
func (d *Dataset) Window(from, to time.Time) *Dataset {
	s := d.Index()
	if !s.SortedByTime() {
		return d.FilterPosts(func(p Post) bool {
			return !p.Time.Before(from) && p.Time.Before(to)
		})
	}
	lo := sort.Search(len(d.Posts), func(i int) bool { return !d.Posts[i].Time.Before(from) })
	hi := sort.Search(len(d.Posts), func(i int) bool { return !d.Posts[i].Time.Before(to) })
	out := &Dataset{Name: d.Name, GroundTruth: copyGroundTruth(d.GroundTruth)}
	if lo < hi {
		out.Posts = make([]Post, hi-lo)
		copy(out.Posts, d.Posts[lo:hi])
	}
	return out
}

// Merge combines several datasets into one. Ground-truth maps are merged;
// conflicting labels for the same user are an error, never a silent
// last-dataset-wins overwrite. Every conflicting user is collected before
// failing, and the error names them in sorted order with both datasets
// involved — so one merge attempt diagnoses all the label damage, and the
// message is deterministic regardless of map iteration order.
func Merge(name string, datasets ...*Dataset) (*Dataset, error) {
	out := &Dataset{Name: name, GroundTruth: make(map[string]string)}
	labelledBy := make(map[string]string) // user -> name of the dataset that labelled them
	var conflicts []string
	conflictSeen := make(map[string]bool)
	for _, d := range datasets {
		out.Posts = append(out.Posts, d.Posts...)
		for u, r := range d.GroundTruth {
			if prev, ok := out.GroundTruth[u]; ok && prev != r {
				if !conflictSeen[u] {
					conflictSeen[u] = true
					conflicts = append(conflicts, fmt.Sprintf("user %q labelled %q (dataset %q) and %q (dataset %q)",
						u, prev, labelledBy[u], r, d.Name))
				}
				continue
			}
			out.GroundTruth[u] = r
			labelledBy[u] = d.Name
		}
	}
	if len(conflicts) > 0 {
		sort.Strings(conflicts)
		const show = 5
		listed := conflicts
		suffix := ""
		if len(listed) > show {
			listed = listed[:show]
			suffix = fmt.Sprintf("; and %d more", len(conflicts)-show)
		}
		return nil, fmt.Errorf("trace: merge %q: %d conflicting ground-truth label(s): %s%s",
			name, len(conflicts), strings.Join(listed, "; "), suffix)
	}
	if len(out.GroundTruth) == 0 {
		out.GroundTruth = nil
	}
	return out, nil
}

// SortByTime orders posts chronologically in place (stable, so same-instant
// posts keep their relative order). The cached columnar index is dropped:
// its post-parallel columns no longer match the new order.
func (d *Dataset) SortByTime() {
	sort.SliceStable(d.Posts, func(i, j int) bool {
		return d.Posts[i].Time.Before(d.Posts[j].Time)
	})
	d.idx = nil
}

// csvHeader is the column layout used by WriteCSV/ReadCSVOpts.
var csvHeader = []string{"user_id", "time_rfc3339"}

// WriteCSV writes the posts as CSV with a header row. Ground truth is not
// part of the CSV format. Rows are assembled in a reused byte buffer — the
// timestamp field never needs quoting and the user-ID field is quoted only
// when it contains a CSV metacharacter, so the common row costs zero
// allocations. The byte output is identical to encoding/csv's.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 64)
	buf = append(buf, csvHeader[0]...)
	buf = append(buf, ',')
	buf = append(buf, csvHeader[1]...)
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		return fmt.Errorf("trace: write CSV header: %w", err)
	}
	for _, p := range d.Posts {
		buf = appendCSVField(buf[:0], p.UserID)
		buf = append(buf, ',')
		buf = appendRFC3339(buf, p.Time)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("trace: write CSV row: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush CSV: %w", err)
	}
	return nil
}

// appendCSVField appends a CSV field, quoting it exactly when encoding/csv
// would (field contains a quote, comma, CR, or LF, or begins with a space).
func appendCSVField(buf []byte, field string) []byte {
	if !csvFieldNeedsQuotes(field) {
		return append(buf, field...)
	}
	buf = append(buf, '"')
	for i := 0; i < len(field); i++ {
		if c := field[i]; c == '"' {
			buf = append(buf, '"', '"')
		} else {
			// CR and LF pass through unchanged, matching csv.Writer with
			// UseCRLF off.
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// csvFieldNeedsQuotes mirrors encoding/csv's unexported fieldNeedsQuotes
// for the default (comma, non-CRLF) writer: quote on comma, quote, CR, LF,
// a leading Unicode space, or the literal field `\.`.
func csvFieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	if strings.ContainsAny(field, `",`) || strings.ContainsAny(field, "\r\n") {
		return true
	}
	r1, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r1)
}

// DefaultQuarantineSample is how many quarantined rows a lenient read keeps
// verbatim for diagnosis when ReadCSVOptions.SampleCap is zero.
const DefaultQuarantineSample = 10

// ReadCSVOptions tunes ReadCSVOpts.
type ReadCSVOptions struct {
	// Lenient switches the reader from fail-fast to quarantining: a
	// malformed row is recorded in the QuarantineReport and skipped instead
	// of aborting the whole load. The header is always strict — a missing
	// or wrong header means the wrong file, not a dirty row.
	Lenient bool
	// MaxBadRows is the lenient mode's bad-row budget: quarantining more
	// than this many rows aborts the read with a *BadRowBudgetError. Zero
	// or negative means no budget (quarantine everything).
	MaxBadRows int
	// SampleCap bounds how many quarantined rows are kept verbatim in the
	// report (default DefaultQuarantineSample). The total count is always
	// exact; only the per-row detail is capped.
	SampleCap int
}

// QuarantinedRow describes one malformed row a lenient read skipped.
type QuarantinedRow struct {
	// Line is the 1-based record number in the file (the header is record
	// 1; for files without quoted newlines this is the line number).
	Line int `json:"line"`
	// Field names what was malformed: "record" for CSV-level damage
	// (quoting, field count), or the column name for a bad value.
	Field string `json:"field"`
	// Reason is the parse error, verbatim.
	Reason string `json:"reason"`
	// Raw is the offending value (truncated), empty when the row never
	// parsed into fields.
	Raw string `json:"raw,omitempty"`
}

// QuarantineReport is the structured outcome of a lenient read: how many
// rows were skipped and a capped sample of them. A nil report (strict mode)
// and an empty report (lenient, clean file) both mean nothing was skipped.
type QuarantineReport struct {
	// BadRows is the exact number of quarantined rows.
	BadRows int `json:"bad_rows"`
	// Rows is the kept sample, in file order, capped at SampleCap.
	Rows []QuarantinedRow `json:"rows,omitempty"`
}

// Empty reports whether nothing was quarantined.
func (q *QuarantineReport) Empty() bool { return q == nil || q.BadRows == 0 }

// String renders a one-line summary.
func (q *QuarantineReport) String() string {
	if q.Empty() {
		return "0 rows quarantined"
	}
	return fmt.Sprintf("%d row(s) quarantined (first: line %d, %s: %s)",
		q.BadRows, q.Rows[0].Line, q.Rows[0].Field, q.Rows[0].Reason)
}

// BadRowBudgetError aborts a lenient read whose quarantine outgrew the
// configured budget: a file this dirty is more likely the wrong file than a
// damaged one, and silently skipping most of it would fabricate a dataset.
type BadRowBudgetError struct {
	// Budget is the configured MaxBadRows.
	Budget int
	// Report is the quarantine state at abort time (Budget+1 bad rows).
	Report *QuarantineReport
}

// Error implements the error interface.
func (e *BadRowBudgetError) Error() string {
	return fmt.Sprintf("trace: bad-row budget exhausted: %s, budget %d", e.Report, e.Budget)
}

// quarantine records one bad row, enforcing the sample cap and the budget.
// It returns the budget error once the count passes MaxBadRows.
func (opts *ReadCSVOptions) quarantine(q *QuarantineReport, row QuarantinedRow) error {
	q.BadRows++
	keep := opts.SampleCap
	if keep <= 0 {
		keep = DefaultQuarantineSample
	}
	if len(q.Rows) < keep {
		const rawCap = 80
		if len(row.Raw) > rawCap {
			row.Raw = row.Raw[:rawCap] + "..."
		}
		q.Rows = append(q.Rows, row)
	}
	if opts.MaxBadRows > 0 && q.BadRows > opts.MaxBadRows {
		return &BadRowBudgetError{Budget: opts.MaxBadRows, Report: q}
	}
	return nil
}

// ReadCSVOpts is the sequential CSV reader for files written by WriteCSV:
// IngestCSV's fallback for quoted input, and the oracle its sharded parser
// is tested against. Rows are parsed through a fixed-layout RFC3339 fast
// path (falling back to time.Parse for offsets, fractional seconds, or
// anything unusual), and user-ID strings are interned so a million-post
// file holds one string per distinct user instead of one per row.
//
// In strict mode (the default) the first malformed row aborts the read,
// and the returned report is nil. In lenient mode malformed rows are skipped into the returned
// QuarantineReport — the paper's real-world corpora are full of gap-ridden
// records, and a longitudinal pipeline must survive them — up to the
// MaxBadRows budget. Well-formed rows parse identically in both modes.
func ReadCSVOpts(name string, r io.Reader, opts ReadCSVOptions) (*Dataset, *QuarantineReport, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if errors.Is(err, io.EOF) {
		return nil, nil, errors.New("trace: empty CSV")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("trace: read CSV header: %w", err)
	}
	if len(header) != len(csvHeader) || header[0] != csvHeader[0] || header[1] != csvHeader[1] {
		return nil, nil, fmt.Errorf("trace: unexpected CSV header %v", header)
	}
	out := &Dataset{Name: name}
	var report *QuarantineReport
	if opts.Lenient {
		report = &QuarantineReport{}
	}
	intern := make(map[string]string)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			if !opts.Lenient {
				return nil, nil, fmt.Errorf("trace: read CSV line %d: %w", line, err)
			}
			if qerr := opts.quarantine(report, QuarantinedRow{Line: line, Field: "record", Reason: err.Error()}); qerr != nil {
				return nil, report, qerr
			}
			continue
		}
		ts, err := parseRFC3339(rec[1])
		if err != nil {
			if !opts.Lenient {
				return nil, nil, fmt.Errorf("trace: parse time on line %d: %w", line, err)
			}
			// Clone the sample: rec aliases the reader's reusable record
			// buffer, and the report outlives this iteration.
			if qerr := opts.quarantine(report, QuarantinedRow{Line: line, Field: csvHeader[1], Reason: err.Error(), Raw: strings.Clone(rec[1])}); qerr != nil {
				return nil, report, qerr
			}
			continue
		}
		// Intern the user ID: csv fields are substrings of a fresh per-row
		// string (safe to retain even with ReuseRecord), and the map keeps
		// one string per distinct user rather than one per row.
		id, ok := intern[rec[0]]
		if !ok {
			id = rec[0]
			intern[id] = id
		}
		out.Posts = append(out.Posts, Post{UserID: id, Time: ts})
	}
	return out, report, nil
}

// parseRFC3339 parses an RFC3339 timestamp and normalizes it to UTC. The
// overwhelmingly common shape in our files — "2006-01-02T15:04:05Z",
// exactly what WriteCSV emits — is decoded with integer arithmetic; any
// other shape falls back to time.Parse so accepted inputs and error
// behavior match the stdlib exactly.
func parseRFC3339(s string) (time.Time, error) {
	sec, ts, fast, err := parseStamp(s)
	if err != nil {
		return time.Time{}, err
	}
	if fast {
		return time.Unix(sec, 0).UTC(), nil
	}
	return ts, nil
}

// ParseStamp parses an RFC3339 timestamp from a byte slice without
// allocating: fast reports that the instant is the whole second sec —
// exactly time.Unix(sec, 0).UTC() — while the fallback path returns the
// stdlib-parsed, UTC-normalized ts. Exported for the streaming daemon's
// zero-alloc NDJSON ingest decoder; accepted inputs and error behaviour
// match time.Parse(time.RFC3339, ...) exactly.
func ParseStamp(s []byte) (sec int64, ts time.Time, fast bool, err error) {
	return parseStamp(s)
}

// parseStamp is the RFC3339 scanner shared by the sequential reader
// (strings) and the sharded parallel reader (byte slices without a
// per-row string allocation). fast reports that the instant is the whole
// second sec — exactly time.Unix(sec, 0).UTC() — while the fallback path
// returns the stdlib-parsed, UTC-normalized ts.
func parseStamp[T ~string | ~[]byte](s T) (sec int64, ts time.Time, fast bool, err error) {
	if len(s) == 20 && s[4] == '-' && s[7] == '-' && s[10] == 'T' &&
		s[13] == ':' && s[16] == ':' && s[19] == 'Z' {
		year, ok1 := atoi4(s, 0)
		month, ok2 := atoi2(s, 5)
		day, ok3 := atoi2(s, 8)
		hour, ok4 := atoi2(s, 11)
		min, ok5 := atoi2(s, 14)
		secs, ok6 := atoi2(s, 17)
		if ok1 && ok2 && ok3 && ok4 && ok5 && ok6 &&
			month >= 1 && month <= 12 && day >= 1 && day <= daysIn(year, month) &&
			hour <= 23 && min <= 59 && secs <= 59 {
			return unixFromCivil(year, month, day) + int64(hour)*3600 + int64(min)*60 + int64(secs), time.Time{}, true, nil
		}
	}
	ts, err = time.Parse(time.RFC3339, string(s))
	if err != nil {
		return 0, time.Time{}, false, err
	}
	return 0, ts.UTC(), false, nil
}

func atoi2[T ~string | ~[]byte](s T, i int) (int, bool) {
	a, b := s[i]-'0', s[i+1]-'0'
	if a > 9 || b > 9 {
		return 0, false
	}
	return int(a)*10 + int(b), true
}

func atoi4[T ~string | ~[]byte](s T, i int) (int, bool) {
	hi, ok1 := atoi2(s, i)
	lo, ok2 := atoi2(s, i+2)
	return hi*100 + lo, ok1 && ok2
}

func daysIn(year, month int) int {
	switch month {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	}
	if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
		return 29
	}
	return 28
}

// appendRFC3339 appends t in UTC as RFC3339, producing the same bytes as
// t.UTC().Format(time.RFC3339). Whole-second instants in years 0000-9999 —
// every timestamp this package produces — take an integer fast path; the
// rest fall back to AppendFormat.
func appendRFC3339(buf []byte, t time.Time) []byte {
	sec := t.Unix()
	if t.Nanosecond() == 0 {
		days := sec / 86400
		rem := sec % 86400
		if rem < 0 {
			days--
			rem += 86400
		}
		year, month, day := civilFromDays(days)
		if year >= 0 && year <= 9999 {
			buf = appendDigits4(buf, int(year))
			buf = append(buf, '-')
			buf = appendDigits2(buf, month)
			buf = append(buf, '-')
			buf = appendDigits2(buf, day)
			buf = append(buf, 'T')
			buf = appendDigits2(buf, int(rem/3600))
			buf = append(buf, ':')
			buf = appendDigits2(buf, int(rem/60%60))
			buf = append(buf, ':')
			buf = appendDigits2(buf, int(rem%60))
			return append(buf, 'Z')
		}
	}
	return t.UTC().AppendFormat(buf, time.RFC3339)
}

func appendDigits2(buf []byte, v int) []byte {
	return append(buf, byte('0'+v/10), byte('0'+v%10))
}

func appendDigits4(buf []byte, v int) []byte {
	return append(appendDigits2(buf, v/100), byte('0'+v/10%10), byte('0'+v%10))
}

// civilFromDays is the inverse of unixFromCivil: Unix day number to
// proleptic-Gregorian (year, month, day), via Hinnant's civil-from-days.
func civilFromDays(z int64) (year int64, month, day int) {
	z += 719468
	era := z / 146097
	if z < 0 {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	day = int(doy - (153*mp+2)/5 + 1)
	month = int(mp) + 3
	if mp >= 10 {
		month = int(mp) - 9
	}
	year = yoe + era*400
	if month <= 2 {
		year++
	}
	return year, month, day
}

// unixFromCivil converts a proleptic-Gregorian UTC calendar date to Unix
// days*86400 using Howard Hinnant's days-from-civil algorithm.
func unixFromCivil(year, month, day int) int64 {
	y := int64(year)
	if month <= 2 {
		y--
	}
	var era int64
	if y >= 0 {
		era = y / 400
	} else {
		era = (y - 399) / 400
	}
	yoe := y - era*400 // [0, 399]
	var mp int64
	if month > 2 {
		mp = int64(month) - 3
	} else {
		mp = int64(month) + 9
	}
	doy := (153*mp+2)/5 + int64(day) - 1   // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	days := era*146097 + doe - 719468      // days since 1970-01-01
	return days * 86400
}

// Summary holds headline statistics of a dataset.
type Summary struct {
	Name      string
	Users     int
	Posts     int
	First     time.Time
	Last      time.Time
	MeanPosts float64
}

// Summarize computes a dataset's Summary.
func (d *Dataset) Summarize() Summary {
	s := Summary{Name: d.Name, Posts: len(d.Posts)}
	users := d.Users()
	s.Users = len(users)
	if s.Users > 0 {
		s.MeanPosts = float64(s.Posts) / float64(s.Users)
	}
	if first, last, ok := d.TimeRange(); ok {
		s.First, s.Last = first, last
	}
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("%s: %d users, %d posts (%.1f posts/user), %s .. %s",
		s.Name, s.Users, s.Posts, s.MeanPosts,
		s.First.Format("2006-01-02"), s.Last.Format("2006-01-02"))
}

// Subsample keeps each post independently with the given probability,
// deterministically under the seed — used to study how the methodology
// degrades as data thins out. Ground truth is carried over unchanged.
func (d *Dataset) Subsample(prob float64, seed int64) (*Dataset, error) {
	if prob < 0 || prob > 1 {
		return nil, fmt.Errorf("trace: subsample probability %g outside [0,1]", prob)
	}
	rng := rand.New(rand.NewSource(seed))
	out := &Dataset{Name: d.Name, GroundTruth: copyGroundTruth(d.GroundTruth)}
	for _, p := range d.Posts {
		if rng.Float64() < prob {
			out.Posts = append(out.Posts, p)
		}
	}
	return out, nil
}
