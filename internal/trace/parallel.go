package trace

// The parallel sharded CSV reader. After the columnar store and the
// allocation-free kernels, cold-start ingest dominates the pipeline
// (csv_read is ~3x the placement kernel in BENCH_placement at scale 20),
// so the load path gets the same treatment as placement: split the input
// on newline boundaries, parse shards concurrently on internal/par, and
// merge deterministically so the result is bit-identical to ReadCSVOpts
// at any worker count — including error messages, quarantine reports and
// bad-row budget aborts.
//
// The equivalence contract is strict and the test battery pins it:
//
//   - shard boundaries depend only on (input, workers), never scheduling;
//   - each shard parses with its own interning table; the merge re-interns
//     shard dictionaries in shard order, which reproduces the sequential
//     reader's first-appearance order;
//   - malformed rows are recorded per shard with shard-local record and
//     physical-line ordinals; the merge rebases them with prefix sums and
//     replays them through the same quarantine() logic the sequential
//     reader uses, so reports and budget aborts come out byte-identical;
//   - rare shapes with csv-specific normalization (\r handling, quoted
//     fields) are delegated: a line containing '\r' is parsed by a
//     one-line encoding/csv reader, and any input containing '"' falls
//     back to ReadCSVOpts wholesale. The fast path only handles byte
//     shapes whose csv semantics are trivially the identity.
//
// The fused-ingest hook rides on the same pass: with CollectCells set,
// the shard loop also emits the integer profile cell (epochDay*24+hour,
// i.e. floor(unixSec/3600)) per post, so profile building can skip its
// re-scan of the store (see profile.BuildUserProfilesFused).

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"time"

	"darkcrowd/internal/par"
)

// IngestOptions tunes IngestCSV. The embedded ReadCSVOptions mean exactly
// what they mean for ReadCSVOpts — lenient quarantining, budgets and
// sample caps behave identically on every path.
type IngestOptions struct {
	ReadCSVOptions
	// Workers is the shard parallelism (<=0 selects GOMAXPROCS; clamped
	// like par.Workers). The parsed result is bit-identical at any value.
	Workers int
	// CollectCells additionally emits the integer UTC profile cell of
	// every post during the parse, fusing ingest with the first half of
	// profile building.
	CollectCells bool
}

// IngestResult is what IngestCSV produces: the dataset with its columnar
// index already built (Dataset.Index is free), the lenient-mode
// quarantine report, the optional fused cells, and the worker count that
// actually ran.
type IngestResult struct {
	Dataset *Dataset
	Report  *QuarantineReport
	// Cells is non-nil when IngestOptions.CollectCells was set and the
	// ingest succeeded.
	Cells *UserCells
	// Workers is the resolved shard count (1 on the sequential fallback).
	Workers int
}

// UserCells is the fused-ingest product: per-post integer profile cells
// (epochDay*24+hour, UTC) grouped per user through the columnar index.
// It feeds profile.BuildUserProfilesFused the exact sequence of keys the
// unfused path would recompute from the store's timestamp column.
type UserCells struct {
	store *Store
	keys  []int64 // per post, dataset order: floor(unixSec/3600)
}

// Store returns the columnar index the cells are grouped by.
func (c *UserCells) Store() *Store { return c.store }

// AppendUserKeys appends user u's per-post cell keys (in dataset order)
// to buf and returns it — the fused twin of Store.AppendUserTimes.
func (c *UserCells) AppendUserKeys(buf []int64, u int) []int64 {
	for _, pos := range c.store.posts[c.store.offsets[u]:c.store.offsets[u+1]] {
		buf = append(buf, c.keys[pos])
	}
	return buf
}

// floorDiv3600 is floor(sec/3600) — the UTC profile cell key
// epochDay*24+hour of an epoch-seconds timestamp (exactly
// profile.cellKey(profile.cellOfUnix(sec)), proven by the fused-build
// equivalence test).
func floorDiv3600(sec int64) int64 {
	q := sec / 3600
	if sec%3600 != 0 && sec < 0 {
		q--
	}
	return q
}

// IngestCSV parses a CSV activity trace with sharded workers and builds
// the columnar index as part of the merge. On error the result is nil,
// except for a lenient bad-row budget abort which carries the partial
// quarantine report (mirroring ReadCSVOpts).
func IngestCSV(name string, data []byte, opts IngestOptions) (*IngestResult, error) {
	if bytes.IndexByte(data, '"') >= 0 {
		// Quoted fields can span commas and newlines; shard splitting on
		// raw '\n' would be wrong. Quotes never appear in our writers'
		// output, so this path exists for correctness, not speed.
		return ingestSequential(name, data, opts)
	}
	bodyStart, headerLines, err := parseCSVHeader(data)
	if err != nil {
		return nil, err
	}
	workers := par.Workers(opts.Workers, len(data)-bodyStart)
	cuts := shardSplit(data, bodyStart, workers)
	keep := 1 // strict mode stops a shard at its first bad row
	if opts.Lenient {
		keep = opts.SampleCap
		if keep <= 0 {
			keep = DefaultQuarantineSample
		}
	}
	shards := make([]*shardResult, workers)
	if err := par.Ranges(nil, workers, workers, func(start, end int) error {
		for k := start; k < end; k++ {
			shards[k] = parseShard(data[cuts[k]:cuts[k+1]], opts.Lenient, keep, opts.CollectCells)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return mergeShards(name, shards, headerLines, opts, workers)
}

// ingestSequential is the fallback path: ReadCSVOpts plus index/cells.
func ingestSequential(name string, data []byte, opts IngestOptions) (*IngestResult, error) {
	ds, report, err := ReadCSVOpts(name, bytes.NewReader(data), opts.ReadCSVOptions)
	if err != nil {
		return &IngestResult{Report: report, Workers: 1}, err
	}
	res := &IngestResult{Dataset: ds, Report: report, Workers: 1}
	s := ds.Index()
	if opts.CollectCells {
		keys := make([]int64, len(s.when))
		for i, sec := range s.when {
			keys[i] = floorDiv3600(sec)
		}
		res.Cells = &UserCells{store: s, keys: keys}
	}
	return res, nil
}

// errBlankLine is the internal sentinel for "this physical line is blank
// after csv normalization — skip it without consuming a record ordinal".
// It never escapes the package.
var errBlankLine = errors.New("trace: blank line")

// readOneCSVLine parses a single physical line (raw excludes the '\n'
// terminator; terminated says whether one followed in the input) with a
// real encoding/csv reader, so \r normalization, EOF edge cases and
// field-count errors are csv-exact. physLine rebases the reader's
// 1-based line numbers onto the caller's physical line ordinals.
func readOneCSVLine(raw []byte, terminated bool, physLine, fieldsPer int) ([]string, error) {
	buf := raw
	if terminated {
		buf = make([]byte, 0, len(raw)+1)
		buf = append(append(buf, raw...), '\n')
	}
	cr := csv.NewReader(bytes.NewReader(buf))
	cr.FieldsPerRecord = fieldsPer
	rec, err := cr.Read()
	if errors.Is(err, io.EOF) {
		return nil, errBlankLine
	}
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			pe.StartLine += physLine - 1
			pe.Line += physLine - 1
		}
		return nil, err
	}
	return rec, nil
}

// parseCSVHeader consumes the header the way ReadCSVOpts does: blank
// lines are skipped, the first real line must be exactly csvHeader.
// bodyStart is the byte offset of the first body line; headerLines the
// number of physical lines consumed (blanks included).
func parseCSVHeader(data []byte) (bodyStart, headerLines int, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		var raw []byte
		next := len(data)
		terminated := nl >= 0
		if terminated {
			raw, next = data[off:off+nl], off+nl+1
		} else {
			raw = data[off:]
		}
		headerLines++
		var fields []string
		if bytes.IndexByte(raw, '\r') >= 0 {
			fields, err = readOneCSVLine(raw, terminated, headerLines, -1)
			if errors.Is(err, errBlankLine) {
				off = next
				continue
			}
			if err != nil {
				// Unreachable on quote-free input, but keep the
				// sequential reader's wrapping for safety.
				return 0, 0, fmt.Errorf("trace: read CSV header: %w", err)
			}
		} else {
			if len(raw) == 0 {
				off = next
				continue
			}
			fields = splitCommas(raw)
		}
		if len(fields) != len(csvHeader) || fields[0] != csvHeader[0] || fields[1] != csvHeader[1] {
			return 0, 0, fmt.Errorf("trace: unexpected CSV header %v", fields)
		}
		return next, headerLines, nil
	}
	return 0, 0, errors.New("trace: empty CSV")
}

// splitCommas splits a quote-free, \r-free line into csv fields.
func splitCommas(raw []byte) []string {
	fields := make([]string, 0, 2)
	for {
		c := bytes.IndexByte(raw, ',')
		if c < 0 {
			return append(fields, string(raw))
		}
		fields = append(fields, string(raw[:c]))
		raw = raw[c+1:]
	}
}

// shardSplit returns workers+1 cut points into data such that every
// shard [cuts[k], cuts[k+1]) starts at a line start: each interior cut
// sits immediately after a '\n' (or at len(data)), and cuts are
// non-decreasing with cuts[0] = start, cuts[workers] = len(data). A line
// straddling an ideal boundary belongs entirely to the earlier shard.
func shardSplit(data []byte, start, workers int) []int {
	cuts := make([]int, workers+1)
	cuts[0] = start
	size := len(data) - start
	for k := 1; k < workers; k++ {
		target := start + k*size/workers
		if target < cuts[k-1] {
			target = cuts[k-1]
		}
		if target >= len(data) {
			cuts[k] = len(data)
			continue
		}
		if j := bytes.IndexByte(data[target:], '\n'); j >= 0 {
			cuts[k] = target + j + 1
		} else {
			cuts[k] = len(data)
		}
	}
	cuts[workers] = len(data)
	return cuts
}

// shardBad is one malformed record, recorded with shard-local ordinals;
// the merge rebases them with prefix sums.
type shardBad struct {
	rec     int             // shard-local record ordinal (1-based)
	csvErr  *csv.ParseError // CSV-level damage, shard-local line numbers
	timeErr error           // bad timestamp (position-independent message)
	raw     string          // offending timestamp value (time damage only)
}

// shardResult is one shard's parse output: locally-interned columns plus
// the bookkeeping the deterministic merge needs.
type shardResult struct {
	dict    []string         // shard-local user index -> ID, first appearance
	lookup  map[string]int32 // user ID -> shard-local index
	userOf  []int32          // per post: shard-local user index
	when    []int64          // per post: Unix seconds (floor)
	cells   []int64          // per post: floorDiv3600(when), if collecting
	nanoAt  []int32          // shard-local post indices with sub-second parts
	nanoT   []time.Time      // parallel to nanoAt: exact parsed instants
	lines   int              // physical lines consumed
	recs    int              // records consumed (non-blank lines)
	bad     []shardBad       // first keep malformed records, in order
	badRows int              // total malformed records
}

// addBad records one malformed record and reports whether the shard
// should stop (strict mode fails fast; lenient keeps scanning).
func (sh *shardResult) addBad(b shardBad, lenient bool, keep int) (stop bool) {
	sh.badRows++
	if len(sh.bad) < keep {
		sh.bad = append(sh.bad, b)
	}
	return !lenient
}

// record processes one well-formed csv row (user, timestamp fields as raw
// bytes) and reports whether the shard should stop.
func (sh *shardResult) record(user, ts []byte, lenient bool, keep int, collectCells bool) (stop bool) {
	sec, t, fast, err := parseStamp(ts)
	if err != nil {
		return sh.addBad(shardBad{rec: sh.recs, timeErr: err, raw: string(ts)}, lenient, keep)
	}
	if !fast {
		sec = t.Unix()
		if t.Nanosecond() != 0 {
			// The whole-seconds column drops the fractional part (like the
			// store's epoch column); remember the exact instant for the
			// Post materialization.
			sh.nanoAt = append(sh.nanoAt, int32(len(sh.when)))
			sh.nanoT = append(sh.nanoT, t)
		}
	}
	u, ok := sh.lookup[string(user)]
	if !ok {
		u = int32(len(sh.dict))
		id := string(user)
		sh.lookup[id] = u
		sh.dict = append(sh.dict, id)
	}
	sh.userOf = append(sh.userOf, u)
	sh.when = append(sh.when, sec)
	if collectCells {
		sh.cells = append(sh.cells, floorDiv3600(sec))
	}
	return false
}

// parseShard scans one newline-aligned byte range. The fast path handles
// '\r'-free lines with two plain comma-separated fields — byte shapes
// where csv parsing is the identity — and anything containing '\r' is
// delegated to a one-line encoding/csv reader.
func parseShard(seg []byte, lenient bool, keep int, collectCells bool) *shardResult {
	sh := &shardResult{lookup: make(map[string]int32)}
	rest := seg
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		var raw []byte
		terminated := nl >= 0
		if terminated {
			raw, rest = rest[:nl], rest[nl+1:]
		} else {
			raw, rest = rest, nil
		}
		sh.lines++
		if bytes.IndexByte(raw, '\r') >= 0 {
			fields, err := readOneCSVLine(raw, terminated, sh.lines, len(csvHeader))
			if errors.Is(err, errBlankLine) {
				continue
			}
			sh.recs++
			if err != nil {
				var pe *csv.ParseError
				if !errors.As(err, &pe) {
					// Unreachable on quote-free input; never drop it on the
					// floor if encoding/csv grows a new error shape.
					pe = &csv.ParseError{StartLine: sh.lines, Line: sh.lines, Column: 1, Err: err}
				}
				if sh.addBad(shardBad{rec: sh.recs, csvErr: pe}, lenient, keep) {
					return sh
				}
				continue
			}
			if sh.record([]byte(fields[0]), []byte(fields[1]), lenient, keep, collectCells) {
				return sh
			}
			continue
		}
		if len(raw) == 0 {
			continue // blank line: no record ordinal, like encoding/csv
		}
		sh.recs++
		comma := bytes.IndexByte(raw, ',')
		if comma < 0 || bytes.IndexByte(raw[comma+1:], ',') >= 0 {
			// Wrong field count: synthesize the exact error encoding/csv
			// would produce (verified against the stdlib source: StartLine
			// and Line are the record's first physical line, Column is 1).
			pe := &csv.ParseError{StartLine: sh.lines, Line: sh.lines, Column: 1, Err: csv.ErrFieldCount}
			if sh.addBad(shardBad{rec: sh.recs, csvErr: pe}, lenient, keep) {
				return sh
			}
			continue
		}
		if sh.record(raw[:comma], raw[comma+1:], lenient, keep, collectCells) {
			return sh
		}
	}
	return sh
}

// offsetParseError rebases a shard-local ParseError onto global physical
// line numbers. It copies — shard results stay untouched so the merge is
// re-runnable.
func offsetParseError(pe *csv.ParseError, lineOff int) *csv.ParseError {
	cp := *pe
	cp.StartLine += lineOff
	cp.Line += lineOff
	return &cp
}

// mergeShards is the single-goroutine deterministic reduction: rebase
// per-shard ordinals with prefix sums, reproduce the sequential reader's
// error/quarantine behavior exactly, re-intern shard dictionaries in
// shard order (= first-appearance order), materialize Posts, and finish
// the columnar store.
func mergeShards(name string, shards []*shardResult, headerLines int, opts IngestOptions, workers int) (*IngestResult, error) {
	recOff := make([]int, len(shards)+1)
	lineOff := make([]int, len(shards)+1)
	postOff := make([]int, len(shards)+1)
	recOff[0] = 1 // the header is record 1; body records continue from 2
	lineOff[0] = headerLines
	for k, sh := range shards {
		recOff[k+1] = recOff[k] + sh.recs
		lineOff[k+1] = lineOff[k] + sh.lines
		postOff[k+1] = postOff[k] + len(sh.when)
	}

	if !opts.Lenient {
		// Strict: the lowest-indexed shard's first bad row is the first bad
		// row of the file (earlier shards parsed fully and cleanly), and it
		// aborts with the sequential reader's exact error.
		for k, sh := range shards {
			if sh.badRows == 0 {
				continue
			}
			b := sh.bad[0]
			rec := recOff[k] + b.rec
			if b.timeErr != nil {
				return nil, fmt.Errorf("trace: parse time on line %d: %w", rec, b.timeErr)
			}
			return nil, fmt.Errorf("trace: read CSV line %d: %w", rec, offsetParseError(b.csvErr, lineOff[k]))
		}
	}

	var report *QuarantineReport
	if opts.Lenient {
		report = &QuarantineReport{}
		// Replay every bad row in global record order (shard order is record
		// order) through the same quarantine logic the sequential reader
		// uses, so sampling, truncation and the budget abort are identical.
		// A row whose detail was capped per-shard can never be sampled: its
		// within-shard index >= keep implies the global sample is already
		// full when it replays.
		for k, sh := range shards {
			for i := 0; i < sh.badRows; i++ {
				var row QuarantinedRow
				if i < len(sh.bad) {
					b := sh.bad[i]
					row = QuarantinedRow{Line: recOff[k] + b.rec}
					if b.timeErr != nil {
						row.Field = csvHeader[1]
						row.Reason = b.timeErr.Error()
						row.Raw = b.raw
					} else {
						row.Field = "record"
						row.Reason = offsetParseError(b.csvErr, lineOff[k]).Error()
					}
				}
				if qerr := opts.quarantine(report, row); qerr != nil {
					return &IngestResult{Report: report, Workers: workers}, qerr
				}
			}
		}
	}

	// Re-intern shard dictionaries in shard order. Within a shard the dict
	// is in first-appearance order, and shards cover the file in order, so
	// the provisional global order equals the sequential reader's
	// first-appearance order.
	totalPosts := postOff[len(shards)]
	lookup := make(map[string]int32)
	var firstIDs []string
	var counts []int32
	userOf := make([]int32, totalPosts)
	when := make([]int64, totalPosts)
	var cells []int64
	if opts.CollectCells {
		cells = make([]int64, totalPosts)
	}
	for k, sh := range shards {
		base := postOff[k]
		remap := make([]int32, len(sh.dict))
		for i, id := range sh.dict {
			g, ok := lookup[id]
			if !ok {
				g = int32(len(firstIDs))
				lookup[id] = g
				firstIDs = append(firstIDs, id)
				counts = append(counts, 0)
			}
			remap[i] = g
		}
		for i, u := range sh.userOf {
			g := remap[u]
			userOf[base+i] = g
			counts[g]++
		}
		copy(when[base:], sh.when)
		if opts.CollectCells {
			copy(cells[base:], sh.cells)
		}
	}

	ds := &Dataset{Name: name}
	if totalPosts > 0 {
		ds.Posts = make([]Post, totalPosts)
	}
	for i := range ds.Posts {
		ds.Posts[i] = Post{UserID: firstIDs[userOf[i]], Time: time.Unix(when[i], 0).UTC()}
	}
	for k, sh := range shards {
		base := postOff[k]
		for j, at := range sh.nanoAt {
			ds.Posts[base+int(at)].Time = sh.nanoT[j]
		}
	}
	sorted := true
	for i := 1; i < len(ds.Posts); i++ {
		if ds.Posts[i].Time.Before(ds.Posts[i-1].Time) {
			sorted = false
			break
		}
	}

	s := &Store{lookup: lookup, userOf: userOf, when: when, sortedByTime: sorted}
	s.finish(firstIDs, counts)
	ds.idx = s

	res := &IngestResult{Dataset: ds, Report: report, Workers: workers}
	if opts.CollectCells {
		res.Cells = &UserCells{store: s, keys: cells}
	}
	return res, nil
}
