// Command darkcrowd is the pipeline CLI: generate synthetic datasets,
// build profiles, place crowds, geolocate, classify hemispheres, and
// scrape live forums — one subcommand per pipeline stage, composing
// through CSV traces on disk.
//
// Usage:
//
//	darkcrowd generate -regions jp:60,us-il:30 -out crowd.csv
//	darkcrowd profile -in crowd.csv -user jp-0001
//	darkcrowd geolocate -in crowd.csv
//	darkcrowd hemisphere -in crowd.csv -top 5
//	darkcrowd scrape -url http://127.0.0.1:8080 -out scraped.csv
//	darkcrowd serve -addr 127.0.0.1:8080 -snapshot state.dcs
//
// serve is the streaming mode: a long-running daemon that accepts NDJSON
// posts over HTTP and keeps an incrementally updated geolocation of the
// crowd (see README). Synthetic forums are hosted by forumsim -serve.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"darkcrowd"
	"darkcrowd/internal/atomicio"
	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/crawler"
	"darkcrowd/internal/obs"
	"darkcrowd/internal/pipeline"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "darkcrowd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "generate":
		return cmdGenerate(args[1:])
	case "reference":
		return cmdReference(args[1:])
	case "profile":
		return cmdProfile(args[1:])
	case "geolocate":
		return cmdGeolocate(args[1:])
	case "verify":
		return cmdVerify(args[1:])
	case "snapshot":
		return cmdSnapshot(args[1:])
	case "hemisphere":
		return cmdHemisphere(args[1:])
	case "scrape":
		return cmdScrape(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "bench":
		return cmdBench(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: darkcrowd <subcommand> [flags]

subcommands:
  generate    synthesize a crowd activity trace (CSV)
  reference   build and save the generic reference profile (JSON)
  profile     show a user's or the crowd's 24-hour activity profile
  geolocate   place a crowd and fit its time-zone mixture
  verify      replay a report from its snapshot and check its provenance chain
  snapshot    compile a CSV trace into a binary columnar snapshot (.dcs)
  hemisphere  classify users as northern/southern hemisphere (DST test)
  scrape      crawl a live forum into a CSV trace
  serve       run the streaming geolocation daemon (NDJSON ingest over HTTP)
  bench       load-benchmark a running serve daemon (mixed HTTP workloads)`)
}

// obsFlags wires the observability layer (internal/obs) into a
// subcommand: -metrics dumps the JSON metrics report when the command
// finishes, -trace renders the stage tree, -progress streams per-stage
// events to stderr as they happen, and -debug-addr serves /metrics plus
// net/http/pprof while the command runs. With none of the flags set the
// pipeline runs unobserved (nil observer — zero allocation, zero
// overhead), and observation never changes any output: the numbers the
// command prints are bit-identical either way.
type obsFlags struct {
	metrics   *bool
	traceTree *bool
	progress  *bool
	debugAddr *string
}

func registerObsFlags(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		metrics:   fs.Bool("metrics", false, "print a JSON metrics report when done"),
		traceTree: fs.Bool("trace", false, "print the stage trace tree when done"),
		progress:  fs.Bool("progress", false, "stream per-stage progress events to stderr"),
		debugAddr: fs.String("debug-addr", "", "serve /metrics and /debug/pprof on this address while running"),
	}
}

// observer builds the subcommand's Observer — nil when no flag asks for
// observation — and a finish func that emits the requested reports to
// stdout and shuts the debug server down.
func (of *obsFlags) observer(root string) (*obs.Observer, func(), error) {
	if !*of.metrics && !*of.traceTree && !*of.progress && *of.debugAddr == "" {
		return nil, func() {}, nil
	}
	o := &obs.Observer{Metrics: obs.NewRegistry(), Span: obs.StartSpan(root)}
	if *of.progress {
		o.Log = obs.NewLogger(os.Stderr)
	}
	var srv *obs.DebugServer
	if *of.debugAddr != "" {
		var err error
		srv, err = obs.Serve(*of.debugAddr, o.Metrics)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics, /debug/pprof)\n", srv.Addr)
	}
	finish := func() {
		o.Span.End()
		if *of.traceTree {
			fmt.Print(o.Span.Tree())
		}
		if *of.metrics {
			if err := o.Metrics.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "darkcrowd: write metrics:", err)
			}
		}
		if srv != nil {
			_ = srv.Close()
		}
	}
	return o, finish, nil
}

// parseRegions parses "jp:60,us-il:30" into ordered (code, count) pairs.
func parseRegions(s string) (map[string]int, error) {
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		if part == "" {
			continue
		}
		code, countStr, found := strings.Cut(part, ":")
		if !found {
			return nil, fmt.Errorf("bad region spec %q (want code:count)", part)
		}
		n, err := strconv.Atoi(countStr)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad user count in %q", part)
		}
		if _, err := tz.ByCode(code); err != nil {
			return nil, err
		}
		out[code] = n
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no regions given")
	}
	return out, nil
}

func loadTrace(path string) (*trace.Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("open trace: %w", err)
	}
	res, err := trace.IngestCSV(path, data, trace.IngestOptions{})
	if err != nil {
		return nil, err
	}
	return res.Dataset, nil
}

// saveTrace writes the dataset atomically: the output path never holds a
// torn CSV, even if the process dies mid-write.
func saveTrace(ds *trace.Dataset, path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return ds.WriteCSV(w)
	})
}

// reference builds the generic profile from a fresh synthetic Twitter
// stand-in on the given number of workers (0 = every core).
func reference(seed int64, scale, workers int) (*profile.GenericResult, error) {
	return pipeline.SynthReference(seed, scale, workers)
}

// referenceLoader resolves the -ref/-seed/-twitter-scale flags shared by
// geolocate and serve into a cache-key identity string plus the loader
// itself: a saved JSON reference when refPath is set, a fresh synthetic
// build otherwise.
func referenceLoader(refPath string, seed int64, scale, workers int) (string, func() (*profile.GenericResult, error)) {
	if refPath != "" {
		return "file:" + refPath, func() (*profile.GenericResult, error) {
			fh, err := os.Open(refPath)
			if err != nil {
				return nil, fmt.Errorf("open reference: %w", err)
			}
			defer fh.Close()
			ref, err := darkcrowd.ReadReference(fh)
			if err != nil {
				return nil, err
			}
			return &profile.GenericResult{
				Generic:     ref.Generic,
				PerRegion:   ref.PerRegion,
				ActiveUsers: ref.ActiveUsers,
			}, nil
		}
	}
	return pipeline.SynthReferenceID(seed, scale), func() (*profile.GenericResult, error) {
		return reference(seed, scale, workers)
	}
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	regions := fs.String("regions", "jp:50", "comma-separated code:count pairs (see region codes in README)")
	posts := fs.Float64("posts", 90, "target posts per user over the year")
	seed := fs.Int64("seed", 1, "generation seed")
	out := fs.String("out", "crowd.csv", "output CSV path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := parseRegions(*regions)
	if err != nil {
		return err
	}
	var groups []synth.Group
	codes := make([]string, 0, len(specs))
	for code := range specs {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		region, err := tz.ByCode(code)
		if err != nil {
			return err
		}
		groups = append(groups, synth.Group{Region: region, Users: specs[code], PostsPerUser: *posts})
	}
	ds, err := synth.GenerateCrowd(*seed, synth.CrowdConfig{Name: "generated", Groups: groups})
	if err != nil {
		return err
	}
	if err := saveTrace(ds, *out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s\n", *out, ds.Summarize())
	return nil
}

func renderProfile(p profile.Profile) {
	maxVal := 0.0
	for _, v := range p {
		if v > maxVal {
			maxVal = v
		}
	}
	for h, v := range p {
		bar := 0
		if maxVal > 0 {
			bar = int(v / maxVal * 40)
		}
		fmt.Printf("  %02dh %-40s %.4f\n", h, strings.Repeat("#", bar), v)
	}
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	in := fs.String("in", "crowd.csv", "input CSV trace")
	user := fs.String("user", "", "show this user's profile (default: whole crowd)")
	minPosts := fs.Int("min-posts", profile.DefaultMinPosts, "active-user threshold")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := loadTrace(*in)
	if err != nil {
		return err
	}
	if *user != "" {
		posts := ds.ByUser()[*user]
		if len(posts) == 0 {
			return fmt.Errorf("user %q not in trace", *user)
		}
		p, err := profile.FromPosts(posts, profile.UTCCells())
		if err != nil {
			return err
		}
		fmt.Printf("profile of %s (%d posts, UTC frame):\n", *user, len(posts))
		renderProfile(p)
		return nil
	}
	profiles, err := profile.BuildUserProfiles(ds, profile.BuildOptions{MinPosts: *minPosts})
	if err != nil {
		return err
	}
	var list []profile.Profile
	for _, id := range profile.SortedUserIDs(profiles) {
		list = append(list, profiles[id])
	}
	pop, err := profile.Aggregate(list)
	if err != nil {
		return err
	}
	fmt.Printf("population profile of %s (%d active users, UTC frame):\n", ds.Name, len(list))
	renderProfile(pop)
	return nil
}

func cmdReference(args []string) error {
	fs := flag.NewFlagSet("reference", flag.ContinueOnError)
	seed := fs.Int64("seed", 2018, "seed for the reference dataset")
	scale := fs.Int("twitter-scale", 40, "reference dataset scale divisor")
	out := fs.String("out", "reference.json", "output JSON path")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all cores, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	gen, err := reference(*seed, *scale, *workers)
	if err != nil {
		return err
	}
	ref := &darkcrowd.Reference{
		Generic:     gen.Generic,
		PerRegion:   gen.PerRegion,
		ActiveUsers: gen.ActiveUsers,
	}
	if err := atomicio.WriteFile(*out, ref.WriteJSON); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d regions)\n", *out, len(ref.PerRegion))
	return nil
}

// cmdSnapshot compiles a CSV trace into the binary columnar snapshot
// format once, so later geolocate runs load it with O(1) parse work
// instead of re-parsing the CSV.
func cmdSnapshot(args []string) error {
	fs := flag.NewFlagSet("snapshot", flag.ContinueOnError)
	in := fs.String("in", "crowd.csv", "input CSV trace (UTC timestamps)")
	out := fs.String("out", "", "output snapshot path (default: <in>.dcs)")
	workers := fs.Int("ingest-workers", 0, "parser worker goroutines (0 = all cores); output is identical for every setting")
	lenient := fs.Bool("lenient", false, "quarantine malformed trace rows instead of failing (report on stderr)")
	maxBadRows := fs.Int("max-bad-rows", 0, "with -lenient, fail after this many bad rows (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		*out = *in + ".dcs"
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return fmt.Errorf("open trace: %w", err)
	}
	res, err := trace.IngestCSV(*in, data, trace.IngestOptions{
		ReadCSVOptions: trace.ReadCSVOptions{Lenient: *lenient, MaxBadRows: *maxBadRows},
		Workers:        *workers,
	})
	if err != nil {
		return err
	}
	if res.Report != nil && !res.Report.Empty() {
		fmt.Fprintf(os.Stderr, "warning: %s\n", res.Report)
	}
	if err := atomicio.WriteFile(*out, res.Dataset.WriteSnapshot); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s\n", *out, res.Dataset.Summarize())
	return nil
}

func cmdGeolocate(args []string) error {
	fs := flag.NewFlagSet("geolocate", flag.ContinueOnError)
	in := fs.String("in", "crowd.csv", "input CSV trace (UTC timestamps)")
	refPath := fs.String("ref", "", "load the reference from this JSON file instead of rebuilding it")
	seed := fs.Int64("seed", 2018, "seed for the reference dataset")
	scale := fs.Int("twitter-scale", 40, "reference dataset scale divisor")
	minPosts := fs.Int("min-posts", profile.DefaultMinPosts, "active-user threshold")
	skipPolish := fs.Bool("skip-polish", false, "skip flat-profile removal")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all cores, 1 = sequential); output is identical for every setting")
	lenient := fs.Bool("lenient", false, "quarantine malformed trace rows instead of failing (report on stderr)")
	maxBadRows := fs.Int("max-bad-rows", 0, "with -lenient, fail after this many bad rows (0 = unlimited)")
	snapshot := fs.String("snapshot", "", "binary snapshot cache: load the trace from this .dcs file if it exists, else ingest the CSV and write it (empty = off)")
	ingestWorkers := fs.Int("ingest-workers", 0, "CSV parser worker goroutines (0 = all cores); output is identical for every setting")
	ckpt := fs.String("checkpoint", "", "stage checkpoint file: an interrupted run resumes from it (empty = off)")
	outPath := fs.String("out", "", "also write the full geolocation result as JSON to this path")
	margins := fs.Bool("margins", false, "record per-user placement margins (best-vs-runner-up EMD gap) and a margin summary")
	bootstrap := fs.Int("bootstrap", 0, "bootstrap replicates for mixture confidence intervals (0 = off)")
	bootstrapSeed := fs.Int64("bootstrap-seed", 1, "bootstrap resampling seed")
	bootstrapLevel := fs.Float64("bootstrap-level", 0.95, "two-sided confidence level for the bootstrap intervals")
	provenance := fs.Bool("provenance", false, "chain a hash-linked provenance section into the report (verifiable with `darkcrowd verify`)")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o, finish, err := of.observer("geolocate")
	if err != nil {
		return err
	}
	defer finish()
	cfg := pipeline.Config{
		TracePath:      *in,
		Lenient:        *lenient,
		MaxBadRows:     *maxBadRows,
		SnapshotPath:   *snapshot,
		IngestWorkers:  *ingestWorkers,
		MinPosts:       *minPosts,
		SkipPolish:     *skipPolish,
		Workers:        *workers,
		CheckpointPath: *ckpt,
		Obs:            o,

		Margins:             *margins,
		BootstrapReplicates: *bootstrap,
		BootstrapSeed:       *bootstrapSeed,
		BootstrapLevel:      *bootstrapLevel,
		Provenance:          *provenance,
	}
	cfg.ReferenceID, cfg.Reference = referenceLoader(*refPath, *seed, *scale, *workers)
	res, err := pipeline.Geolocate(cfg)
	if err != nil {
		if *ckpt != "" {
			fmt.Fprintf(os.Stderr, "geolocation interrupted; rerun with -checkpoint %s to resume\n", *ckpt)
		}
		return err
	}
	// Diagnostics go to stderr so a resumed run's stdout stays
	// byte-identical to a clean run's.
	if res.SnapshotLoaded {
		fmt.Fprintf(os.Stderr, "loaded trace from snapshot %s\n", *snapshot)
	}
	if res.SnapshotWritten {
		fmt.Fprintf(os.Stderr, "wrote snapshot %s\n", *snapshot)
	}
	if res.Quarantine != nil && !res.Quarantine.Empty() {
		fmt.Fprintf(os.Stderr, "warning: %s\n", res.Quarantine)
	}
	for _, stage := range res.Restored {
		fmt.Fprintf(os.Stderr, "resumed %s from checkpoint\n", stage)
	}
	geo := res.Geo
	if geo.Degraded != "" {
		fmt.Fprintf(os.Stderr, "warning: serving a degraded mixture fit (%s)\n", geo.Degraded)
	}
	if res.PolishRemoved > 0 {
		fmt.Printf("polishing removed %d flat profile(s)\n", res.PolishRemoved)
	}
	fmt.Printf("placement of %d active users across the 24 time zones:\n", res.ActiveUsers)
	for zi, share := range geo.Placement.Histogram {
		if share == 0 {
			continue
		}
		fmt.Printf("  %-7s %5.1f%%\n", profile.OffsetOf(zi), share*100)
	}
	fmt.Println("uncovered components:")
	for i, comp := range geo.Components {
		fmt.Printf("  %d. %s\n", i+1, comp)
	}
	fmt.Printf("fit quality: avg %.4f, std %.4f\n", geo.AvgDistance, geo.StdDistance)
	if ms := geo.MarginSummary; ms != nil {
		fmt.Printf("placement margins: min %.4f, median %.4f, mean %.4f, max %.4f\n", ms.Min, ms.Median, ms.Mean, ms.Max)
	}
	if ci := geo.Confidence; ci != nil {
		fmt.Printf("bootstrap confidence (%d replicates, seed %d, %.0f%% level):\n", ci.Replicates, ci.Seed, ci.Level*100)
		for i, c := range ci.Components {
			fmt.Printf("  %d. weight %.3f [%.3f, %.3f], offset %+.2f [%+.2f, %+.2f]\n",
				i+1, c.Weight, c.WeightLo, c.WeightHi, c.Offset, c.OffsetLo, c.OffsetHi)
		}
	}
	if *outPath != "" {
		data, err := (&pipeline.Report{Geolocation: geo, Provenance: res.Provenance}).Encode()
		if err != nil {
			return fmt.Errorf("encode result: %w", err)
		}
		if err := atomicio.WriteFileBytes(*outPath, data); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *outPath)
	}
	return nil
}

// cmdVerify replays a report from its snapshot and checks the provenance
// chain plus byte-identical regeneration; exits non-zero on any mismatch.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	reportPath := fs.String("report", "report.json", "report JSON written by `geolocate -provenance -out`")
	snapshot := fs.String("snapshot", "", "the .dcs snapshot the report was computed from (required)")
	refPath := fs.String("ref", "", "reference JSON file, required when the report used -ref")
	workers := fs.Int("workers", 0, "replay worker goroutines (0 = all cores); verification is identical for every setting")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *snapshot == "" {
		return fmt.Errorf("-snapshot is required")
	}
	o, finish, err := of.observer("verify")
	if err != nil {
		return err
	}
	defer finish()
	data, err := os.ReadFile(*reportPath)
	if err != nil {
		return fmt.Errorf("open report: %w", err)
	}
	res, err := pipeline.Verify(data, pipeline.VerifyOptions{
		SnapshotPath: *snapshot,
		Workers:      *workers,
		Obs:          o,
		Reference: func(refID string) (func() (*profile.GenericResult, error), error) {
			if *refPath == "" {
				return nil, fmt.Errorf("report's reference is %q; pass the original file with -ref", refID)
			}
			_, loader := referenceLoader(*refPath, 0, 0, *workers)
			if want := "file:" + *refPath; refID != want {
				fmt.Fprintf(os.Stderr, "note: report names reference %q, verifying against %s\n", refID, *refPath)
			}
			return loader, nil
		},
	})
	if err != nil {
		return fmt.Errorf("verification FAILED: %w", err)
	}
	fmt.Printf("verification OK: %s replays %d posts byte-identically (%d chain records)\n",
		*reportPath, res.Posts, res.Records)
	return nil
}

func cmdHemisphere(args []string) error {
	fs := flag.NewFlagSet("hemisphere", flag.ContinueOnError)
	in := fs.String("in", "crowd.csv", "input CSV trace (UTC timestamps)")
	top := fs.Int("top", 5, "classify this many most-active users")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := loadTrace(*in)
	if err != nil {
		return err
	}
	verdicts, err := geoloc.ClassifyTopUsers(ds, *top, geoloc.HemisphereOptions{})
	if err != nil {
		return err
	}
	users := geoloc.MostActiveUsers(ds, *top)
	for _, u := range users {
		v := verdicts[u]
		if v == nil {
			fmt.Printf("  %-20s insufficient seasonal activity\n", u)
			continue
		}
		fmt.Printf("  %-20s %-6s (best alignment shift %+.2f h, %d+%d seasonal posts)\n",
			u, v.Hemisphere, v.BestShift, v.OctMarPosts, v.MarOctPosts)
	}
	return nil
}

func cmdScrape(args []string) error {
	fs := flag.NewFlagSet("scrape", flag.ContinueOnError)
	rawURL := fs.String("url", "", "forum base URL (required)")
	out := fs.String("out", "scraped.csv", "output CSV path")
	timeout := fs.Duration("timeout", crawler.DefaultTimeout, "per-request timeout")
	retries := fs.Int("retries", crawler.DefaultMaxAttempts, "attempts per request (1 disables retries)")
	minInterval := fs.Duration("min-interval", 0, "politeness gap between requests (0 = none)")
	maxFailures := fs.Int("max-failures", 0, "threads allowed to fail before the crawl aborts")
	ckpt := fs.String("checkpoint", "", "checkpoint file for resumable crawls (empty = off)")
	ckptEvery := fs.Int("checkpoint-every", 1, "save the checkpoint every N completed threads")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rawURL == "" {
		return fmt.Errorf("-url is required")
	}
	o, finish, err := of.observer("scrape")
	if err != nil {
		return err
	}
	defer finish()
	c := &crawler.Crawler{
		BaseURL:     strings.TrimRight(*rawURL, "/"),
		Timeout:     *timeout,
		Retry:       crawler.RetryPolicy{MaxAttempts: *retries},
		MinInterval: *minInterval,
		MaxFailures: *maxFailures,
		Obs:         o,
	}
	res, err := c.ScrapeResumable(context.Background(), "scraped",
		crawler.CheckpointOptions{Path: *ckpt, Every: *ckptEvery})
	if err != nil {
		if *ckpt != "" {
			fmt.Fprintf(os.Stderr, "crawl interrupted; rerun with -checkpoint %s to resume\n", *ckpt)
		}
		return err
	}
	if res.Resumed {
		fmt.Println("resumed from checkpoint")
	}
	fmt.Printf("measured server offset: %v\n", res.ServerOffset)
	fmt.Printf("scraped %d posts (%d boards, %d threads, %d pages, %d retries)\n",
		res.Dataset.NumPosts(), res.Boards, res.Threads, res.Pages, res.Retries)
	if res.Skipped > 0 {
		fmt.Printf("skipped %d thread(s):\n", res.Skipped)
		for _, e := range res.Errors {
			fmt.Printf("  %s\n", e)
		}
	}
	if err := saveTrace(res.Dataset, *out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

// serveTestHook, when non-nil, receives the daemon's resolved listen
// address and a function that triggers shutdown, letting tests drive the
// serve lifecycle without sending real signals.
var serveTestHook func(addr string, stop context.CancelFunc)

// cmdServe runs the streaming geolocation daemon: NDJSON posts in over
// POST /ingest, incrementally updated placements out of GET /place/{user}
// and GET /report. The listener is bound and the SIGINT/SIGTERM handler
// installed before the serving line is printed — the advertised URL is
// always connectable, -addr :0 renders with the real resolved port, and a
// signal sent once the line appears drains in-flight requests, then
// flushes the snapshot.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	refPath := fs.String("ref", "", "load the reference from this JSON file instead of rebuilding it")
	seed := fs.Int64("seed", 2018, "seed for the reference dataset")
	scale := fs.Int("twitter-scale", 40, "reference dataset scale divisor")
	minPosts := fs.Int("min-posts", profile.DefaultMinPosts, "active-user threshold")
	skipPolish := fs.Bool("skip-polish", false, "skip flat-profile removal")
	workers := fs.Int("workers", 0, "worker goroutines for placement and the mixture fit (0 = all cores); reports are identical for every setting")
	snapshot := fs.String("snapshot", "", "durable state: warm-start from this .dcs snapshot and checkpoint to it on compaction and shutdown (empty = in-memory only)")
	shards := fs.Int("shards", 0, "ingest shard count (0 = default; rounded up to a power of two); reports are identical for every setting")
	compactEvery := fs.Int("compact-every", pipeline.DefaultCompactEvery, "fold the mutable ingest tail into the immutable base after this many pending posts")
	refitDebounce := fs.Duration("refit-debounce", pipeline.DefaultRefitDebounce, "quiet period after ingest before the background re-fit (negative = fit only on demand)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	refID, ref := referenceLoader(*refPath, *seed, *scale, *workers)
	fmt.Fprintf(os.Stderr, "loading reference (%s)...\n", refID)
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	d, err := pipeline.NewDaemon(pipeline.ServeConfig{
		Reference:     ref,
		MinPosts:      *minPosts,
		SkipPolish:    *skipPolish,
		Workers:       *workers,
		Shards:        *shards,
		SnapshotPath:  *snapshot,
		CompactEvery:  *compactEvery,
		RefitDebounce: *refitDebounce,
		Obs:           o,
	})
	if err != nil {
		return err
	}
	srv, err := obs.ServeHandler(*addr, d.Handler())
	if err != nil {
		_ = d.Close()
		return err
	}
	// The signal handler goes in before the serving line is printed: a
	// supervisor that sends SIGTERM as soon as it sees the address must
	// get the drain, not the default kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("darkcrowd geolocation daemon serving on http://%s (POST /ingest, GET /place/{user}, /report, /healthz, /metrics)\n", srv.Addr)
	if serveTestHook != nil {
		serveTestHook(srv.Addr, stop)
	}
	<-ctx.Done()
	fmt.Println("shutting down...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = srv.Shutdown(shutCtx)
	if cerr := d.Close(); err == nil {
		err = cerr // the snapshot flush, surfaced
	}
	return err
}
