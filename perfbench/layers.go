package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"darkcrowd"
	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/obs"
	"darkcrowd/internal/pipeline"
	"darkcrowd/internal/trace"
)

// The traced runs. Each one repeats a workload's work in-process, one
// public layer call at a time under a span, checks that the layer-by-layer
// outputs reproduce the untraced run's, and reports every per-layer
// metric. So that every workload reports every metric, each traced run
// covers both halves of the system: a batch workload adds a daemon
// cross-check (a daemon warm-started on its crowd before December replays
// December and must report the batch mixture), and the replay adds its
// batch oracle, run layer by layer.

func msOf(d time.Duration) metric { return metric{Value: millis(d)} }

func mb(bytes uint64) metric { return metric{Value: float64(bytes) / (1 << 20)} }

// loadReference reads ref.json the way the CLI's -ref flag does.
func loadReference(path string) (*profile.GenericResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ref, err := darkcrowd.ReadReference(f)
	if err != nil {
		return nil, err
	}
	return &profile.GenericResult{Generic: ref.Generic, PerRegion: ref.PerRegion, ActiveUsers: ref.ActiveUsers}, nil
}

// batchOut is what the layer-by-layer batch run produced.
type batchOut struct {
	geo  *geoloc.Geolocation
	ds   *trace.Dataset
	hash string
}

// batchLayers runs `geolocate -margins -provenance -bootstrap n` as the
// sequence of layer calls the pipeline makes.
func batchLayers(tr *tracer, csvPath, refPath string, bootstrap int, ms map[string]metric) (*batchOut, error) {
	tr.begin("darkcrowd.ReadReference")
	ref, err := loadReference(refPath)
	tr.end()
	if err != nil {
		return nil, err
	}
	// The pipeline's load-trace stage: read the file, then parse it.
	tr.begin("load-trace")
	tr.begin("os.ReadFile")
	data, err := os.ReadFile(csvPath)
	tr.end()
	if err != nil {
		tr.end()
		return nil, err
	}
	tr.begin("trace.IngestCSV")
	ing, err := trace.IngestCSV(csvPath, data, trace.IngestOptions{CollectCells: true})
	tr.end()
	s := tr.end()
	if err != nil {
		return nil, err
	}
	ms["trace.ingest_ms"] = msOf(s.dur())
	ms["trace.ingest_alloc_mb"] = mb(s.AllocBytes)

	tr.begin("profile.BuildUserProfilesFused")
	profiles, err := profile.BuildUserProfilesFused(ing.Cells, profile.BuildOptions{MinPosts: profile.DefaultMinPosts})
	s = tr.end()
	if err != nil {
		return nil, err
	}
	ms["profile.build_ms"] = msOf(s.dur())

	tr.begin("profile.Polish")
	polished, err := profile.Polish(profiles, ref.Generic, true)
	s = tr.end()
	if err != nil {
		return nil, err
	}
	ms["profile.polish_ms"] = msOf(s.dur())
	ms["profile.polish_kept_ratio"] = metric{Value: ratio(len(polished.Kept), len(profiles))}

	tr.begin("geoloc.PlaceUsers")
	placement, err := geoloc.PlaceUsers(polished.Kept, ref.Generic, geoloc.PlaceOptions{Margins: true})
	s = tr.end()
	if err != nil {
		return nil, err
	}
	ms["geoloc.place_ms"] = msOf(s.dur())

	tr.begin("geoloc.FitPlacement")
	geo, err := geoloc.FitPlacement(placement, geoloc.GeolocateOptions{})
	s = tr.end()
	if err != nil {
		return nil, err
	}
	ms["geoloc.fit_ms"] = msOf(s.dur())
	ms["geoloc.fit_samples"] = metric{Value: float64(len(placement.Assignments))}
	ms["geoloc.fit_degraded"] = metric{Value: boolCount(geo.Degraded != "")}

	tr.begin("geoloc.BootstrapMixtureCI")
	ci, err := geoloc.BootstrapMixtureCI(placement, geo.Mixture, geoloc.BootstrapOptions{Replicates: bootstrap, Seed: 1, Level: 0.95})
	s = tr.end()
	if err != nil {
		return nil, err
	}
	geo.Confidence = ci
	ms["geoloc.bootstrap_ms"] = msOf(s.dur())
	ms["geoloc.bootstrap_failed_ratio"] = metric{Value: ratio(ci.Failed, bootstrap)}

	tr.begin("pipeline.HashDataset")
	hash, err := pipeline.HashDataset(ing.Dataset)
	s = tr.end()
	if err != nil {
		return nil, err
	}
	ms["pipeline.hash_dataset_ms"] = msOf(s.dur())
	return &batchOut{geo: geo, ds: ing.Dataset, hash: hash}, nil
}

// logShare prints the share of a run's wall time that the named per-layer
// metrics (all in ms) took: each workload is chosen for the layers that
// take most of it.
func (e *env) logShare(ms map[string]metric, of time.Duration, run string, names ...string) {
	var sum float64
	for _, n := range names {
		sum += ms[n].Value
	}
	e.logf("share: %s = %.0f ms of %s's %.0f ms = %.1f%%", strings.Join(names, " + "), sum, run, millis(of), 100*sum/millis(of))
}

func boolCount(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// sameGeolocation checks that a layer-by-layer result serializes exactly
// like the geolocation of a report the CLI wrote.
func sameGeolocation(what string, got *batchOut, want *pipeline.Report) error {
	a, err := json.Marshal(got.geo)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want.Geolocation)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s: layer-by-layer geolocation differs from the CLI report", what)
	}
	if want.Provenance == nil || got.hash != want.Provenance.Dataset.SHA256 {
		return fmt.Errorf("%s: dataset hash %.12s does not match the report's provenance", what, got.hash)
	}
	return nil
}

// tracedGeolocate makes one pipeline.Geolocate call with the CLI's
// configuration for the flags and checks that it encodes to exactly the
// report the CLI wrote.
func tracedGeolocate(e *env, tr *tracer, csvPath, refPath string, bootstrap int, want []byte, ms map[string]metric) error {
	cfg := pipeline.Config{
		TracePath:           csvPath,
		ReferenceID:         "file:" + refPath,
		Reference:           func() (*profile.GenericResult, error) { return loadReference(refPath) },
		MinPosts:            profile.DefaultMinPosts,
		Margins:             true,
		BootstrapReplicates: bootstrap,
		BootstrapSeed:       1,
		BootstrapLevel:      0.95,
		Provenance:          true,
	}
	tr.begin("pipeline.Geolocate")
	res, err := pipeline.Geolocate(cfg)
	s := tr.end()
	if err != nil {
		return err
	}
	ms["pipeline.geolocate_ms"] = msOf(s.dur())
	got, err := (&pipeline.Report{Geolocation: res.Geo, Provenance: res.Provenance}).Encode()
	if err == nil && !bytes.Equal(got, want) {
		err = errors.New("pipeline.Geolocate's report differs from the CLI's")
	}
	e.op(err)
	return nil
}

// batchTraced is a batch workload's traced run.
func batchTraced(e *env, shape batchShape) (map[string]metric, error) {
	crowds, err := e.batchInputs(shape)
	if err != nil {
		return nil, err
	}
	crowd := crowds[e.firstCrowd(len(crowds))]
	ref := filepath.Join(e.work, "ref.json")
	if _, err := e.buildReference(ref, 1); err != nil {
		return nil, err
	}
	// The untraced reference point: one CLI run, timed like result_s.
	reportPath := filepath.Join(e.work, "report.json")
	untraced, err := e.geolocate(crowd, ref, reportPath, shape)
	e.op(err)
	if err != nil {
		return nil, err
	}
	reportBytes, err := os.ReadFile(reportPath)
	if err != nil {
		return nil, err
	}
	report, err := readReport(reportPath)
	if err != nil {
		return nil, err
	}

	ms := make(map[string]metric)
	tr := newTracer(runID(e, "batch"))
	settle()
	tr.begin("batch")
	t0 := time.Now()
	out, err := batchLayers(tr, crowd, ref, shape.bootstrap, ms)
	traced := time.Since(t0)
	tr.end()
	if err != nil {
		return nil, err
	}
	e.op(sameGeolocation("traced batch run", out, report))
	ms["traced.result_s"] = metric{Value: seconds(traced)}
	ms["traced.overhead_s"] = metric{Value: seconds(traced - untraced.wall)}
	e.logShare(ms, untraced.wall, "the untraced geolocate", "geoloc.bootstrap_ms", "geoloc.fit_ms")
	e.logShare(ms, untraced.wall, "the untraced geolocate", "trace.ingest_ms", "pipeline.hash_dataset_ms")

	// Split the crowd for the daemon cross-check before dropping it.
	split := monthStart(crossCheckMonth)
	baseDCS := filepath.Join(e.work, "crosscheck-base.dcs")
	base := out.ds.Window(time.Time{}, split)
	var snap bytes.Buffer
	if err := base.WriteSnapshot(&snap); err != nil {
		return nil, err
	}
	if err := os.WriteFile(baseDCS, snap.Bytes(), 0o644); err != nil {
		return nil, err
	}
	plan := newReplayPlan(e.seed, baseDCS, base, out.ds.Window(split, monthStart(13)).Posts, replay.bodyLines, replay.placesPer, 1<<30)
	batchGeo := out.geo
	out, base = nil, nil
	settle()

	if err := tracedGeolocate(e, tr, crowd, ref, shape.bootstrap, reportBytes, ms); err != nil {
		return nil, err
	}
	settle()

	tr.begin("daemon-crosscheck")
	d, err := daemonLayers(e, tr, plan, ref, shape.crowd.regions, ms)
	tr.end()
	if err != nil {
		return nil, err
	}
	e.op(sameFit("daemon cross-check vs batch run", d.final.Geo, batchGeo))
	for name, v := range d.counters {
		ms[name] = metric{Value: float64(v)}
	}
	return ms, e.finishTrace(tr)
}

// daemonRun is what the in-process daemon replay produced.
type daemonRun struct {
	final    *pipeline.ServeReport
	result   time.Duration // first Ingest to final Report, benchmark-side work excluded
	counters map[string]int64
}

// serveCounters are the daemon counters reported per run.
var serveCounters = []string{"serve.compactions", "serve.refits", "serve.placements_fresh", "serve.placements_cached", "serve.lines_rejected"}

// daemonLayers boots a daemon in-process and walks the plan through its
// public methods. At every report point an accumulator fed the same posts
// reproduces the refit layer by layer — Polish, PlaceUsersPartial with the
// previous report's zones as known, FitPlacement — and must match the
// daemon's report.
func daemonLayers(e *env, tr *tracer, plan *replayPlan, refPath string, regions []regionCount, ms map[string]metric) (*daemonRun, error) {
	ref, err := loadReference(refPath)
	if err != nil {
		return nil, err
	}
	snap, err := plan.bootCopy(e.work)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		return nil, err
	}
	tr.begin("trace.ReadSnapshotBytes")
	base, err := trace.ReadSnapshotBytes(data)
	s := tr.end()
	if err != nil {
		return nil, err
	}
	ms["trace.snapshot_load_ms"] = msOf(s.dur())
	data = nil

	reg := obs.NewRegistry()
	tr.begin("pipeline.NewDaemon")
	d, err := pipeline.NewDaemon(pipeline.ServeConfig{
		Reference:     func() (*profile.GenericResult, error) { return ref, nil },
		SnapshotPath:  snap,
		RefitDebounce: -1,
		Obs:           &obs.Observer{Metrics: reg},
	})
	s = tr.end()
	if err != nil {
		return nil, err
	}
	defer d.Close()
	ms["pipeline.boot_ms"] = msOf(s.dur())

	acc := profile.NewAccumulator(profile.DefaultMinPosts)
	for _, p := range base.Posts {
		acc.Add(p.UserID, p.Time.Unix())
	}
	base = nil
	before := make(map[string]int64)
	for _, name := range serveCounters {
		before[name] = reg.Counter(name).Load()
	}
	cached := reg.Counter("serve.placements_cached")

	var (
		ingest, place, report []float64
		hits                  int
		polishT, placeT, fitT time.Duration
		fresh, placed         int
		prevZones             = map[string]int{}
		prevVers              = map[string]uint64{}
		run                   daemonRun
		benchSide             time.Duration
		accepted              int
	)
	t0 := time.Now()
	for i, body := range plan.bodies {
		posts := plan.posts(i)
		tr.begin("pipeline.Daemon.Ingest")
		res, err := d.Ingest(bytes.NewReader(body))
		s := tr.end()
		ingest = append(ingest, micros(s.dur()))
		if err == nil && (res.Accepted != len(posts) || res.Rejected != 0) {
			err = fmt.Errorf("in-process ingest body %d: accepted %d rejected %d of %d", i, res.Accepted, res.Rejected, len(posts))
		}
		e.op(err)
		accepted += res.Accepted

		b0 := time.Now()
		for _, p := range posts {
			acc.Add(p.UserID, p.Time.Unix())
		}
		benchSide += time.Since(b0)

		for _, id := range plan.places[i] {
			c := cached.Load()
			tr.begin("pipeline.Daemon.Place")
			pr, ok := d.Place(id)
			s := tr.end()
			place = append(place, micros(s.dur()))
			if cached.Load() > c {
				hits++
			}
			if !ok {
				e.op(fmt.Errorf("in-process place %s: unknown user", id))
				continue
			}
			e.op(checkPlace(nil, id, pr))
		}
		if !plan.reportAfter(i) {
			continue
		}
		tr.begin("pipeline.Daemon.Report")
		rep, err := d.Report()
		s = tr.end()
		report = append(report, millis(s.dur()))
		if err == nil {
			err = checkServeReport(rep, plan.basePosts+accepted, regions)
		}
		e.op(err)
		if err != nil {
			continue
		}
		if i == len(plan.bodies)-1 {
			run.final = rep
		}

		// The refit, reproduced layer by layer.
		b0 = time.Now()
		tr.begin("refit")
		profiles, vers := acc.ActiveProfiles()
		tr.begin("profile.Polish")
		polished, err := profile.Polish(profiles, ref.Generic, true)
		s = tr.end()
		if err != nil {
			tr.end()
			return nil, err
		}
		polishT += s.dur()
		known := make(map[string]int)
		for id := range polished.Kept {
			if z, ok := prevZones[id]; ok && prevVers[id] == vers[id] {
				known[id] = z
			}
		}
		tr.begin("geoloc.PlaceUsersPartial")
		placement, fz, err := geoloc.PlaceUsersPartial(polished.Kept, ref.Generic, known, geoloc.PlaceOptions{})
		s = tr.end()
		if err != nil {
			tr.end()
			return nil, err
		}
		placeT += s.dur()
		fresh += len(fz)
		placed += len(polished.Kept)
		tr.begin("geoloc.FitPlacement")
		geo, err := geoloc.FitPlacement(placement, geoloc.GeolocateOptions{})
		s = tr.end()
		tr.end()
		if err != nil {
			return nil, err
		}
		fitT += s.dur()
		e.op(sameFit(fmt.Sprintf("refit reproduction at body %d", i), geo, rep.Geo))
		// Only this report's placements are known at the next one: a user
		// polished out now keeps no zone, even if an older report placed
		// them at the same version.
		prevZones = make(map[string]int, len(placement.Assignments))
		for id, off := range placement.Assignments {
			prevZones[id] = profile.ZoneIndex(off)
		}
		prevVers = vers
		benchSide += time.Since(b0)
	}
	run.result = time.Since(t0) - benchSide
	if run.final == nil {
		return nil, errors.New("in-process replay produced no final report")
	}
	run.counters = make(map[string]int64)
	for _, name := range serveCounters {
		run.counters[name] = reg.Counter(name).Load() - before[name]
	}
	ms["pipeline.ingest_p50_us"] = metric{Value: percentile(ingest, 0.5)}
	ms["pipeline.ingest_p99_us"] = metric{Value: percentile(ingest, 0.99)}
	ms["pipeline.place_p50_us"] = metric{Value: percentile(place, 0.5)}
	ms["pipeline.place_cache_hit_ratio"] = metric{Value: ratio(hits, len(place))}
	ms["pipeline.report_ms"] = metric{Value: median(report)}
	ms["refit.polish_ms"] = msOf(polishT)
	ms["refit.place_ms"] = msOf(placeT)
	ms["refit.fresh_ratio"] = metric{Value: ratio(fresh, placed)}
	ms["refit.fit_ms"] = msOf(fitT)
	e.logf("in-process replay: %d ingests, %d places, %d reports; report_ms samples %v", len(ingest), len(place), len(report), report)
	return &run, nil
}

// serveTraced is the replay's traced run: the HTTP replay once untraced,
// then the same plan in-process under spans, then the batch oracle layer
// by layer.
func serveTraced(e *env, shape serveShape) (map[string]metric, error) {
	s, err := e.prepareServe(shape)
	if err != nil {
		return nil, err
	}
	untraced, err := e.replayHTTP(s)
	if err != nil {
		return nil, err
	}
	e.logServe(untraced, 1)

	ms := make(map[string]metric)
	tr := newTracer(runID(e, "serve"))
	settle()
	tr.begin("serve")
	d, err := daemonLayers(e, tr, s.plan, s.ref, s.regions, ms)
	tr.end()
	if err != nil {
		return nil, err
	}
	ms["traced.result_s"] = metric{Value: seconds(d.result)}
	ms["traced.overhead_s"] = metric{Value: seconds(d.result - untraced.result)}
	e.logShare(ms, untraced.result, "the untraced replay", "refit.polish_ms", "refit.place_ms", "refit.fit_ms")
	if untraced.final != nil {
		e.op(sameFit("in-process replay vs HTTP replay", d.final.Geo, untraced.final.Geo))
	}
	for _, name := range serveCounters {
		// The counters come from the HTTP daemon's /metrics; the in-process
		// daemon did the same work and must count the same.
		got, want := d.counters[name], untraced.counters[name]
		if got != want {
			e.op(fmt.Errorf("%s: in-process replay counted %d, HTTP replay %d", name, got, want))
		}
		ms[name] = metric{Value: float64(want)}
	}
	settle()

	// The batch oracle, layer by layer, with the batch workloads' flags.
	reportPath := filepath.Join(e.work, "oracle-batch.json")
	_, err = runProc(e.bin, geolocateArgs(s.in.fullCSV, s.ref, reportPath, crowd15k.bootstrap)...)
	e.op(err)
	if err != nil {
		return nil, err
	}
	reportBytes, err := os.ReadFile(reportPath)
	if err != nil {
		return nil, err
	}
	report, err := readReport(reportPath)
	if err != nil {
		return nil, err
	}
	tr.begin("batch-oracle")
	out, err := batchLayers(tr, s.in.fullCSV, s.ref, crowd15k.bootstrap, ms)
	tr.end()
	if err != nil {
		return nil, err
	}
	e.op(sameGeolocation("traced batch oracle", out, report))
	e.op(sameFit("drained daemon vs batch oracle", d.final.Geo, out.geo))
	out = nil
	settle()
	if err := tracedGeolocate(e, tr, s.in.fullCSV, s.ref, crowd15k.bootstrap, reportBytes, ms); err != nil {
		return nil, err
	}
	return ms, e.finishTrace(tr)
}
