package main

import "fmt"

// The workload and metric tables. metrics.json is the committed rendering
// of these tables (perfbench_test.go keeps the two in step).

// defaultSeed is the seed runs use unless told otherwise; heldOutSeed is a
// seed kept out of tuning, on which a claimed gain must also hold.
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

// workload is one scripted set of inputs and operations.
type workload struct {
	name     string
	why      string
	endToEnd func(*env) (map[string]metric, error)
	traced   func(*env) (map[string]metric, error)
}

// batchShape is a batch workload: generated crowds geolocated in turn
// with the given bootstrap replicate count (plus -margins -provenance).
// How long a crowd takes depends on the crowd as well as on the program
// (see panelSeed), so a workload whose fit dominates runs a panel of
// several crowds, and result_s averages them.
type batchShape struct {
	crowd     crowdSpec
	crowds    int
	bootstrap int
}

// serveShape is the daemon replay: the crowd's first half-year is the
// warm-start snapshot and the second half is replayed over HTTP.
type serveShape struct {
	crowd       crowdSpec
	bodyLines   int // posts per /ingest body
	placesPer   int // /place lookups after each body
	reportEvery int // bodies between /report calls
	splitMonth  int // first month of the replayed half
	bootsPerRun int // daemon boots timed for setup_s
}

var (
	crowd15k = batchShape{
		crowd:     crowdSpec{regions: []regionCount{{"jp", 800}, {"it", 600}, {"br", 600}, {"uk", 1000}}, postsPerUser: 120},
		crowds:    5,
		bootstrap: 16,
	}
	deepHistory = batchShape{
		crowd:     crowdSpec{regions: []regionCount{{"jp", 500}, {"it", 500}, {"br", 500}, {"uk", 500}}, postsPerUser: 3000},
		crowds:    1,
		bootstrap: 4,
	}
	replay = serveShape{
		crowd:       crowdSpec{regions: []regionCount{{"jp", 600}, {"it", 400}, {"br", 400}, {"uk", 600}}, postsPerUser: 120},
		bodyLines:   256,
		placesPer:   4,
		reportEvery: 20,
		splitMonth:  7,
		bootsPerRun: 15,
	}
)

// referenceBuilds is how many times a batch run builds ref.json for
// setup_s; the median is reported.
const referenceBuilds = 3

// crossCheckMonth is where a batch workload's traced run splits its crowd
// for the daemon cross-check: a daemon warm-started on the posts before
// December replays December and must then report the batch mixture.
const crossCheckMonth = 12

// tinyCrowd shrinks a crowd for the self-test.
func tinyCrowd(c crowdSpec) crowdSpec {
	out := crowdSpec{postsPerUser: c.postsPerUser}
	if out.postsPerUser > 200 {
		out.postsPerUser = 200
	}
	for _, r := range c.regions {
		out.regions = append(out.regions, regionCount{r.code, max(r.users/100, 8)})
	}
	return out
}

var workloads = []workload{
	{
		name:     "batch_crowd15k",
		why:      "a fixed panel of five 3,000-user crowds (120 posts each) geolocated with 16 bootstrap replicates: the EM fit and the bootstrap take most of the time",
		endToEnd: func(e *env) (map[string]metric, error) { return batchEndToEnd(e, crowd15k) },
		traced:   func(e *env) (map[string]metric, error) { return batchTraced(e, crowd15k) },
	},
	{
		name:     "batch_deep_history",
		why:      "2,000 users with 3,000 posts each (6.2M posts): CSV ingest and dataset hashing take most of the time, the fit layers under a tenth",
		endToEnd: func(e *env) (map[string]metric, error) { return batchEndToEnd(e, deepHistory) },
		traced:   func(e *env) (map[string]metric, error) { return batchTraced(e, deepHistory) },
	},
	{
		name:     "serve_replay",
		why:      "a daemon warm-started on 2,000 users' first half-year replays the second half: on-demand refits take most of the time, beside ingest and place traffic",
		endToEnd: func(e *env) (map[string]metric, error) { return serveEndToEnd(e, replay) },
		traced:   func(e *env) (map[string]metric, error) { return serveTraced(e, replay) },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// metricDef describes one reported metric. For per-layer metrics, call is
// the public function timed and moves/on name the end-to-end metric and
// workload it should move.
type metricDef struct {
	name    string
	unit    string
	better  string
	bound   float64 // end-to-end only
	samples string  // what a value is computed from
	call    string
	moves   string
	on      string
}

var endToEndMetrics = []metricDef{
	{name: "result_s", unit: "s", better: "lower", bound: 0.25,
		samples: "batch: geolocate process time, start to exit with the report written: the median of each crowd's runs, averaged over the run's crowds; serve: first /ingest to final /report of one replay (median when --seconds allows more)"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		samples: "batch: median of 3 `darkcrowd reference` builds; serve: median of 15 daemon boots, process start to listening, warm start included"},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15,
		samples: "rusage maxrss of the measured processes; batch: aggregated like result_s; serve: the replay daemon's, median over replays"},
}

var perLayerMetrics = []metricDef{
	{name: "trace.ingest_ms", unit: "ms", better: "lower", call: "os.ReadFile + trace.IngestCSV (the pipeline's load-trace stage)", moves: "result_s, peak_rss_mb", on: "batch_deep_history", samples: "1 call"},
	{name: "trace.ingest_alloc_mb", unit: "MB", better: "lower", call: "heap allocs of os.ReadFile + trace.IngestCSV", moves: "result_s, peak_rss_mb", on: "batch_deep_history", samples: "1 call"},
	{name: "profile.build_ms", unit: "ms", better: "lower", call: "profile.BuildUserProfilesFused", moves: "result_s", on: "batch_deep_history", samples: "1 call"},
	{name: "profile.polish_ms", unit: "ms", better: "lower", call: "profile.Polish", moves: "result_s", on: "batch_crowd15k", samples: "1 call"},
	{name: "profile.polish_kept_ratio", unit: "ratio", better: "higher", call: "profile.Polish kept/active", moves: "result_s", on: "batch_crowd15k", samples: "1 call"},
	{name: "geoloc.place_ms", unit: "ms", better: "lower", call: "geoloc.PlaceUsers with margins", moves: "result_s", on: "batch_crowd15k", samples: "1 call"},
	{name: "geoloc.fit_ms", unit: "ms", better: "lower", call: "geoloc.FitPlacement", moves: "result_s", on: "batch_crowd15k", samples: "1 call"},
	{name: "geoloc.fit_samples", unit: "count", better: "lower", call: "geoloc.FitPlacement samples (placed users)", moves: "result_s", on: "batch_crowd15k", samples: "1 call"},
	{name: "geoloc.fit_degraded", unit: "count", better: "lower", call: "geoloc.FitPlacement degraded fit (0 or 1)", moves: "result_s", on: "batch_crowd15k", samples: "1 call"},
	{name: "geoloc.bootstrap_ms", unit: "ms", better: "lower", call: "geoloc.BootstrapMixtureCI", moves: "result_s", on: "batch_crowd15k", samples: "1 call"},
	{name: "geoloc.bootstrap_failed_ratio", unit: "ratio", better: "lower", call: "geoloc.BootstrapMixtureCI failed/replicates", moves: "result_s", on: "batch_crowd15k", samples: "1 call"},
	{name: "pipeline.hash_dataset_ms", unit: "ms", better: "lower", call: "pipeline.HashDataset", moves: "result_s", on: "batch_deep_history", samples: "1 call"},
	{name: "pipeline.geolocate_ms", unit: "ms", better: "lower", call: "pipeline.Geolocate with the CLI's config", moves: "result_s (the rest of result_s is process, reference-load and encode overhead)", on: "batch_crowd15k, batch_deep_history", samples: "1 call"},
	{name: "trace.snapshot_load_ms", unit: "ms", better: "lower", call: "trace.ReadSnapshotBytes of the warm-start snapshot", moves: "setup_s", on: "serve_replay", samples: "1 call"},
	{name: "pipeline.boot_ms", unit: "ms", better: "lower", call: "pipeline.NewDaemon with SnapshotPath", moves: "setup_s", on: "serve_replay", samples: "1 call"},
	{name: "pipeline.ingest_p50_us", unit: "us", better: "lower", call: "Daemon.Ingest of one body", moves: "result_s (ingest share)", on: "serve_replay", samples: "one per body: 486 on serve_replay"},
	{name: "pipeline.ingest_p99_us", unit: "us", better: "lower", call: "Daemon.Ingest of one body", moves: "result_s (ingest share)", on: "serve_replay", samples: "one per body: 486 on serve_replay"},
	{name: "pipeline.place_p50_us", unit: "us", better: "lower", call: "Daemon.Place", moves: "result_s (place share)", on: "serve_replay", samples: "4 per body: 1,944 on serve_replay"},
	{name: "pipeline.place_cache_hit_ratio", unit: "ratio", better: "higher", call: "Daemon.Place served from the zone cache", moves: "result_s (place share)", on: "serve_replay", samples: "4 per body"},
	{name: "pipeline.report_ms", unit: "ms", better: "lower", call: "Daemon.Report (refit on demand), median", moves: "result_s", on: "serve_replay", samples: "one per report point: 25 on serve_replay, 1 on batch"},
	{name: "refit.polish_ms", unit: "ms", better: "lower", call: "profile.Polish at each report point, summed", moves: "result_s", on: "serve_replay", samples: "one per report point"},
	{name: "refit.place_ms", unit: "ms", better: "lower", call: "geoloc.PlaceUsersPartial at each report point, summed", moves: "result_s", on: "serve_replay", samples: "one per report point"},
	{name: "refit.fresh_ratio", unit: "ratio", better: "lower", call: "geoloc.PlaceUsersPartial fresh/placed, over all report points", moves: "result_s", on: "serve_replay", samples: "one per report point"},
	{name: "refit.fit_ms", unit: "ms", better: "lower", call: "geoloc.FitPlacement at each report point, summed", moves: "result_s", on: "serve_replay", samples: "one per report point"},
	{name: "serve.compactions", unit: "count", better: "lower", call: "daemon counter over the replay", moves: "result_s", on: "serve_replay", samples: "exact count"},
	{name: "serve.refits", unit: "count", better: "lower", call: "daemon counter over the replay", moves: "result_s", on: "serve_replay", samples: "exact count"},
	{name: "serve.placements_fresh", unit: "count", better: "lower", call: "daemon counter over the replay", moves: "result_s", on: "serve_replay", samples: "exact count"},
	{name: "serve.placements_cached", unit: "count", better: "higher", call: "daemon counter over the replay", moves: "result_s", on: "serve_replay", samples: "exact count"},
	{name: "serve.lines_rejected", unit: "count", better: "lower", call: "daemon counter over the replay", moves: "result_s", on: "serve_replay", samples: "exact count"},
	{name: "traced.result_s", unit: "s", better: "lower", call: "the traced in-process run of the end-to-end work", moves: "result_s", on: "all", samples: "1 run"},
	{name: "traced.overhead_s", unit: "s", better: "lower", call: "traced.result_s minus an untraced result_s measured in the same run", moves: "none (tracing cost)", on: "all", samples: "1 run each"},
}

// referenceMachine is where the bounds in BENCHMARK.json were tuned.
const referenceMachine = `nproc=2 GOMAXPROCS=2 go=go1.24.0 cpu="Intel(R) Xeon(R) Processor" (2-vCPU VM, shared host)`

// description is the content of metrics.json.
type description struct {
	Seeds struct {
		Default int64 `json:"default"`
		HeldOut int64 `json:"held_out"`
	} `json:"seeds"`
	ReferenceMachine string            `json:"reference_machine"`
	Workloads        []workloadDesc    `json:"workloads"`
	EndToEnd         []endToEndDesc    `json:"end_to_end"`
	PerLayer         []perLayerDesc    `json:"per_layer"`
	Notes            map[string]string `json:"notes"`
}

type workloadDesc struct {
	Name   string `json:"name"`
	Why    string `json:"why"`
	Inputs string `json:"inputs"`
	Work   string `json:"work"`
}

type endToEndDesc struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound"`
	Samples string  `json:"samples"`
}

type perLayerDesc struct {
	Name    string `json:"name"`
	Unit    string `json:"unit"`
	Better  string `json:"better"`
	Call    string `json:"call"`
	Moves   string `json:"moves"`
	On      string `json:"on"`
	Samples string `json:"samples"`
}

func describe() description {
	var d description
	d.Seeds.Default, d.Seeds.HeldOut = defaultSeed, heldOutSeed
	d.ReferenceMachine = referenceMachine
	batchWork := func(b batchShape) string {
		return fmt.Sprintf("set-up: %d x `darkcrowd reference`; measured: `darkcrowd geolocate -margins -provenance -bootstrap %d` on the crowds in turn, repeated while --seconds lasts", referenceBuilds, b.bootstrap)
	}
	crowd := func(c crowdSpec, seed string) string {
		return fmt.Sprintf("`darkcrowd generate -regions %s -posts %g -seed %s`", c.regionsFlag(), c.postsPerUser, seed)
	}
	batchCrowds := func(b batchShape) string {
		if b.crowds == 1 {
			return crowd(b.crowd, fmt.Sprint(panelSeed))
		}
		return fmt.Sprintf("%d crowds, crowd i (from 0) being %s; the run starts with crowd <seed> mod %d", b.crowds, crowd(b.crowd, fmt.Sprintf("%d+i", panelSeed)), b.crowds)
	}
	d.Workloads = []workloadDesc{
		{Name: workloads[0].name, Why: workloads[0].why, Inputs: batchCrowds(crowd15k), Work: batchWork(crowd15k)},
		{Name: workloads[1].name, Why: workloads[1].why, Inputs: batchCrowds(deepHistory), Work: batchWork(deepHistory)},
		{Name: workloads[2].name, Why: workloads[2].why,
			Inputs: crowd(replay.crowd, fmt.Sprint(panelSeed)) + fmt.Sprintf(", split at month %d into the warm-start .dcs and the replayed posts (`darkcrowd snapshot` of each half); <seed> picks the /place lookups", replay.splitMonth),
			Work: fmt.Sprintf("set-up: %d boots of `darkcrowd serve -refit-debounce -1s` on the warm-start snapshot; measured: one keep-alive connection, closed loop, no think time: one %d-line NDJSON /ingest body per step, %d seeded /place lookups of seen users after each body, one /report every %d bodies and after the last",
				replay.bootsPerRun, replay.bodyLines, replay.placesPer, replay.reportEvery)},
	}
	for _, m := range endToEndMetrics {
		d.EndToEnd = append(d.EndToEnd, endToEndDesc{m.name, m.unit, m.better, m.bound, m.samples})
	}
	for _, m := range perLayerMetrics {
		d.PerLayer = append(d.PerLayer, perLayerDesc{m.name, m.unit, m.better, m.call, m.moves, m.on, m.samples})
	}
	d.Notes = map[string]string{
		"seeds":           "every workload runs on a fixed panel of crowds, generated once and cached: the fit layers' cost varies 2.5x from crowd to crowd of one shape (one geolocate of a 3,000-user crowd took 1.0 s to 2.5 s, the bootstrap alone 0.46 s to 1.8 s), so crowds drawn per seed would make result_s measure the draw; the seed scripts the run instead (crowd order, /place lookups)",
		"checks":          "batch: every component with at least 10% weight lies within 1.5 h of a generating region's UTC offset, margins and a valid provenance chain are present (bootstrap interval values are not checked: the replicate streams overlap today); serve: every request answers 200 with consistent counts, and the drained /report mixture equals a batch geolocate over the same posts; traced: the layer-by-layer outputs reproduce the untraced report bit for bit, and at every report point an accumulator-driven refit reproduces the daemon's.",
		"failures":        "attempted and failed in the result line count every operation and check; failed/attempted is failed_ops_ratio, printed on its own line",
		"serve_latency":   "serve_replay prints ingest_posts_per_s, ingest_p50_ms, ingest_p99_ms, place_p50_ms, place_p99_ms and report_p50_ms (exact per-request samples, counts printed) on its log lines; the result line carries only metrics every workload measures",
		"traced_coverage": "every traced run calls every layer: batch workloads add a daemon cross-check (warm start before December, replay December), serve_replay adds its batch oracle layer by layer, so each per-layer metric is measured on each workload",
		"spans":           "the traced run writes its spans (name, start, end, parent, run id, heap-alloc bytes, GC cycles) to .bench_build/work/<workload>/spans.json",
	}
	return d
}
