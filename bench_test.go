package darkcrowd

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (the workload that regenerates it), plus micro-benchmarks of
// the primitives (EMD, EM, Gaussian fit) and the substrates (onion
// circuits, forum scraping, crowd synthesis).
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Shared inputs are built once and reused across benchmark iterations.

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/crawler"
	"darkcrowd/internal/experiments"
	"darkcrowd/internal/forum"
	"darkcrowd/internal/onion"
	"darkcrowd/internal/stats"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
	"darkcrowd/internal/viz"
)

// benchState holds inputs shared by the benchmarks, built once.
type benchState struct {
	twitter  *trace.Dataset
	generic  *profile.GenericResult
	german   map[string]profile.Profile
	french   map[string]profile.Profile
	malay    map[string]profile.Profile
	fig6b    *trace.Dataset
	heavyDE  []trace.Post
	profileA profile.Profile
	profileB profile.Profile
}

var (
	benchOnce sync.Once
	bench     *benchState
	benchErr  error
)

func benchSetup(b *testing.B) *benchState {
	b.Helper()
	benchOnce.Do(func() {
		s := &benchState{}
		s.twitter, benchErr = synth.TwitterDataset(2018, synth.TwitterOptions{Scale: 40})
		if benchErr != nil {
			return
		}
		s.generic, benchErr = profile.BuildGeneric(s.twitter, profile.GenericOptions{})
		if benchErr != nil {
			return
		}
		countryProfiles := func(code string) (map[string]profile.Profile, error) {
			sub := s.twitter.FilterUsers(func(u string) bool { return s.twitter.GroundTruth[u] == code })
			return profile.BuildUserProfiles(sub, profile.BuildOptions{})
		}
		if s.german, benchErr = countryProfiles("de"); benchErr != nil {
			return
		}
		if s.french, benchErr = countryProfiles("fr"); benchErr != nil {
			return
		}
		if s.malay, benchErr = countryProfiles("my"); benchErr != nil {
			return
		}
		if s.fig6b, benchErr = synth.Fig6bDataset(2080, 60); benchErr != nil {
			return
		}
		de, err := tz.ByCode("de")
		if err != nil {
			benchErr = err
			return
		}
		heavy, err := synth.GenerateCrowd(2081, synth.CrowdConfig{
			Name:   "bench-heavy",
			Groups: []synth.Group{{Region: de, Users: 1, PostsPerUser: 4000}},
		})
		if err != nil {
			benchErr = err
			return
		}
		for _, posts := range heavy.ByUser() {
			s.heavyDE = posts
		}
		s.profileA = s.generic.Generic
		s.profileB = s.generic.Generic.Shift(5)
		bench = s
	})
	if benchErr != nil {
		b.Fatalf("bench setup: %v", benchErr)
	}
	return bench
}

// BenchmarkTableI_DatasetAndThreshold regenerates Table I's quantity: the
// per-region active-user census (profile building + 30-post threshold over
// the whole labelled dataset).
func BenchmarkTableI_DatasetAndThreshold(b *testing.B) {
	s := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := profile.BuildGeneric(s.twitter, profile.GenericOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1_UserProfile regenerates Figure 1's quantity: one user's
// Eq. 1 profile from a year of posts.
func BenchmarkFig1_UserProfile(b *testing.B) {
	s := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := profile.FromPosts(s.heavyDE, profile.UTCCells()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_ProfileCorrelation regenerates Figure 2's comparison: the
// Pearson correlation between two population profiles.
func BenchmarkFig2_ProfileCorrelation(b *testing.B) {
	s := benchSetup(b)
	german := s.generic.PerRegion["de"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := german.Pearson(s.generic.Generic); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPlacement(b *testing.B, profiles map[string]profile.Profile, generic profile.Profile) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := geoloc.PlaceUsers(profiles, generic, geoloc.PlaceOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_GermanPlacement regenerates Figure 3: EMD placement of the
// German crowd across the 24 zones.
func BenchmarkFig3_GermanPlacement(b *testing.B) {
	s := benchSetup(b)
	benchPlacement(b, s.german, s.generic.Generic)
}

// BenchmarkFig4_FrenchPlacement regenerates Figure 4.
func BenchmarkFig4_FrenchPlacement(b *testing.B) {
	s := benchSetup(b)
	benchPlacement(b, s.french, s.generic.Generic)
}

// BenchmarkFig5_MalaysianPlacement regenerates Figure 5.
func BenchmarkFig5_MalaysianPlacement(b *testing.B) {
	s := benchSetup(b)
	benchPlacement(b, s.malay, s.generic.Generic)
}

// BenchmarkFig6_MixtureGeolocation regenerates Figure 6: GMM uncovering of
// a three-region synthetic crowd (placement + EM + BIC selection).
func BenchmarkFig6_MixtureGeolocation(b *testing.B) {
	s := benchSetup(b)
	profiles, err := profile.BuildUserProfiles(s.fig6b, profile.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := geoloc.Geolocate(profiles, s.generic.Generic, geoloc.GeolocateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7_Polishing regenerates Figure 7's operation: iterative
// flat-profile removal over a bot-contaminated crowd.
func BenchmarkFig7_Polishing(b *testing.B) {
	s := benchSetup(b)
	de, err := tz.ByCode("de")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := synth.GenerateCrowd(2082, synth.CrowdConfig{
		Name: "bench-polish",
		Groups: []synth.Group{
			{Region: de, Users: 40, PostsPerUser: 120},
			{Region: de, Users: 10, PostsPerUser: 200, Kind: synth.KindBot, IDPrefix: "bot"},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	profiles, err := profile.BuildUserProfiles(ds, profile.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.Polish(profiles, s.generic.Generic, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_FitMetrics regenerates Table II's quantity: single
// Gaussian least-squares fit plus point-by-point distance statistics.
func BenchmarkTableII_FitMetrics(b *testing.B) {
	s := benchSetup(b)
	placement, err := geoloc.PlaceUsers(s.malay, s.generic.Generic, geoloc.PlaceOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := geoloc.FitSingle(placement); err != nil {
			b.Fatal(err)
		}
	}
}

// benchForumPipeline runs the full §V pipeline (synthesize, host, scrape,
// polish, geolocate) for one forum at reduced scale.
func benchForumPipeline(b *testing.B, name string) {
	b.Helper()
	s := benchSetup(b)
	spec, err := synth.ForumSpecByName(name)
	if err != nil {
		b.Fatal(err)
	}
	spec.Users /= 8
	if spec.Users < 20 {
		spec.Users = 20
	}
	spec.Posts = spec.Users * 60
	truth, err := synth.ForumCrowd(2083, spec)
	if err != nil {
		b.Fatal(err)
	}
	f := forum.New(forum.Config{
		Name:         spec.Name,
		ServerOffset: time.Duration(spec.ServerOffsetHours) * time.Hour,
		PageSize:     50,
	})
	if err := f.ImportCrowd(truth, forum.ImportOptions{}); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &crawler.Crawler{BaseURL: srv.URL}
		res, err := c.Scrape(spec.Name)
		if err != nil {
			b.Fatal(err)
		}
		profiles, err := profile.BuildUserProfiles(res.Dataset, profile.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		polished, err := profile.Polish(profiles, s.generic.Generic, true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := geoloc.Geolocate(polished.Kept, s.generic.Generic, geoloc.GeolocateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9_CRDClubPipeline regenerates Figure 9's workload.
func BenchmarkFig9_CRDClubPipeline(b *testing.B) {
	benchForumPipeline(b, "CRD Club")
}

// BenchmarkFig10_IDCPipeline regenerates Figure 10's workload.
func BenchmarkFig10_IDCPipeline(b *testing.B) {
	benchForumPipeline(b, "Italian DarkNet Community")
}

// BenchmarkFig11_DreamMarketPipeline regenerates Figure 11's workload.
func BenchmarkFig11_DreamMarketPipeline(b *testing.B) {
	benchForumPipeline(b, "Dream Market")
}

// BenchmarkFig12_MajesticGardenPipeline regenerates Figure 12's workload.
func BenchmarkFig12_MajesticGardenPipeline(b *testing.B) {
	benchForumPipeline(b, "The Majestic Garden")
}

// BenchmarkFig13_PedoSupportPipeline regenerates Figure 13's workload.
func BenchmarkFig13_PedoSupportPipeline(b *testing.B) {
	benchForumPipeline(b, "Pedo Support Community")
}

// BenchmarkFig8_ForumProfilePearson regenerates Figure 8's quantity: a
// scraped population profile correlated against the generic profile.
func BenchmarkFig8_ForumProfilePearson(b *testing.B) {
	s := benchSetup(b)
	ru, err := tz.ByCode("ru-msk")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := synth.GenerateCrowd(2084, synth.CrowdConfig{
		Name:   "bench-crd",
		Groups: []synth.Group{{Region: ru, Users: 40, PostsPerUser: 80}},
	})
	if err != nil {
		b.Fatal(err)
	}
	profiles, err := profile.BuildUserProfiles(ds, profile.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var list []profile.Profile
	for _, id := range profile.SortedUserIDs(profiles) {
		list = append(list, profiles[id])
	}
	pop, err := profile.Aggregate(list)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pop.ToLocal(3).Pearson(s.generic.Generic); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHemisphere_Classification regenerates the §V-F workload: the
// DST-based hemisphere test on one heavy user.
func BenchmarkHemisphere_Classification(b *testing.B) {
	s := benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := geoloc.ClassifyHemisphere(s.heavyDE, geoloc.HemisphereOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- primitive micro-benchmarks ---

// BenchmarkEMDCircular measures the placement distance primitive.
func BenchmarkEMDCircular(b *testing.B) {
	s := benchSetup(b)
	p := s.profileA.Slice()
	q := s.profileB.Slice()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stats.EMDCircular(p, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMDLinear measures the ablation baseline distance.
func BenchmarkEMDLinear(b *testing.B) {
	s := benchSetup(b)
	p := s.profileA.Slice()
	q := s.profileB.Slice()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stats.EMDLinear(p, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGaussianFit measures the single-Gaussian least-squares fit.
func BenchmarkGaussianFit(b *testing.B) {
	truth := stats.Mixture{{Weight: 1, Mean: 13, Sigma: 2.5}}
	ys := truth.Curve(24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stats.FitGaussianCircular(ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMSelection measures EM with BIC model selection on 500
// placement samples.
func BenchmarkEMSelection(b *testing.B) {
	samples := make([]float64, 0, 500)
	for i := 0; i < 500; i++ {
		switch i % 3 {
		case 0:
			samples = append(samples, float64(5+i%3))
		case 1:
			samples = append(samples, float64(12+i%3))
		default:
			samples = append(samples, float64(19+i%3))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stats.SelectMixture(samples, 4, stats.EMConfig{Period: 24}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthYearOfPosts measures crowd synthesis (one user, one year).
func BenchmarkSynthYearOfPosts(b *testing.B) {
	de, err := tz.ByCode("de")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.GenerateCrowd(int64(i), synth.CrowdConfig{
			Name:   "bench",
			Groups: []synth.Group{{Region: de, Users: 1, PostsPerUser: 90}},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnionRoundTrip measures one request/response over an
// established hidden-service stream (three hops each way plus the
// rendezvous splice).
func BenchmarkOnionRoundTrip(b *testing.B) {
	n := onion.NewNetwork(1)
	defer n.Close()
	if _, err := n.AddRelays(8); err != nil {
		b.Fatal(err)
	}
	svc, err := onion.HostService(n, "bench-svc", 2)
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	go func() {
		ln := svc.Listener()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 64)
				for {
					n, err := conn.Read(buf)
					if err != nil {
						return
					}
					if _, err := conn.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	client, err := onion.NewClient(n, "bench-client")
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	conn, err := client.Dial(svc.Onion())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	msg := []byte("ping over three hops")
	buf := make([]byte, len(msg))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(msg); err != nil {
			b.Fatal(err)
		}
		total := 0
		for total < len(buf) {
			n, err := conn.Read(buf[total:])
			if err != nil {
				b.Fatal(err)
			}
			total += n
		}
	}
}

// BenchmarkCrawlerScrape measures a full forum scrape over local HTTP.
func BenchmarkCrawlerScrape(b *testing.B) {
	it, err := tz.ByCode("it")
	if err != nil {
		b.Fatal(err)
	}
	crowd, err := synth.GenerateCrowd(2085, synth.CrowdConfig{
		Name:   "bench-scrape",
		Groups: []synth.Group{{Region: it, Users: 20, PostsPerUser: 60}},
	})
	if err != nil {
		b.Fatal(err)
	}
	f := forum.New(forum.Config{Name: "bench", PageSize: 50})
	if err := f.ImportCrowd(crowd, forum.ImportOptions{}); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &crawler.Crawler{BaseURL: srv.URL}
		if _, err := c.Scrape("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentTableII runs the complete Table II regeneration (the
// heaviest composite experiment) once per iteration.
func BenchmarkExperimentTableII(b *testing.B) {
	lab := experiments.NewLab(experiments.Config{TwitterScale: 200, ForumScale: 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Run("table2"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorPoll measures one full monitor sweep of a mid-size forum
// (the §VII no-timestamps fallback).
func BenchmarkMonitorPoll(b *testing.B) {
	it, err := tz.ByCode("it")
	if err != nil {
		b.Fatal(err)
	}
	crowd, err := synth.GenerateCrowd(2086, synth.CrowdConfig{
		Name:   "bench-monitor",
		Groups: []synth.Group{{Region: it, Users: 15, PostsPerUser: 60}},
	})
	if err != nil {
		b.Fatal(err)
	}
	f := forum.New(forum.Config{Name: "bench", HideTimestamps: true, PageSize: 100})
	if err := f.ImportCrowd(crowd, forum.ImportOptions{}); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	m := crawler.NewMonitor(&crawler.Crawler{BaseURL: srv.URL}, "bench")
	m.Clock = func() time.Time { return time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Poll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVGRender measures rendering one placement figure.
func BenchmarkSVGRender(b *testing.B) {
	chart := viz.BarChart{
		Title:   "bench",
		Labels:  viz.ZoneLabels(),
		Values:  make([]float64, 24),
		Overlay: make([]float64, 24),
	}
	for i := range chart.Values {
		chart.Values[i] = float64(i%5) / 10
		chart.Overlay[i] = float64(i%7) / 12
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := chart.SVG(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEntropy measures the profile-entropy primitive.
func BenchmarkEntropy(b *testing.B) {
	s := benchSetup(b)
	p := s.profileA.Slice()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Entropy(p); err != nil {
			b.Fatal(err)
		}
	}
}
