package experiments

import (
	"fmt"
	"math"
	"sort"

	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/stats"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

// TableI regenerates Table I: active users by country/state in the Twitter
// dataset, after the 30-post threshold.
func (l *Lab) TableI() (*Result, error) {
	gen, err := l.Generic()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Title: "Table I — Twitter dataset: active users by Country/State",
		Paper: "14 regions, 22,576 active users total (Brazil 3,763 ... Finland 73)",
	}
	total := 0
	pass := true
	res.Lines = append(res.Lines, fmt.Sprintf("  %-18s %12s %12s", "Country/State", "paper", "measured"))
	for _, region := range tz.TableIRegions() {
		paperCount, err := synth.TableIUserCount(region.Code)
		if err != nil {
			return nil, err
		}
		want := paperCount / l.cfg.TwitterScale
		if want < 1 {
			want = 1
		}
		got := gen.ActiveUsers[region.Code]
		total += got
		res.Lines = append(res.Lines, fmt.Sprintf("  %-18s %12d %12d", region.Name, paperCount, got))
		// Every region must survive with most of its generated users.
		if got < (want*7)/10 {
			pass = false
		}
	}
	res.Lines = append(res.Lines, fmt.Sprintf("  %-18s %12d %12d", "TOTAL", 22576, total))
	res.Measured = fmt.Sprintf("%d active users across %d regions at scale 1/%d",
		total, len(gen.ActiveUsers), l.cfg.TwitterScale)
	res.Pass = pass && len(gen.ActiveUsers) == 14
	return res, nil
}

// Fig1 regenerates Figure 1: a typical single German user's activity
// profile.
func (l *Lab) Fig1() (*Result, error) {
	ds, err := l.Twitter()
	if err != nil {
		return nil, err
	}
	de, err := tz.ByCode("de")
	if err != nil {
		return nil, err
	}
	sub := ds.FilterUsers(func(u string) bool { return ds.GroundTruth[u] == "de" })
	users := geoloc.MostActiveUsers(sub, 1)
	if len(users) == 0 {
		return nil, fmt.Errorf("no German users at scale 1/%d", l.cfg.TwitterScale)
	}
	posts := sub.ByUser()[users[0]]
	p, err := profile.FromPosts(posts, profile.LocalCells(de))
	if err != nil {
		return nil, err
	}
	res := &Result{
		Title: "Figure 1 — A German user profile (local time)",
		Paper: "first peak in the morning, drop at lunch, growth to the evening peak, night trough 1h-7h",
	}
	res.Lines = append(res.Lines, fmt.Sprintf("  user %s, %d posts", users[0], len(posts)))
	res.Lines = append(res.Lines, profileChart(p)...)
	res.addProfileChart("german-user", "A German user profile (local time)", p)

	peak := argmax(p.Slice())
	var night, evening float64
	for h := 1; h <= 6; h++ {
		night += p[h]
	}
	for h := 17; h <= 22; h++ {
		evening += p[h]
	}
	res.Measured = fmt.Sprintf("peak at %02dh local, night mass %.3f vs evening mass %.3f", peak, night, evening)
	res.Pass = peak >= 9 && night < evening/2
	return res, nil
}

// Fig2 regenerates Figure 2: the German population profile versus the
// generic profile, plus the cross-country Pearson claim.
func (l *Lab) Fig2() (*Result, error) {
	gen, err := l.Generic()
	if err != nil {
		return nil, err
	}
	german, ok := gen.PerRegion["de"]
	if !ok {
		return nil, fmt.Errorf("no German region profile")
	}
	res := &Result{
		Title: "Figure 2 — German crowd profile (a) vs generic profile (b), both in local frame",
		Paper: "profiles nearly identical after shifting to a common zone; Pearson ~0.9 between any two countries",
	}
	res.Lines = append(res.Lines, "  (a) German population profile:")
	res.Lines = append(res.Lines, profileChart(german)...)
	res.Lines = append(res.Lines, "  (b) generic profile (all regions):")
	res.Lines = append(res.Lines, profileChart(gen.Generic)...)
	res.addProfileChart("german-crowd", "German crowd profile (local frame)", german)
	res.addProfileChart("generic", "Generic profile, all regions (local frame)", gen.Generic)

	rDE, err := german.Pearson(gen.Generic)
	if err != nil {
		return nil, err
	}
	// Average pairwise Pearson across all regions with enough users.
	var sum float64
	var n int
	codes := make([]string, 0, len(gen.PerRegion))
	for code, rp := range gen.PerRegion {
		_ = rp
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for i := 0; i < len(codes); i++ {
		for j := i + 1; j < len(codes); j++ {
			r, err := gen.PerRegion[codes[i]].Pearson(gen.PerRegion[codes[j]])
			if err != nil {
				continue
			}
			sum += r
			n++
		}
	}
	avg := sum / float64(n)
	res.Lines = append(res.Lines, fmt.Sprintf("  Pearson(German, generic) = %.3f", rDE))
	res.Lines = append(res.Lines, fmt.Sprintf("  mean pairwise Pearson over %d country pairs = %.3f (paper: ~0.9)", n, avg))
	res.Measured = fmt.Sprintf("Pearson(de, generic)=%.3f, mean pairwise=%.3f", rDE, avg)
	res.Pass = rDE > 0.9 && avg > 0.8
	return res, nil
}

// SingleCountryPlacement regenerates Figures 3-5: the EMD placement of one
// country's crowd across the 24 zones, with the Gaussian fit.
func (l *Lab) SingleCountryPlacement(id, code string, wantOffset float64) (*Result, error) {
	region, err := tz.ByCode(code)
	if err != nil {
		return nil, err
	}
	placement, err := l.placementFor(code)
	if err != nil {
		return nil, err
	}
	fit, err := geoloc.FitSingle(placement)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Title: fmt.Sprintf("Figure %s — EMD placement of the %s Twitter crowd", id[3:], region.Name),
		Paper: fmt.Sprintf("Gaussian centered at UTC%+g, sigma ~2.5", wantOffset),
	}
	res.Lines = append(res.Lines, placementChart(placement.Histogram)...)
	res.Lines = append(res.Lines, fmt.Sprintf("  Gaussian fit: center UTC%+.2f, sigma %.2f, avg dist %.4f, std %.4f",
		fit.PeakOffset, fit.Gaussian.Sigma, fit.AvgDistance, fit.StdDistance))
	res.addPlacementChart("placement",
		fmt.Sprintf("EMD placement of the %s Twitter crowd", region.Name),
		placement.Histogram, stats.Mixture{fit.Gaussian}.Curve(tz.HoursPerDay))
	res.Measured = fmt.Sprintf("center UTC%+.2f, sigma %.2f", fit.PeakOffset, fit.Gaussian.Sigma)
	// DST smears DST-observing countries up to one zone eastward.
	tol := 0.8
	if region.DST.Observed {
		tol = 1.6
	}
	res.Pass = math.Abs(fit.PeakOffset-wantOffset) <= tol &&
		fit.Gaussian.Sigma > 0.6 && fit.Gaussian.Sigma < 4.5
	return res, nil
}

// mixtureExperiment geolocates a synthetic multi-region crowd and checks
// the recovered components.
func (l *Lab) mixtureExperiment(title, paper string, ds *trace.Dataset, wantOffsets []float64) (*Result, error) {
	gen, err := l.Generic()
	if err != nil {
		return nil, err
	}
	profiles, err := profile.BuildUserProfiles(ds, l.buildOptions())
	if err != nil {
		return nil, err
	}
	geo, err := geoloc.Geolocate(profiles, gen.Generic, l.geoOptions())
	if err != nil {
		return nil, err
	}
	res := &Result{Title: title, Paper: paper}
	res.Lines = append(res.Lines, placementChart(geo.Placement.Histogram)...)
	res.Lines = append(res.Lines, describeComponents(geo.Components)...)
	res.addPlacementChart("placement", title, geo.Placement.Histogram, geo.Mixture.Curve(tz.HoursPerDay))
	res.Lines = append(res.Lines, fmt.Sprintf("  fit: avg dist %.4f, std %.4f, BIC %.1f",
		geo.AvgDistance, geo.StdDistance, geo.BIC))

	pass := len(geo.Components) == len(wantOffsets)
	for _, want := range wantOffsets {
		if !hasComponentNear(geo.Components, want, 1.6) {
			pass = false
		}
	}
	res.Measured = fmt.Sprintf("%d components: %v", len(geo.Components), summarizeCenters(geo.Components))
	res.Pass = pass
	return res, nil
}

// Fig6a regenerates Figure 6(a): Malaysian behaviour repeated in UTC,
// UTC-7 and UTC+9.
func (l *Lab) Fig6a() (*Result, error) {
	users := fig6Users(l.cfg.TwitterScale)
	ds, err := synth.Fig6aDataset(l.cfg.Seed+61, users)
	if err != nil {
		return nil, err
	}
	return l.mixtureExperiment(
		"Figure 6(a) — synthetic crowd: Malaysian behaviour in UTC, UTC-7, UTC+9",
		"three Gaussian components centered at UTC, UTC-7 and UTC+9",
		ds, []float64{0, -7, 9})
}

// Fig6b regenerates Figure 6(b): merged Illinois, German and Malaysian
// users.
func (l *Lab) Fig6b() (*Result, error) {
	users := fig6Users(l.cfg.TwitterScale)
	ds, err := synth.Fig6bDataset(l.cfg.Seed+62, users)
	if err != nil {
		return nil, err
	}
	return l.mixtureExperiment(
		"Figure 6(b) — synthetic crowd: Illinois + Germany + Malaysia",
		"three Gaussian components centered at UTC-6, UTC+1 and UTC+8",
		ds, []float64{-6, 1, 8})
}

// Fig7 regenerates Figure 7: an example flat (bot) profile, and shows the
// polishing step removing it.
func (l *Lab) Fig7() (*Result, error) {
	gen, err := l.Generic()
	if err != nil {
		return nil, err
	}
	de, err := tz.ByCode("de")
	if err != nil {
		return nil, err
	}
	ds, err := synth.GenerateCrowd(l.cfg.Seed+7, synth.CrowdConfig{
		Name: "fig7",
		Groups: []synth.Group{
			{Region: de, Users: 30, PostsPerUser: 120},
			{Region: de, Users: 5, PostsPerUser: 300, Kind: synth.KindBot, IDPrefix: "bot"},
		},
	})
	if err != nil {
		return nil, err
	}
	profiles, err := profile.BuildUserProfiles(ds, l.buildOptions())
	if err != nil {
		return nil, err
	}
	res := &Result{
		Title: "Figure 7 — example of a flat profile, removed by polishing",
		Paper: "flat profiles (bots, rarely shift workers) are filtered via EMD against the uniform 1/24 profile",
	}
	// Show the flattest bot profile.
	uniform := profile.Uniform()
	var flattest string
	best := math.Inf(1)
	for id, p := range profiles {
		d, err := p.EMD(uniform)
		if err != nil {
			continue
		}
		if d < best {
			best = d
			flattest = id
		}
	}
	res.Lines = append(res.Lines, fmt.Sprintf("  flattest profile (%s, EMD to uniform %.3f):", flattest, best))
	res.Lines = append(res.Lines, profileChart(profiles[flattest])...)
	res.addProfileChart("flat-profile", "Example of a flat (bot) profile", profiles[flattest])

	polished, err := profile.Polish(profiles, gen.Generic, true)
	if err != nil {
		return nil, err
	}
	botsRemoved, humansRemoved := 0, 0
	for _, id := range polished.Removed {
		if len(id) >= 3 && id[:3] == "bot" {
			botsRemoved++
		} else {
			humansRemoved++
		}
	}
	res.Lines = append(res.Lines, fmt.Sprintf("  polishing removed %d/5 bots and %d/30 regular users in %d iterations",
		botsRemoved, humansRemoved, polished.Iterations))
	res.Measured = fmt.Sprintf("%d/5 bots removed, %d false positives", botsRemoved, humansRemoved)
	res.Pass = botsRemoved >= 4 && humansRemoved <= 3
	return res, nil
}

// TableII regenerates Table II: the Gaussian-fit quality metrics for every
// dataset in the paper plus the 12h-shifted baseline.
func (l *Lab) TableII() (*Result, error) {
	res := &Result{
		Title: "Table II — Gaussian fitting metrics (avg / std of point-by-point distance)",
		Paper: "real fits 0.007-0.016 avg; baseline (Malaysian fit shifted 12h) 0.081 / 0.070",
	}
	res.Lines = append(res.Lines, fmt.Sprintf("  %-28s %10s %10s", "Dataset", "average", "std dev"))

	type row struct {
		name     string
		avg, std float64
	}
	var rows []row

	// Single-country Twitter fits.
	var malaysiaFit *geoloc.SingleFit
	var malaysiaPlacement *geoloc.Placement
	for _, tc := range []struct{ name, code string }{
		{"Malaysian Twitter", "my"},
		{"German Twitter", "de"},
		{"French Twitter", "fr"},
	} {
		placement, err := l.placementFor(tc.code)
		if err != nil {
			return nil, err
		}
		fit, err := geoloc.FitSingle(placement)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{tc.name, fit.AvgDistance, fit.StdDistance})
		if tc.code == "my" {
			malaysiaFit = fit
			malaysiaPlacement = placement
		}
	}

	// Synthetic multi-region fits.
	users := fig6Users(l.cfg.TwitterScale)
	synthA, err := synth.Fig6aDataset(l.cfg.Seed+61, users)
	if err != nil {
		return nil, err
	}
	synthB, err := synth.Fig6bDataset(l.cfg.Seed+62, users)
	if err != nil {
		return nil, err
	}
	for _, tc := range []struct {
		name string
		ds   *trace.Dataset
	}{
		{"Synthetic dataset (a)", synthA},
		{"Synthetic dataset (b)", synthB},
	} {
		gen, err := l.Generic()
		if err != nil {
			return nil, err
		}
		profiles, err := profile.BuildUserProfiles(tc.ds, l.buildOptions())
		if err != nil {
			return nil, err
		}
		geo, err := geoloc.Geolocate(profiles, gen.Generic, l.geoOptions())
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{tc.name, geo.AvgDistance, geo.StdDistance})
	}

	// The five forums.
	for _, name := range sortedForumNames() {
		fr, err := l.runForum(name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{name, fr.geo.AvgDistance, fr.geo.StdDistance})
	}

	// Baseline: the Malaysian Gaussian fit shifted by 12 hours.
	shiftedCurve := stats.Rotate(stats.Mixture{malaysiaFit.Gaussian}.Curve(24), -12)
	bAvg, bStd, err := stats.PointwiseDistanceStats(shiftedCurve, malaysiaPlacement.Histogram)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row{"Baseline", bAvg, bStd})

	worstReal := 0.0
	for _, r := range rows[:len(rows)-1] {
		if r.avg > worstReal {
			worstReal = r.avg
		}
		res.Lines = append(res.Lines, fmt.Sprintf("  %-28s %10.4f %10.4f", r.name, r.avg, r.std))
	}
	res.Lines = append(res.Lines, fmt.Sprintf("  %-28s %10.4f %10.4f", "Baseline", bAvg, bStd))

	res.Measured = fmt.Sprintf("worst real fit %.4f avg; baseline %.4f avg", worstReal, bAvg)
	res.Pass = worstReal < 0.05 && bAvg > 1.5*worstReal
	return res, nil
}

// fig6Users sizes the per-region groups of the Fig. 6 synthetic crowds:
// enough users that the mixture components are resolvable regardless of
// the Twitter scale.
func fig6Users(scale int) int {
	users := 220 / scale
	if users < 60 {
		users = 60
	}
	return users
}

func argmax(xs []float64) int {
	best := 0
	for i := range xs {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

func summarizeCenters(components []geoloc.Component) []string {
	out := make([]string, 0, len(components))
	for _, c := range components {
		out = append(out, fmt.Sprintf("%.0f%%@UTC%+.1f", c.Weight*100, c.Offset))
	}
	return out
}
