// Package geoloc implements the paper's crowd-geolocation methodology
// (§IV-A/B): every anonymous user is placed on the time zone whose
// reference profile is closest under the Earth Mover's Distance, the
// resulting placement histogram is fitted with a single Gaussian
// (single-country crowds) or a Gaussian mixture estimated by EM
// (multiple-country crowds), and the fitted component means reveal the
// time zones the crowd lives in. The package also provides the Table II
// fit-quality metrics and the §V-F DST-based hemisphere classifier.
package geoloc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/obs"
	"darkcrowd/internal/par"
	"darkcrowd/internal/stats"
	"darkcrowd/internal/trace"
	"darkcrowd/internal/tz"
)

// DistanceKind selects the profile distance used for placement.
type DistanceKind int

// Distance kinds. The paper's methodology calls for the EMD on profiles
// that live on the 24-hour circle; the linear variant is kept for the
// ablation benchmark.
const (
	DistanceCircularEMD DistanceKind = iota + 1
	DistanceLinearEMD
)

// String implements fmt.Stringer.
func (d DistanceKind) String() string {
	switch d {
	case DistanceCircularEMD:
		return "circular-emd"
	case DistanceLinearEMD:
		return "linear-emd"
	default:
		return fmt.Sprintf("DistanceKind(%d)", int(d))
	}
}

// Placement is the outcome of assigning every member of a crowd to the
// nearest time zone (§IV-A).
type Placement struct {
	// Assignments maps each user to the offset of their nearest zone.
	Assignments map[string]tz.Offset
	// Histogram is the fraction of the crowd placed on each zone, indexed
	// by zone index (see profile.ZoneIndex); it sums to 1.
	Histogram []float64
	// Counts is the raw user count per zone index.
	Counts []int
	// Margins, when placement ran with PlaceOptions.Margins, maps each
	// user to their placement margin: the EMD gap between the runner-up
	// zone and the winning zone. A margin near zero means the placement
	// was nearly a coin flip between two zones; a large margin means the
	// user's profile points unambiguously at one zone. Nil when margin
	// recording was off, so pre-margin reports and checkpoints are
	// unaffected.
	Margins map[string]float64 `json:",omitempty"`
}

// Samples returns one value per user — the zone index of the user's
// placement — in sorted-user order, ready to be fed to EM.
func (p *Placement) Samples() []float64 {
	users := make([]string, 0, len(p.Assignments))
	for u := range p.Assignments {
		users = append(users, u)
	}
	sort.Strings(users)
	out := make([]float64, 0, len(users))
	for _, u := range users {
		out = append(out, float64(profile.ZoneIndex(p.Assignments[u])))
	}
	return out
}

// PlaceOptions configures PlaceUsers.
type PlaceOptions struct {
	// Distance selects the placement metric.
	// Defaults to DistanceCircularEMD.
	Distance DistanceKind
	// Parallelism is the number of worker goroutines placing users: 0 uses
	// every core (GOMAXPROCS), 1 forces the sequential path, any other
	// value pins the pool size. Placement is deterministic: the output is
	// bit-for-bit identical for every setting (see the shard/merge note on
	// PlaceUsers).
	Parallelism int
	// Context, when non-nil, cancels a long placement run between users.
	Context context.Context
	// Obs, when non-nil, receives placement metrics
	// (placement.users_placed, per-zone counts) and a "placement" stage
	// span with per-shard timings. Observation only: the placement is
	// identical with or without it.
	Obs *obs.Observer
	// Margins records each user's placement margin (best-vs-runner-up EMD
	// gap) into Placement.Margins. The margin falls out of the same
	// all-rotations kernel call that picks the winning zone — no second
	// distance pass — so recording it does not change any assignment.
	Margins bool
}

// PlaceUsers assigns every profile to its nearest time zone, comparing the
// user's UTC-frame profile against the 24 zone reference profiles derived
// from the generic profile: "we geolocate that member on the timezone whose
// activity profile is less distant" (§IV-A). It is PlaceUsersPartial with
// no cache.
func PlaceUsers(profiles map[string]profile.Profile, generic profile.Profile, opts PlaceOptions) (*Placement, error) {
	placement, _, err := PlaceUsersPartial(profiles, generic, nil, opts)
	return placement, err
}

// PlacedZone is one freshly computed per-user placement: the winning zone
// index plus the placement margin (best-vs-runner-up EMD gap). Returned by
// PlaceUsersPartial so the daemon's version-keyed cache can serve both
// without re-running the kernel.
type PlacedZone struct {
	Zone   int
	Margin float64
}

// PlaceUsersPartial places every profile, taking the zone of each user in
// known from the cache and running only the remaining users through the
// EMD kernel. known carries zone indices of users whose profiles have not
// changed since they were last placed (the streaming daemon's dirty-set
// refit); entries for users absent from profiles are ignored, and a nil
// known places everyone. Per-user placement depends only on (profile,
// generic), so a cached zone for an unchanged profile is exactly what the
// kernel would recompute. fresh maps each newly placed user to its zone
// and margin so the caller can refill its cache. With opts.Margins,
// Placement.Margins holds the margins of the freshly placed users — all
// of them when known is nil.
//
// The users to place are split into contiguous shards of the sorted user
// list, one per worker. Every worker writes only its own index range of
// position-addressed result slices (plus a private EMD scratch buffer),
// and the histogram/count/assignment merge runs after the join, on one
// goroutine, in user order — which makes the result identical to the
// sequential path regardless of worker count or scheduling.
func PlaceUsersPartial(profiles map[string]profile.Profile, generic profile.Profile, known map[string]int, opts PlaceOptions) (*Placement, map[string]PlacedZone, error) {
	if len(profiles) == 0 {
		return nil, nil, errors.New("geoloc: no profiles to place")
	}
	if opts.Distance == 0 {
		opts.Distance = DistanceCircularEMD
	}
	users := profile.SortedUserIDs(profiles)
	zone := make([]int, len(users))
	todo := make([]int, 0, len(users)) // positions in users still to place
	for i, userID := range users {
		if zi, ok := known[userID]; ok {
			zone[i] = zi
		} else {
			todo = append(todo, i)
		}
	}
	margins := make([]float64, len(todo))
	// The circular path never materializes the 24 zone profiles: one
	// all-rotations kernel call against the generic profile yields every
	// zone distance. The linear ablation keeps the explicit zone loop.
	var zones []profile.Profile
	if opts.Distance == DistanceLinearEMD {
		zones = profile.ZoneProfiles(generic)
	}
	o := opts.Obs.Stage("placement")
	defer o.End()
	o.SetWorkers(par.Workers(opts.Parallelism, len(todo)))
	usersPlaced := o.Counter("placement.users_placed")
	// A typed-nil *Span must not become a non-nil ShardObserver.
	var so par.ShardObserver
	if sp := o.SpanRef(); sp != nil {
		so = sp
	}
	err := par.RangesObserved(opts.Context, opts.Parallelism, len(todo), func(start, end int) error {
		dists := make([]float64, tz.HoursPerDay)
		scratch := make([]float64, 2*tz.HoursPerDay)
		for j := start; j < end; j++ {
			if opts.Context != nil && j&0xff == 0 {
				if err := opts.Context.Err(); err != nil {
					return err
				}
			}
			i := todo[j]
			zi, margin, err := nearestZoneIndex(profiles[users[i]], generic, zones, opts.Distance, dists, scratch)
			if err != nil {
				return fmt.Errorf("geoloc: distance for user %q: %w", users[i], err)
			}
			zone[i], margins[j] = zi, margin
		}
		usersPlaced.Add(int64(end - start))
		return nil
	}, so)
	if err != nil {
		return nil, nil, err
	}
	cached := len(users) - len(todo)
	usersPlaced.Add(int64(cached))
	if known != nil {
		o.Counter("placement.users_cached").Add(int64(cached))
	}
	out := &Placement{
		Assignments: make(map[string]tz.Offset, len(profiles)),
		Histogram:   make([]float64, tz.HoursPerDay),
		Counts:      make([]int, tz.HoursPerDay),
	}
	for i, userID := range users {
		out.Assignments[userID] = profile.OffsetOf(zone[i])
		out.Counts[zone[i]]++
	}
	fresh := make(map[string]PlacedZone, len(todo))
	if opts.Margins {
		out.Margins = make(map[string]float64, len(todo))
	}
	for j, i := range todo {
		fresh[users[i]] = PlacedZone{Zone: zone[i], Margin: margins[j]}
		if out.Margins != nil {
			out.Margins[users[i]] = margins[j]
		}
	}
	total := float64(len(profiles))
	for zi, c := range out.Counts {
		out.Histogram[zi] = float64(c) / total
	}
	return out, fresh, nil
}

// PlaceOneMargin places a single profile — the streaming daemon's /place
// fast path — returning its zone index and placement margin, exactly what
// PlaceUsers would assign the same profile, without the Placement maps,
// the sorted user sweep, or the stage span of a batch call.
func PlaceOneMargin(p, generic profile.Profile, opts PlaceOptions) (int, float64, error) {
	if opts.Distance == 0 {
		opts.Distance = DistanceCircularEMD
	}
	var zones []profile.Profile
	if opts.Distance == DistanceLinearEMD {
		zones = profile.ZoneProfiles(generic)
	}
	dists := make([]float64, tz.HoursPerDay)
	scratch := make([]float64, 2*tz.HoursPerDay)
	return nearestZoneIndex(p, generic, zones, opts.Distance, dists, scratch)
}

// nearestZoneIndex returns the index of the zone profile with minimal
// distance from p, breaking ties toward the lower index, together with the
// placement margin — the distance gap between the runner-up zone and the
// winner (0 on an exact tie). dists and scratch are worker-owned
// workspaces (HoursPerDay and 2*HoursPerDay floats).
//
// The circular metric computes all 24 distances with one
// EMDCircularAllRotations call on the generic profile. The zone-zi
// reference is generic.Shift(-(zi+MinOffset)) — the rotation of generic by
// r = (zi + MinOffset) mod 24 — so the kernel's out[r] is bit-identical to
// EMDCircularScratch(p, zones[zi]), and the strict less-than argmin over
// ascending zi reproduces the historical per-zone loop exactly, ties
// included. The margin falls out of the same scan (a second running
// minimum over the distances already in hand — no extra kernel work), so
// the winning zone is identical whether or not the caller consumes it.
// zones is only consulted by the linear ablation metric.
func nearestZoneIndex(p profile.Profile, generic profile.Profile, zones []profile.Profile, dist DistanceKind, dists, scratch []float64) (int, float64, error) {
	if dist == DistanceLinearEMD {
		best := -1
		bestDist := 0.0
		second := math.Inf(1)
		for zi := range zones {
			d, err := stats.EMDLinear(p[:], zones[zi][:])
			if err != nil {
				return 0, 0, fmt.Errorf("zone %d: %w", zi, err)
			}
			switch {
			case best == -1:
				best, bestDist = zi, d
			case d < bestDist:
				best, bestDist, second = zi, d, bestDist
			case d < second:
				second = d
			}
		}
		if math.IsInf(second, 1) {
			second = bestDist // single-zone ablation: no runner-up
		}
		return best, second - bestDist, nil
	}
	rot, err := stats.EMDCircularAllRotations(p[:], generic[:], dists, scratch)
	if err != nil {
		return 0, 0, err
	}
	best := 0
	bestDist := rot[(int(tz.MinOffset)+tz.HoursPerDay)%tz.HoursPerDay]
	second := math.Inf(1)
	for zi := 1; zi < tz.HoursPerDay; zi++ {
		d := rot[(zi+int(tz.MinOffset)+tz.HoursPerDay)%tz.HoursPerDay]
		switch {
		case d < bestDist:
			best, bestDist, second = zi, d, bestDist
		case d < second:
			second = d
		}
	}
	return best, second - bestDist, nil
}

// SingleFit is the single-Gaussian placement fit used for single-country
// crowds (Figures 3-5): the center of the Gaussian uncovers the crowd's
// time zone.
type SingleFit struct {
	// Gaussian is the fitted curve, with Mean on the zone-index axis.
	Gaussian stats.Gaussian
	// PeakOffset is the fitted mean translated to a UTC offset (fractional
	// part carries sub-zone precision).
	PeakOffset float64
	// NearestOffset is PeakOffset rounded to the nearest integer zone.
	NearestOffset tz.Offset
	// AvgDistance and StdDistance are the Table II point-by-point
	// curve-to-histogram distance statistics.
	AvgDistance, StdDistance float64
}

// FitSingle fits one Gaussian to the placement histogram by least squares
// ("curve-fit the resulting distribution with a Gaussian", §IV-A).
func FitSingle(p *Placement) (*SingleFit, error) {
	g, err := stats.FitGaussianCircular(p.Histogram)
	if err != nil {
		return nil, fmt.Errorf("geoloc: single Gaussian fit: %w", err)
	}
	curve := stats.Mixture{g}.Curve(tz.HoursPerDay)
	avg, std, err := stats.PointwiseDistanceStats(curve, p.Histogram)
	if err != nil {
		return nil, fmt.Errorf("geoloc: fit-quality metrics: %w", err)
	}
	peak := zoneAxisToOffset(g.Mean)
	return &SingleFit{
		Gaussian:      g,
		PeakOffset:    peak,
		NearestOffset: nearestOffset(g.Mean),
		AvgDistance:   avg,
		StdDistance:   std,
	}, nil
}

// Component is one region of a mixed crowd, as uncovered by the GMM.
type Component struct {
	// Weight is the share of the crowd in this component.
	Weight float64
	// Offset is the component center translated to a (fractional) UTC
	// offset.
	Offset float64
	// NearestOffset is Offset rounded to the nearest integer zone.
	NearestOffset tz.Offset
	// Sigma is the component's standard deviation in zones.
	Sigma float64
}

// String renders the component the way the paper discusses them.
func (c Component) String() string {
	return fmt.Sprintf("%.0f%% of the crowd at %s (center %+.2f, sigma %.2f)",
		c.Weight*100, c.NearestOffset, c.Offset, c.Sigma)
}

// Geolocation is the full §IV-B result for a crowd of unknown origin.
type Geolocation struct {
	// Placement is the per-user zone assignment.
	Placement *Placement
	// Mixture is the EM-fitted model on the zone-index axis.
	Mixture stats.Mixture
	// Components lists the uncovered regions, heaviest first.
	Components []Component
	// AvgDistance and StdDistance are the Table II metrics for the
	// mixture curve against the placement histogram.
	AvgDistance, StdDistance float64
	// BIC is the selected model's Bayesian Information Criterion.
	BIC float64
	// Degraded is empty for a healthy mixture fit; otherwise it carries the
	// stats degradation reason (non-convergence, degenerate component). A
	// degraded geolocation is still the best available estimate — callers
	// should surface the reason as a warning rather than discard the result.
	Degraded string `json:",omitempty"`
	// MarginSummary aggregates the per-user placement margins when the
	// placement recorded them (PlaceOptions.Margins); nil otherwise, so
	// margin-off reports serialize exactly as before the field existed.
	MarginSummary *MarginStats `json:",omitempty"`
	// Confidence carries the bootstrap confidence intervals on the mixture
	// components when the caller ran BootstrapMixtureCI; nil otherwise.
	Confidence *BootstrapResult `json:"confidence,omitempty"`
}

// MarginStats summarizes the distribution of per-user placement margins —
// how decisively the crowd's members landed on their zones. All values are
// EMD gaps on the same scale as the placement distance.
type MarginStats struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Mean   float64 `json:"mean"`
	Max    float64 `json:"max"`
}

// SummarizeMargins computes MarginStats over a placement's recorded
// margins; nil when the placement carries none. The median of an even
// count is the mean of the two middle values.
func SummarizeMargins(p *Placement) *MarginStats {
	if len(p.Margins) == 0 {
		return nil
	}
	vals := make([]float64, 0, len(p.Margins))
	for _, m := range p.Margins {
		vals = append(vals, m)
	}
	sort.Float64s(vals)
	s := &MarginStats{Min: vals[0], Max: vals[len(vals)-1]}
	n := len(vals)
	if n%2 == 1 {
		s.Median = vals[n/2]
	} else {
		s.Median = (vals[n/2-1] + vals[n/2]) / 2
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	s.Mean = sum / float64(n)
	return s
}

// GeolocateOptions configures Geolocate.
type GeolocateOptions struct {
	// Place configures the placement stage.
	Place PlaceOptions
	// MaxComponents bounds the GMM model search. Defaults to 4.
	MaxComponents int
	// EM tunes the EM runs; Period is forced to 24.
	EM stats.EMConfig
	// Obs, when non-nil, is propagated to the placement and EM stages
	// (unless those carry their own observer already). Observation only.
	Obs *obs.Observer
}

// Geolocate runs the full §IV-B pipeline on a polished set of user
// profiles: EMD placement, then EM-fitted Gaussian mixture with BIC model
// selection, then the Table II fit-quality metrics. It is exactly
// PlaceUsers followed by FitPlacement; the split exists so a checkpointing
// pipeline can resume between the two expensive stages.
func Geolocate(profiles map[string]profile.Profile, generic profile.Profile, opts GeolocateOptions) (*Geolocation, error) {
	if opts.Place.Obs == nil {
		opts.Place.Obs = opts.Obs
	}
	placement, err := PlaceUsers(profiles, generic, opts.Place)
	if err != nil {
		return nil, err
	}
	return FitPlacement(placement, opts)
}

// FitPlacement runs the model-fitting half of Geolocate on an existing
// placement: EM mixture selection with BIC, then the Table II fit-quality
// metrics. The placement may come from a fresh PlaceUsers run or from a
// stage checkpoint — the result is identical either way.
func FitPlacement(placement *Placement, opts GeolocateOptions) (*Geolocation, error) {
	if opts.MaxComponents == 0 {
		opts.MaxComponents = 4
	}
	emCfg := opts.EM
	emCfg.Period = tz.HoursPerDay
	if emCfg.Obs == nil {
		emCfg.Obs = opts.Obs
	}
	if emCfg.Parallelism == 0 {
		// One knob steers the whole pipeline: a pinned placement pool size
		// carries over to the per-k EM fits unless EM overrides it.
		emCfg.Parallelism = opts.Place.Parallelism
	}
	res, err := stats.SelectMixture(placement.Samples(), opts.MaxComponents, emCfg)
	if err != nil {
		return nil, fmt.Errorf("geoloc: mixture selection: %w", err)
	}
	curve := res.Mixture.Curve(tz.HoursPerDay)
	avg, std, err := stats.PointwiseDistanceStats(curve, placement.Histogram)
	if err != nil {
		return nil, fmt.Errorf("geoloc: fit-quality metrics: %w", err)
	}
	components := make([]Component, 0, len(res.Mixture))
	for _, g := range res.Mixture {
		components = append(components, Component{
			Weight:        g.Weight,
			Offset:        zoneAxisToOffset(g.Mean),
			NearestOffset: nearestOffset(g.Mean),
			Sigma:         g.Sigma,
		})
	}
	return &Geolocation{
		Placement:     placement,
		Mixture:       res.Mixture,
		Components:    components,
		AvgDistance:   avg,
		StdDistance:   std,
		BIC:           res.BIC,
		Degraded:      res.Degraded,
		MarginSummary: SummarizeMargins(placement),
	}, nil
}

// zoneAxisToOffset converts a (possibly fractional) zone index on the EM
// axis to a UTC offset value.
func zoneAxisToOffset(mean float64) float64 {
	off := mean + float64(tz.MinOffset)
	// Wrap into (-12, +12].
	for off > 12 {
		off -= tz.HoursPerDay
	}
	for off <= -12 {
		off += tz.HoursPerDay
	}
	return off
}

func nearestOffset(mean float64) tz.Offset {
	// math.Floor, not int(): int truncates toward zero, so a slightly
	// negative mean (legal on the circular zone axis) would round to
	// zone 0 instead of wrapping to zone 23.
	zi := int(math.Floor(mean + 0.5))
	return profile.OffsetOf(((zi % tz.HoursPerDay) + tz.HoursPerDay) % tz.HoursPerDay)
}

// MostActiveUsers returns the n users with the most posts, most active
// first; ties break alphabetically. The paper uses the five most active
// users of a forum for hemisphere analysis (§V-F).
func MostActiveUsers(ds *trace.Dataset, n int) []string {
	counts := ds.PostCounts()
	users := make([]string, 0, len(counts))
	for u := range counts {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool {
		if counts[users[i]] != counts[users[j]] {
			return counts[users[i]] > counts[users[j]]
		}
		return users[i] < users[j]
	})
	if n > len(users) {
		n = len(users)
	}
	return users[:n]
}
