package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/pipeline"
	"darkcrowd/internal/tz"
)

// The correctness checks. None of them looks at the bootstrap interval
// values: the bootstrap's replicate streams overlap today, so its intervals
// are known to be too narrow.

// minCheckedWeight and maxOffsetError define a correct batch report: every
// component carrying at least minCheckedWeight of the crowd sits within
// maxOffsetError hours of the UTC offset of a region the crowd was
// generated from.
const (
	minCheckedWeight = 0.10
	maxOffsetError   = 1.5
)

// readReport decodes a report written by `darkcrowd geolocate -out`.
func readReport(path string) (*pipeline.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep pipeline.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("decode report %s: %w", path, err)
	}
	if rep.Geolocation == nil {
		return nil, fmt.Errorf("report %s has no geolocation", path)
	}
	return &rep, nil
}

// checkBatchReport checks a geolocate report of a crowd generated from
// regions, run with -margins -provenance -bootstrap bootstrap.
func checkBatchReport(rep *pipeline.Report, regions []regionCount, bootstrap int) error {
	if err := checkComponents(rep.Geolocation, regions); err != nil {
		return err
	}
	if rep.MarginSummary == nil {
		return fmt.Errorf("report has no margin summary")
	}
	if bootstrap > 0 && (rep.Confidence == nil || rep.Confidence.Replicates != bootstrap) {
		return fmt.Errorf("report lacks %d-replicate bootstrap intervals", bootstrap)
	}
	return rep.Provenance.CheckChain()
}

// checkComponents checks every heavy component against the generating
// regions' offsets (standard and daylight-saving).
func checkComponents(geo *geoloc.Geolocation, regions []regionCount) error {
	if len(geo.Components) == 0 {
		return fmt.Errorf("report has no components")
	}
	var offsets []float64
	for _, r := range regions {
		region, err := tz.ByCode(r.code)
		if err != nil {
			return err
		}
		for _, m := range []time.Month{time.January, time.July} {
			offsets = append(offsets, float64(region.OffsetAt(time.Date(crowdYear, m, 15, 12, 0, 0, 0, time.UTC))))
		}
	}
	for i, c := range geo.Components {
		if c.Weight < minCheckedWeight {
			continue
		}
		best := math.Inf(1)
		for _, o := range offsets {
			best = math.Min(best, circularHours(c.Offset, o))
		}
		if best > maxOffsetError {
			return fmt.Errorf("component %d (%.0f%% at UTC%+.2f) is %.2f h from every generating region", i+1, c.Weight*100, c.Offset, best)
		}
	}
	return nil
}

// circularHours is the distance between two UTC offsets on the 24-hour
// circle.
func circularHours(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 24)
	return math.Min(d, 24-d)
}

// sameFit reports whether two geolocations carry the same mixture and
// components, bit for bit.
func sameFit(what string, got, want *geoloc.Geolocation) error {
	if got == nil || want == nil {
		return fmt.Errorf("%s: missing geolocation", what)
	}
	if len(got.Mixture) != len(want.Mixture) {
		return fmt.Errorf("%s: %d mixture components, want %d", what, len(got.Mixture), len(want.Mixture))
	}
	for i := range got.Mixture {
		if got.Mixture[i] != want.Mixture[i] {
			return fmt.Errorf("%s: mixture component %d is %+v, want %+v", what, i, got.Mixture[i], want.Mixture[i])
		}
	}
	if len(got.Components) != len(want.Components) {
		return fmt.Errorf("%s: %d components, want %d", what, len(got.Components), len(want.Components))
	}
	for i := range got.Components {
		if got.Components[i] != want.Components[i] {
			return fmt.Errorf("%s: component %d is %v, want %v", what, i, got.Components[i], want.Components[i])
		}
	}
	return nil
}
