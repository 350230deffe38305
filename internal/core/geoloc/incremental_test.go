package geoloc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/tz"
)

// randomProfiles builds n normalized random profiles plus a peaked generic
// profile — enough structure for placement to spread users across zones.
func randomProfiles(seed int64, n int) (map[string]profile.Profile, profile.Profile) {
	rng := rand.New(rand.NewSource(seed))
	var generic profile.Profile
	total := 0.0
	for h := range generic {
		// Diurnal-ish shape: low at night, high in the evening.
		generic[h] = 0.2 + float64(h%12) + 3*float64(h/18)
		total += generic[h]
	}
	for h := range generic {
		generic[h] /= total
	}
	profiles := make(map[string]profile.Profile, n)
	for i := 0; i < n; i++ {
		shifted := generic.Shift(rng.Intn(24))
		var p profile.Profile
		tot := 0.0
		for h := range p {
			p[h] = shifted[h] + 0.05*rng.Float64()
			tot += p[h]
		}
		for h := range p {
			p[h] /= tot
		}
		profiles[fmt.Sprintf("user-%03d", i)] = p
	}
	return profiles, generic
}

// oraclePlacement is the independent reference for the placement sweep:
// cached users keep their known zone, every other user goes through
// PlaceOneMargin one at a time, and the histogram is counted afterwards.
func oraclePlacement(t *testing.T, profiles map[string]profile.Profile, generic profile.Profile, known map[string]int, margins bool) (*Placement, map[string]PlacedZone) {
	t.Helper()
	want := &Placement{
		Assignments: make(map[string]tz.Offset),
		Histogram:   make([]float64, tz.HoursPerDay),
		Counts:      make([]int, tz.HoursPerDay),
	}
	if margins {
		want.Margins = make(map[string]float64)
	}
	fresh := make(map[string]PlacedZone)
	for _, id := range profile.SortedUserIDs(profiles) {
		zi, ok := known[id]
		if !ok {
			var margin float64
			var err error
			if zi, margin, err = PlaceOneMargin(profiles[id], generic, PlaceOptions{}); err != nil {
				t.Fatal(err)
			}
			fresh[id] = PlacedZone{Zone: zi, Margin: margin}
			if margins {
				want.Margins[id] = margin
			}
		}
		want.Assignments[id] = profile.OffsetOf(zi)
		want.Counts[zi]++
	}
	for zi, c := range want.Counts {
		want.Histogram[zi] = float64(c) / float64(len(profiles))
	}
	return want, fresh
}

func placementsBitEqual(t *testing.T, got, want *Placement) {
	t.Helper()
	if !reflect.DeepEqual(got.Assignments, want.Assignments) {
		t.Fatal("assignments differ")
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Fatal("counts differ")
	}
	for zi := range want.Histogram {
		if math.Float64bits(got.Histogram[zi]) != math.Float64bits(want.Histogram[zi]) {
			t.Fatalf("histogram[%d]: %x vs %x", zi, math.Float64bits(got.Histogram[zi]), math.Float64bits(want.Histogram[zi]))
		}
	}
}

// TestPlaceUsersPartialMatchesPlaceUsers checks PlaceUsersPartial, and
// PlaceUsers on the cold case, against one independent oracle: a per-user
// PlaceOneMargin loop. Cases: cold (no cache), fully warm, and warm with
// dirty users and a stale entry, with and without margins, at several
// worker counts. fresh must list exactly the users the cache could not
// answer, with the oracle's zones and margins.
func TestPlaceUsersPartialMatchesPlaceUsers(t *testing.T) {
	profiles, generic := randomProfiles(3, 60)
	coldZones := make(map[string]int, len(profiles))
	for id, p := range profiles {
		zi, _, err := PlaceOneMargin(p, generic, PlaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		coldZones[id] = zi
	}

	// Dirty: change a few profiles and drop them from the cache. A cache
	// entry for a user no longer in the profile map must be ignored.
	dirtyProfiles := make(map[string]profile.Profile, len(profiles))
	for id, p := range profiles {
		dirtyProfiles[id] = p
	}
	rng := rand.New(rand.NewSource(9))
	known := make(map[string]int, len(coldZones))
	for id, zi := range coldZones {
		known[id] = zi
	}
	for _, id := range []string{"user-005", "user-017", "user-041"} {
		dirtyProfiles[id] = profiles[id].Shift(1 + rng.Intn(23))
		delete(known, id)
	}
	known["user-gone"] = 7

	cases := []struct {
		name      string
		profiles  map[string]profile.Profile
		known     map[string]int
		wantFresh int
	}{
		{"cold", profiles, nil, len(profiles)},
		{"warm", profiles, coldZones, 0},
		{"dirty", dirtyProfiles, known, 3},
	}
	for _, tc := range cases {
		for _, margins := range []bool{false, true} {
			want, wantFresh := oraclePlacement(t, tc.profiles, generic, tc.known, margins)
			if len(wantFresh) != tc.wantFresh {
				t.Fatalf("%s: oracle places %d users fresh, want %d", tc.name, len(wantFresh), tc.wantFresh)
			}
			for _, workers := range []int{1, 2, 7} {
				opts := PlaceOptions{Parallelism: workers, Margins: margins}
				got, fresh, err := PlaceUsersPartial(tc.profiles, generic, tc.known, opts)
				if err != nil {
					t.Fatal(err)
				}
				placementsBitEqual(t, got, want)
				if !reflect.DeepEqual(got.Margins, want.Margins) {
					t.Fatalf("%s/margins=%v/workers=%d: margins differ from the oracle", tc.name, margins, workers)
				}
				if !reflect.DeepEqual(fresh, wantFresh) {
					t.Fatalf("%s/margins=%v/workers=%d: fresh differs from the oracle", tc.name, margins, workers)
				}
				if tc.known == nil {
					batch, err := PlaceUsers(tc.profiles, generic, opts)
					if err != nil {
						t.Fatal(err)
					}
					placementsBitEqual(t, batch, want)
					if !reflect.DeepEqual(batch.Margins, want.Margins) {
						t.Fatalf("cold/margins=%v/workers=%d: PlaceUsers margins differ from the oracle", margins, workers)
					}
				}
			}
		}
	}
}

// TestPlaceUsersPartialEmpty mirrors PlaceUsers: no profiles is an error.
func TestPlaceUsersPartialEmpty(t *testing.T) {
	if _, _, err := PlaceUsersPartial(nil, profile.Uniform(), nil, PlaceOptions{}); err == nil {
		t.Fatal("expected error for empty profile map")
	}
}
