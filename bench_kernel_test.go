package darkcrowd

// Data-path kernel benchmarks at Twitter scale 20 and 40 — the workloads
// tracked in BENCH_placement.json (see cmd/benchgen -bench). Scale divides
// the Table I user counts, so scale 20 is the heavier input (~1,128 active
// users) and scale 40 the lighter (~567).
//
// Run the tracked subset with:
//
//	go test -bench 'Placement|Profile|EMD' -benchmem

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/stats"
	"darkcrowd/internal/synth"
	"darkcrowd/internal/trace"
)

// kernelState holds one scale's shared inputs, built once.
type kernelState struct {
	ds       *trace.Dataset
	generic  *profile.GenericResult
	profiles map[string]profile.Profile
	csv      []byte
}

var (
	kernelMu     sync.Mutex
	kernelStates = map[int]*kernelState{}
)

func kernelSetup(b *testing.B, scale int) *kernelState {
	b.Helper()
	kernelMu.Lock()
	defer kernelMu.Unlock()
	if s, ok := kernelStates[scale]; ok {
		return s
	}
	s := &kernelState{}
	var err error
	if s.ds, err = synth.TwitterDataset(2018, synth.TwitterOptions{Scale: scale}); err != nil {
		b.Fatalf("kernel bench setup (scale %d): %v", scale, err)
	}
	if s.generic, err = profile.BuildGeneric(s.ds, profile.GenericOptions{}); err != nil {
		b.Fatalf("kernel bench setup (scale %d): %v", scale, err)
	}
	s.profiles = s.generic.UserProfiles
	var buf bytes.Buffer
	if err := s.ds.WriteCSV(&buf); err != nil {
		b.Fatalf("kernel bench setup (scale %d): %v", scale, err)
	}
	s.csv = buf.Bytes()
	kernelStates[scale] = s
	return s
}

func eachScale(b *testing.B, fn func(b *testing.B, s *kernelState)) {
	for _, scale := range []int{20, 40} {
		scale := scale
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			s := kernelSetup(b, scale)
			b.ReportAllocs()
			b.ResetTimer()
			fn(b, s)
		})
	}
}

// BenchmarkProfileBuild measures BuildUserProfiles over the whole labelled
// dataset — the columnar, allocation-free Eq. 1 path.
func BenchmarkProfileBuild(b *testing.B) {
	eachScale(b, func(b *testing.B, s *kernelState) {
		for i := 0; i < b.N; i++ {
			if _, err := profile.BuildUserProfiles(s.ds, profile.BuildOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGenericProfileBuild measures the full BuildGeneric pipeline
// (per-region filtering, holiday removal, local-frame profiles, aggregate).
func BenchmarkGenericProfileBuild(b *testing.B) {
	eachScale(b, func(b *testing.B, s *kernelState) {
		for i := 0; i < b.N; i++ {
			if _, err := profile.BuildGeneric(s.ds, profile.GenericOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlacement measures PlaceUsers over every active user — 24 zone
// distances per user through the all-rotations EMD kernel.
func BenchmarkPlacement(b *testing.B) {
	eachScale(b, func(b *testing.B, s *kernelState) {
		for i := 0; i < b.N; i++ {
			if _, err := geoloc.PlaceUsers(s.profiles, s.generic.Generic, geoloc.PlaceOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDatasetIndexProfileViews measures a cold columnar index build
// plus the ByUser view it serves.
func BenchmarkDatasetIndexProfileViews(b *testing.B) {
	eachScale(b, func(b *testing.B, s *kernelState) {
		for i := 0; i < b.N; i++ {
			s.ds.InvalidateIndex()
			if got := s.ds.ByUser(); len(got) == 0 {
				b.Fatal("empty ByUser")
			}
		}
	})
}

// BenchmarkCSVReadProfileTrace measures dataset load through the
// fixed-layout time parser and ID interning.
func BenchmarkCSVReadProfileTrace(b *testing.B) {
	eachScale(b, func(b *testing.B, s *kernelState) {
		for i := 0; i < b.N; i++ {
			if _, _, err := trace.ReadCSVOpts("bench", bytes.NewReader(s.csv), trace.ReadCSVOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCSVWriteProfileTrace measures dataset serialization with the
// reused timestamp buffer.
func BenchmarkCSVWriteProfileTrace(b *testing.B) {
	eachScale(b, func(b *testing.B, s *kernelState) {
		var buf bytes.Buffer
		buf.Grow(len(s.csv))
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := s.ds.WriteCSV(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEMDAllRotations measures the batched placement kernel: all 24
// zone distances in one call.
func BenchmarkEMDAllRotations(b *testing.B) {
	s := benchSetup(b)
	p := s.profileA.Slice()
	q := s.profileB.Slice()
	out := make([]float64, len(p))
	scratch := make([]float64, 2*len(p))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.EMDCircularAllRotations(p, q, out, scratch); err != nil {
			b.Fatal(err)
		}
	}
}
