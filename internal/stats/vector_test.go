package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSumAndMean(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name     string
		in       []float64
		wantSum  float64
		wantMean float64
	}{
		{"single", []float64{5}, 5, 5},
		{"simple", []float64{1, 2, 3}, 6, 2},
		{"negatives", []float64{-1, 1}, 0, 0},
		{"fractions", []float64{0.25, 0.75}, 1, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Sum(tt.in); !almostEqual(got, tt.wantSum, 1e-12) {
				t.Errorf("Sum = %g, want %g", got, tt.wantSum)
			}
			got, err := Mean(tt.in)
			if err != nil {
				t.Fatalf("Mean: %v", err)
			}
			if !almostEqual(got, tt.wantMean, 1e-12) {
				t.Errorf("Mean = %g, want %g", got, tt.wantMean)
			}
		})
	}
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) should fail")
	}
}

func TestStdDev(t *testing.T) {
	t.Parallel()
	m, s, err := MeanStdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m, 5, 1e-12) || !almostEqual(s, 2, 1e-12) {
		t.Errorf("MeanStdDev = (%g, %g), want (5, 2)", m, s)
	}
	if _, _, err := MeanStdDev(nil); err == nil {
		t.Error("MeanStdDev(nil) should fail")
	}
}

func TestNormalize(t *testing.T) {
	t.Parallel()
	got, err := Normalize([]float64{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0.25, 0.5}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("Normalize[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if _, err := Normalize(nil); err == nil {
		t.Error("Normalize(nil) should fail")
	}
	if _, err := Normalize([]float64{0, 0}); err == nil {
		t.Error("Normalize(zeros) should fail")
	}
	if _, err := Normalize([]float64{1, -1}); err == nil {
		t.Error("Normalize with negative mass should fail")
	}
}

func TestNormalizeProperty(t *testing.T) {
	t.Parallel()
	sumsToOne := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			xs[i] = float64(r)
			total += xs[i]
		}
		if total == 0 {
			return true
		}
		out, err := Normalize(xs)
		if err != nil {
			return false
		}
		return almostEqual(Sum(out), 1, 1e-9)
	}
	if err := quick.Check(sumsToOne, nil); err != nil {
		t.Error(err)
	}
}

func TestRotate(t *testing.T) {
	t.Parallel()
	in := []float64{0, 1, 2, 3}
	tests := []struct {
		k    int
		want []float64
	}{
		{0, []float64{0, 1, 2, 3}},
		{1, []float64{1, 2, 3, 0}},
		{-1, []float64{3, 0, 1, 2}},
		{4, []float64{0, 1, 2, 3}},
		{5, []float64{1, 2, 3, 0}},
		{-5, []float64{3, 0, 1, 2}},
	}
	for _, tt := range tests {
		got := Rotate(in, tt.k)
		for i := range tt.want {
			if got[i] != tt.want[i] {
				t.Errorf("Rotate(%d) = %v, want %v", tt.k, got, tt.want)
				break
			}
		}
	}
	if len(Rotate(nil, 3)) != 0 {
		t.Error("Rotate(nil) should be empty")
	}
}

func TestRotateInverseProperty(t *testing.T) {
	t.Parallel()
	inverse := func(raw []uint8, k int8) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		back := Rotate(Rotate(xs, int(k)), -int(k))
		for i := range xs {
			if back[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(inverse, nil); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	t.Parallel()
	t.Run("perfect correlation", func(t *testing.T) {
		r, err := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(r, 1, 1e-12) {
			t.Errorf("r = %g, want 1", r)
		}
	})
	t.Run("perfect anticorrelation", func(t *testing.T) {
		r, err := Pearson([]float64{1, 2, 3}, []float64{3, 2, 1})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(r, -1, 1e-12) {
			t.Errorf("r = %g, want -1", r)
		}
	})
	t.Run("uncorrelated", func(t *testing.T) {
		r, err := Pearson([]float64{1, 2, 1, 2}, []float64{1, 1, 2, 2})
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(r, 0, 1e-12) {
			t.Errorf("r = %g, want 0", r)
		}
	})
	t.Run("errors", func(t *testing.T) {
		if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
			t.Error("length mismatch should fail")
		}
		if _, err := Pearson(nil, nil); err == nil {
			t.Error("empty should fail")
		}
		if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
			t.Error("zero variance should fail")
		}
	})
}

func TestPearsonShiftInvarianceProperty(t *testing.T) {
	t.Parallel()
	// r(x, y) == r(ax+b, y) for a > 0: the core reason profile comparison
	// by correlation is insensitive to activity volume.
	prop := func(raw []uint8) bool {
		if len(raw) < 3 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
			ys[i] = float64(i % 7)
		}
		r1, err1 := Pearson(xs, ys)
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = 3*xs[i] + 11
		}
		r2, err2 := Pearson(scaled, ys)
		if err1 != nil || err2 != nil {
			return (err1 == nil) == (err2 == nil)
		}
		return almostEqual(r1, r2, 1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPointwiseDistanceStats(t *testing.T) {
	t.Parallel()
	avg, std, err := PointwiseDistanceStats([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 || std != 0 {
		t.Errorf("identical curves: avg=%g std=%g, want 0, 0", avg, std)
	}
	avg, std, err = PointwiseDistanceStats([]float64{0, 0}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(avg, 2, 1e-12) || !almostEqual(std, 1, 1e-12) {
		t.Errorf("avg=%g std=%g, want 2, 1", avg, std)
	}
	if _, _, err := PointwiseDistanceStats([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, _, err := PointwiseDistanceStats(nil, nil); err == nil {
		t.Error("empty should fail")
	}
}

func TestEntropy(t *testing.T) {
	t.Parallel()
	uniform := make([]float64, 24)
	for i := range uniform {
		uniform[i] = 1.0 / 24
	}
	h, err := Entropy(uniform)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(h, math.Log2(24), 1e-9) {
		t.Errorf("uniform entropy = %g, want log2(24)", h)
	}
	peaked := make([]float64, 24)
	peaked[5] = 1
	h, err = Entropy(peaked)
	if err != nil {
		t.Fatal(err)
	}
	if h != 0 {
		t.Errorf("point-mass entropy = %g, want 0", h)
	}
	if _, err := Entropy(nil); err == nil {
		t.Error("empty should fail")
	}
	if _, err := Entropy([]float64{0.9}); err == nil {
		t.Error("non-normalized should fail")
	}
	if _, err := Entropy([]float64{1.5, -0.5}); err == nil {
		t.Error("negative probability should fail")
	}
}
