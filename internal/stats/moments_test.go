package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.N() != 0 {
		t.Fatal("zero-value Welford must be usable and zero")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	// Sample variance of the classic dataset is 32/7.
	if math.Abs(w.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("Var = %v, want %v", w.Var(), 32.0/7.0)
	}
}

func TestWelfordMatchesDirectComputation(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, v := range raw {
			w.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		ss := 0.0
		for _, v := range raw {
			d := float64(v) - mean
			ss += d * d
		}
		directVar := ss / float64(len(raw)-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Var()-directVar) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty slice must be NaN")
	}
	// Out-of-range q is clamped.
	if Quantile(xs, -1) != 1 || Quantile(xs, 2) != 5 {
		t.Error("q must clamp to [0,1]")
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Quantile must not sort the caller's slice")
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(mean-5) > 1e-12 || math.Abs(std-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("MeanStd = %v, %v", mean, std)
	}
}

func TestNormQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.999, 3.090232},
		{0.025, -1.959964},
		{0.84134, 0.99998}, // ≈ Φ(1)
	}
	for _, c := range cases {
		if got := NormQuantile(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("NormQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Error("edge quantiles must be infinite")
	}
	if !math.IsInf(NormQuantile(math.NaN()), -1) {
		t.Error("NaN input must map to -Inf")
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	// Φ(Φ⁻¹(p)) ≈ p via erf-based CDF.
	cdf := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	for _, p := range []float64{0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999} {
		if got := cdf(NormQuantile(p)); math.Abs(got-p) > 1e-6 {
			t.Errorf("round trip at p=%v: %v", p, got)
		}
	}
}
