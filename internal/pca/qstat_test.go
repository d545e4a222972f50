package pca

import (
	"math"
	"testing"
)

func TestQThresholdBasics(t *testing.T) {
	// Residual eigenvalues all equal: threshold is finite, positive, and
	// grows as alpha shrinks (stricter false-alarm rate = higher bar).
	eig := []float64{10, 5, 1, 1, 1, 1}
	q1 := qThreshold(eig, 2, 0.01)
	q2 := qThreshold(eig, 2, 0.001)
	if math.IsNaN(q1) || q1 <= 0 {
		t.Fatalf("q(0.01) = %v", q1)
	}
	if q2 <= q1 {
		t.Fatalf("stricter alpha must raise the threshold: %v <= %v", q2, q1)
	}
	// Threshold exceeds the residual energy mean (theta1).
	if q1 <= 4 {
		t.Fatalf("q = %v should exceed the residual variance sum", q1)
	}
}

func TestQThresholdDegenerate(t *testing.T) {
	// No residual subspace at all -> NaN (caller treats as "no alarms").
	if q := qThreshold([]float64{5, 3}, 2, 0.001); !math.IsNaN(q) {
		t.Fatalf("empty residual must be NaN, got %v", q)
	}
	// Negative eigenvalues (numerical noise) are clamped, not propagated.
	q := qThreshold([]float64{5, 3, 1e-12, -1e-13}, 2, 0.001)
	if math.IsNaN(q) || q < 0 {
		t.Fatalf("noise eigenvalues broke the threshold: %v", q)
	}
}

func TestSubspaceDim(t *testing.T) {
	// 95% of variance in the first two components (10/10.5).
	eig := []float64{7, 3, 0.3, 0.2}
	p := subspaceDim(eig)
	if p != 2 {
		t.Fatalf("subspaceDim = %d, want 2 (0.92 fraction)", p)
	}
	// All-zero eigenvalues degenerate to 1.
	if got := subspaceDim([]float64{0, 0}); got != 1 {
		t.Fatalf("zero-variance dim = %d", got)
	}
	// maxComponents caps the dimension: on a flat spectrum of 11
	// eigenvalues 0.92 of the variance needs all 11, the cap stops at 10.
	flat := make([]float64, 11)
	for i := range flat {
		flat[i] = 1
	}
	if got := subspaceDim(flat); got != maxComponents {
		t.Fatalf("cap ignored: %d, want %d", got, maxComponents)
	}
}

func TestTopDeviantColumns(t *testing.T) {
	res := []float64{1, -5, 3, 0}
	cols := topDeviantColumns(res, 2)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 2 {
		t.Fatalf("topDeviantColumns = %v", cols)
	}
	// k beyond length returns everything.
	if got := topDeviantColumns(res, 10); len(got) != 4 {
		t.Fatalf("unbounded k = %v", got)
	}
}
