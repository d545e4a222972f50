package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("Set/At wrong")
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 5 {
		t.Fatal("Row view wrong")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Two perfectly correlated columns: cov = [[1,1],[1,1]] after centering
	// for data {(−1,−1),(0,0),(1,1)} scaled: sample var of {-1,0,1} is 1.
	m := NewMatrix(3, 2)
	for r, v := range []float64{-1, 0, 1} {
		m.Set(r, 0, v)
		m.Set(r, 1, v)
	}
	cov := m.Covariance()
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(cov.At(i, j)-1) > 1e-12 {
				t.Fatalf("cov(%d,%d) = %v, want 1", i, j, cov.At(i, j))
			}
		}
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Set(0, 0, 3)
	m.Set(1, 1, 1)
	m.Set(2, 2, 2)
	eig, err := SymEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, w := range want {
		if math.Abs(eig.Values[i]-w) > 1e-10 {
			t.Fatalf("eigenvalues = %v, want %v", eig.Values, want)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors (1,1)/√2 and
	// (1,-1)/√2.
	m := NewMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2)
	eig, err := SymEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig.Values[0]-3) > 1e-10 || math.Abs(eig.Values[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues = %v", eig.Values)
	}
	// Eigenvector of 3 is ±(1,1)/√2.
	v0, v1 := eig.Vectors.At(0, 0), eig.Vectors.At(1, 0)
	if math.Abs(math.Abs(v0)-1/math.Sqrt2) > 1e-10 || math.Abs(v0-v1) > 1e-10 {
		t.Fatalf("first eigenvector = (%v, %v)", v0, v1)
	}
}

func TestSymEigenRejectsNonSquareAndAsymmetric(t *testing.T) {
	if _, err := SymEigen(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square must be rejected")
	}
	m := NewMatrix(2, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 2)
	if _, err := SymEigen(m); err == nil {
		t.Fatal("asymmetric must be rejected")
	}
}

// randomSymmetric builds a random symmetric matrix via A = B + Bᵀ.
func randomSymmetric(rng *stats.RNG, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.Norm(0, 1)
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestSymEigenReconstruction(t *testing.T) {
	// A = V diag(λ) Vᵀ must reconstruct the input, and V must be
	// orthonormal — checked over random symmetric matrices.
	rng := stats.NewRNG(77)
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		a := randomSymmetric(rng, n)
		eig, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		// Orthonormality.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dot := 0.0
				for r := 0; r < n; r++ {
					dot += eig.Vectors.At(r, i) * eig.Vectors.At(r, j)
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-8 {
					t.Fatalf("trial %d: V not orthonormal at (%d,%d): %v", trial, i, j, dot)
				}
			}
		}
		// Reconstruction.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sum := 0.0
				for k := 0; k < n; k++ {
					sum += eig.Values[k] * eig.Vectors.At(i, k) * eig.Vectors.At(j, k)
				}
				if math.Abs(sum-a.At(i, j)) > 1e-7 {
					t.Fatalf("trial %d: reconstruction off at (%d,%d): %v vs %v",
						trial, i, j, sum, a.At(i, j))
				}
			}
		}
		// Eigenvalues descending.
		for k := 1; k < n; k++ {
			if eig.Values[k] > eig.Values[k-1]+1e-12 {
				t.Fatalf("eigenvalues not sorted: %v", eig.Values)
			}
		}
	}
}

func TestProjectResidual(t *testing.T) {
	// Basis = identity: projecting onto first p axes zeroes them out.
	basis := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		basis.Set(i, i, 1)
	}
	y := []float64{1, 2, 3}
	res := ProjectResidual(basis, 2, y)
	if math.Abs(res[0]) > 1e-12 || math.Abs(res[1]) > 1e-12 || math.Abs(res[2]-3) > 1e-12 {
		t.Fatalf("residual = %v", res)
	}
	if y[0] != 1 {
		t.Fatal("input vector must not be modified")
	}
	// p beyond basis columns is clamped: full projection, zero residual.
	res = ProjectResidual(basis, 10, y)
	if Norm2(res) > 1e-20 {
		t.Fatalf("full projection residual = %v", res)
	}
}

func TestNorm2(t *testing.T) {
	if Norm2([]float64{3, 4}) != 25 {
		t.Fatal("Norm2 wrong")
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2(nil) must be 0")
	}
}

func TestResidualOrthogonalProperty(t *testing.T) {
	// The residual must be orthogonal to every basis vector used.
	rng := stats.NewRNG(5)
	f := func(seed uint64) bool {
		r := rng.Fork(seed)
		n := 4
		a := randomSymmetric(r, n)
		eig, err := SymEigen(a)
		if err != nil {
			return false
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = r.Norm(0, 2)
		}
		res := ProjectResidual(eig.Vectors, 2, y)
		for k := 0; k < 2; k++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += res[i] * eig.Vectors.At(i, k)
			}
			if math.Abs(dot) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
