package linalg

import (
	"fmt"
	"math"
	"sort"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[r*Cols+c]
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns a view (not a copy) of row r.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Covariance returns the sample covariance matrix (Cols×Cols) of the
// rows of m, which must already be column-centered. For fewer than two
// rows the result is all zeros.
func (m *Matrix) Covariance() *Matrix {
	cov := NewMatrix(m.Cols, m.Cols)
	if m.Rows < 2 {
		return cov
	}
	inv := 1 / float64(m.Rows-1)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i := 0; i < m.Cols; i++ {
			vi := row[i]
			if vi == 0 {
				continue
			}
			base := i * m.Cols
			for j := i; j < m.Cols; j++ {
				cov.Data[base+j] += vi * row[j]
			}
		}
	}
	for i := 0; i < m.Cols; i++ {
		for j := i; j < m.Cols; j++ {
			v := cov.Data[i*m.Cols+j] * inv
			cov.Data[i*m.Cols+j] = v
			cov.Data[j*m.Cols+i] = v
		}
	}
	return cov
}

// Eigen holds a symmetric eigendecomposition with eigenvalues in
// descending order; Vectors' column k is the unit eigenvector of
// Values[k].
type Eigen struct {
	Values  []float64
	Vectors *Matrix
}

// maxJacobiSweeps bounds the cyclic Jacobi iteration; convergence for the
// matrix sizes used here is typically reached in well under 20 sweeps.
const maxJacobiSweeps = 100

// SymEigen computes the eigendecomposition of a symmetric matrix by the
// cyclic Jacobi method. It returns an error when the matrix is not square
// or not (numerically) symmetric.
func SymEigen(a *Matrix) (*Eigen, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: SymEigen needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	const symTol = 1e-8
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := math.Abs(a.At(i, j) - a.At(j, i)); d > symTol*(1+math.Abs(a.At(i, j))) {
				return nil, fmt.Errorf("linalg: matrix not symmetric at (%d,%d): %g vs %g", i, j, a.At(i, j), a.At(j, i))
			}
		}
	}
	w := a.Clone() // working copy, becomes diagonal
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-20 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(w, v, p, q, c, s)
			}
		}
	}
	eig := &Eigen{Values: make([]float64, n), Vectors: NewMatrix(n, n)}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return w.At(order[i], order[i]) > w.At(order[j], order[j]) })
	for k, idx := range order {
		eig.Values[k] = w.At(idx, idx)
		for r := 0; r < n; r++ {
			eig.Vectors.Set(r, k, v.At(r, idx))
		}
	}
	return eig, nil
}

// rotate applies the Jacobi rotation (p, q, c, s) to w and accumulates it
// into the eigenvector matrix v.
func rotate(w, v *Matrix, p, q int, c, s float64) {
	n := w.Rows
	for i := 0; i < n; i++ {
		wip, wiq := w.At(i, p), w.At(i, q)
		w.Set(i, p, c*wip-s*wiq)
		w.Set(i, q, s*wip+c*wiq)
	}
	for i := 0; i < n; i++ {
		wpi, wqi := w.At(p, i), w.At(q, i)
		w.Set(p, i, c*wpi-s*wqi)
		w.Set(q, i, s*wpi+c*wqi)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

// ProjectResidual computes the residual of row vector y after projection
// onto the subspace spanned by the first p columns of basis (assumed
// orthonormal): r = y - B_p B_p^T y. The returned slice is newly
// allocated.
func ProjectResidual(basis *Matrix, p int, y []float64) []float64 {
	n := len(y)
	if basis.Rows != n {
		panic(fmt.Sprintf("linalg: basis rows %d != vector length %d", basis.Rows, n))
	}
	if p > basis.Cols {
		p = basis.Cols
	}
	res := make([]float64, n)
	copy(res, y)
	for k := 0; k < p; k++ {
		// dot = b_k · y
		dot := 0.0
		for i := 0; i < n; i++ {
			dot += basis.At(i, k) * y[i]
		}
		for i := 0; i < n; i++ {
			res[i] -= dot * basis.At(i, k)
		}
	}
	return res
}

// Norm2 returns the squared Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return s
}
