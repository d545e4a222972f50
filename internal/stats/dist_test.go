package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistBasics(t *testing.T) {
	d := NewDist()
	if d.Entropy() != 0 || d.Total() != 0 || len(d.w) != 0 {
		t.Fatal("empty distribution must be all zeros")
	}
	d.Add(1, 2)
	d.Add(2, 2)
	if d.Total() != 4 || len(d.w) != 2 {
		t.Fatalf("Total=%v distinct=%v", d.Total(), len(d.w))
	}
	if math.Abs(d.Entropy()-1) > 1e-12 {
		t.Fatalf("uniform over 2 values must have entropy 1 bit, got %v", d.Entropy())
	}
	if math.Abs(d.Prob(1)-0.5) > 1e-12 {
		t.Fatalf("Prob(1) = %v", d.Prob(1))
	}
	d.Add(3, -5) // ignored
	if d.Total() != 4 {
		t.Fatal("negative weights must be ignored")
	}
}

func TestEntropyBounds(t *testing.T) {
	// Entropy of n uniform values is log2(n); normalized entropy is 1.
	for _, n := range []int{2, 4, 16, 100} {
		d := NewDist()
		for i := 0; i < n; i++ {
			d.Add(uint32(i), 1)
		}
		if math.Abs(d.Entropy()-math.Log2(float64(n))) > 1e-9 {
			t.Fatalf("uniform(%d) entropy = %v", n, d.Entropy())
		}
		if math.Abs(d.NormEntropy()-1) > 1e-9 {
			t.Fatalf("uniform(%d) normalized entropy = %v", n, d.NormEntropy())
		}
	}
	// Point mass has zero entropy.
	d := NewDist()
	d.Add(42, 100)
	if d.Entropy() != 0 || d.NormEntropy() != 0 {
		t.Fatal("point mass must have zero entropy")
	}
}

func TestEntropyNonNegativeProperty(t *testing.T) {
	f := func(values []uint32, weights []uint8) bool {
		d := NewDist()
		for i, v := range values {
			w := 1.0
			if i < len(weights) {
				w = float64(weights[i]) + 1
			}
			d.Add(v, w)
		}
		h := d.Entropy()
		hn := d.NormEntropy()
		return h >= 0 && hn >= -1e-12 && hn <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKLProperties(t *testing.T) {
	p := NewDist()
	q := NewDist()
	for i := uint32(0); i < 10; i++ {
		p.Add(i, float64(i+1))
		q.Add(i, float64(i+1))
	}
	if kl := p.KL(q, 1e-6); kl > 1e-6 {
		t.Fatalf("KL(p||p) = %v, want ≈ 0", kl)
	}
	// Diverging distributions have positive KL, growing with divergence.
	q2 := NewDist()
	q2.Merge(q, 1)
	q2.Add(99, 50)
	kl1 := q2.KL(q, 1e-6)
	if kl1 <= 0 {
		t.Fatalf("KL after shift = %v, want > 0", kl1)
	}
	q3 := NewDist()
	q3.Merge(q, 1)
	q3.Add(99, 500)
	kl2 := q3.KL(q, 1e-6)
	if kl2 <= kl1 {
		t.Fatalf("bigger shift must give bigger KL: %v <= %v", kl2, kl1)
	}
}

func TestKLNonNegativeProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		p, q := NewDist(), NewDist()
		for _, v := range a {
			p.Add(uint32(v%16), 1)
		}
		for _, v := range b {
			q.Add(uint32(v%16), 1)
		}
		return p.KL(q, 1e-6) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTop(t *testing.T) {
	d := NewDist()
	d.Add(10, 5)
	d.Add(20, 50)
	d.Add(30, 20)
	d.Add(40, 50) // tie with 20 — ascending value breaks the tie
	top := d.Top(3)
	if len(top) != 3 {
		t.Fatalf("Top(3) returned %d", len(top))
	}
	if top[0].Value != 20 || top[1].Value != 40 || top[2].Value != 30 {
		t.Fatalf("Top order = %+v", top)
	}
	if got := d.Top(0); got != nil {
		t.Fatal("Top(0) must be nil")
	}
	if got := d.Top(99); len(got) != 4 {
		t.Fatalf("Top(99) = %d entries, want all 4", len(got))
	}
}

func TestMergeScaleClone(t *testing.T) {
	a := NewDist()
	a.Add(1, 10)
	b := NewDist()
	b.Add(1, 10)
	b.Add(2, 20)
	a.Merge(b, 0.5)
	if math.Abs(a.Weight(1)-15) > 1e-12 || math.Abs(a.Weight(2)-10) > 1e-12 {
		t.Fatalf("Merge result: w(1)=%v w(2)=%v", a.Weight(1), a.Weight(2))
	}
	c := NewDist()
	c.Merge(a, 1)
	c.Scale(2)
	if math.Abs(c.Total()-2*a.Total()) > 1e-9 {
		t.Fatalf("Scale total = %v", c.Total())
	}
	if a.Weight(1) != 15 {
		t.Fatal("a copy must not alias its source")
	}
	// Entropy is scale-invariant.
	if math.Abs(c.Entropy()-a.Entropy()) > 1e-9 {
		t.Fatal("entropy must be invariant under scaling")
	}
}

func TestValuesIteration(t *testing.T) {
	d := NewDist()
	d.Add(5, 1)
	d.Add(6, 2)
	sum := 0.0
	d.Values(func(v uint32, w float64) { sum += w })
	if sum != 3 {
		t.Fatalf("Values iterated total %v", sum)
	}
}
