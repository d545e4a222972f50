package sampling

import (
	"math"
	"testing"

	"repro/internal/flow"
	"repro/internal/stats"
)

func mkRecord(packets uint64) flow.Record {
	return flow.Record{
		Start: 100, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4,
		Proto: flow.ProtoUDP, Packets: packets, Bytes: packets * 100,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Fatal("rate 0 must be rejected")
	}
	if s := MustNew(1, nil); s.rate != 1 {
		t.Fatal("rate 1 sampler")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0) must panic")
		}
	}()
	MustNew(0, nil)
}

func TestRateOnePassthrough(t *testing.T) {
	s := MustNew(1, stats.NewRNG(1))
	r := mkRecord(7)
	out, ok := s.Apply(&r)
	if !ok || out != r {
		t.Fatalf("rate-1 sampling must be identity, got %+v ok=%v", out, ok)
	}
}

func TestInputNotModified(t *testing.T) {
	s := MustNew(100, stats.NewRNG(2))
	r := mkRecord(1000)
	orig := r
	s.Apply(&r)
	if r != orig {
		t.Fatal("Apply must not modify its input")
	}
}

func TestVolumePreservedInExpectation(t *testing.T) {
	// Horvitz-Thompson renormalization: expected packet total is preserved.
	s := MustNew(100, stats.NewRNG(3))
	const trials = 5000
	const pkts = 500
	var total float64
	for i := 0; i < trials; i++ {
		r := mkRecord(pkts)
		out, ok := s.Apply(&r)
		if ok {
			total += float64(out.Packets)
		}
	}
	mean := total / trials
	if math.Abs(mean-pkts) > pkts*0.05 {
		t.Fatalf("renormalized packet mean = %v, want ≈ %v", mean, float64(pkts))
	}
}

func TestSmallFlowsVanishLargeFlowsSurvive(t *testing.T) {
	s := MustNew(100, stats.NewRNG(4))
	// 1-packet flows survive with p = 1/100.
	survived := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		r := mkRecord(1)
		out, ok := s.Apply(&r)
		if !ok {
			continue
		}
		survived++
		if err := out.Validate(); err != nil {
			t.Fatalf("sampled record invalid: %v", err)
		}
		if out.Packets%100 != 0 {
			t.Fatalf("renormalized packets %d not a multiple of the rate", out.Packets)
		}
	}
	rate := float64(survived) / trials
	if math.Abs(rate-0.01) > 0.003 {
		t.Fatalf("1-packet survival = %v, want ≈ 0.01", rate)
	}
	// A 1M-packet flood flow effectively always survives.
	r := mkRecord(1_000_000)
	if _, ok := s.Apply(&r); !ok {
		t.Fatal("flood flow vanished under sampling (prob ≈ 0)")
	}
}

func TestBytesScaleWithPackets(t *testing.T) {
	s := MustNew(10, stats.NewRNG(6))
	r := mkRecord(10000) // avg packet size 100
	out, ok := s.Apply(&r)
	if !ok {
		t.Fatal("large flow must survive")
	}
	avg := float64(out.Bytes) / float64(out.Packets)
	if math.Abs(avg-100) > 1 {
		t.Fatalf("renormalized average packet size = %v, want ≈ 100", avg)
	}
}
