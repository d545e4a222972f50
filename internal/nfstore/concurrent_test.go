package nfstore

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/flow"
)

// TestConcurrentWriterAndReaders exercises the documented concurrency
// contract: one writer appending while readers query flushed data. Run
// with -race in CI.
func TestConcurrentWriterAndReaders(t *testing.T) {
	s := newTestStore(t)
	// Seed one flushed bin so readers always have data.
	for i := 0; i < 100; i++ {
		r := testRecord(uint32(i), byte(i), 80, 1)
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: keeps appending to later bins and flushing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			r := testRecord(uint32(1000+i), byte(i), 443, 2)
			if err := s.Add(&r); err != nil {
				t.Error(err)
				return
			}
			if i%50 == 0 {
				if err := s.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
		close(stop)
	}()

	// Readers: query the stable first bin repeatedly.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				flows, _, _, err := s.Count(t.Context(), flow.Interval{Start: 0, End: 300}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if flows < 100 {
					t.Errorf("reader saw %d flows in the flushed bin, want >= 100", flows)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAddAllConcurrentReaders runs Query and Count against one bin while
// a 65,536-record AddAll fills it. AddAll holds the writer lock per run
// of records, so readers interleave with it; every read must see a
// prefix of the batch that ends on a block boundary — the writer buffers
// the pending block, and a partly written one is not yet flushed data.
func TestAddAllConcurrentReaders(t *testing.T) {
	s := newTestStore(t)
	rng := rand.New(rand.NewSource(9))
	recs := make([]flow.Record, 16*blockRecords)
	for i := range recs {
		recs[i] = randRecord(rng, 300)
	}
	iv := flow.Interval{Start: 0, End: 300}
	checkPrefix := func(what string, n int) bool {
		if n%blockRecords != 0 || n > len(recs) {
			t.Errorf("%s saw %d records: not a prefix of whole blocks", what, n)
			return false
		}
		return true
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			got, err := s.Records(t.Context(), iv, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if !checkPrefix("Query", len(got)) {
				return
			}
			if !slices.Equal(got, recs[:len(got)]) {
				t.Errorf("Query saw %d records that are not the batch's prefix", len(got))
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			flows, packets, _, err := s.Count(t.Context(), iv, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if !checkPrefix("Count", int(flows)) {
				return
			}
			var want uint64
			for _, r := range recs[:flows] {
				want += r.Packets
			}
			if packets != want {
				t.Errorf("Count saw %d flows with %d packets, want %d", flows, packets, want)
				return
			}
		}
	}()
	err := s.AddAll(recs)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if flows, _, _, err := s.Count(t.Context(), iv, nil); err != nil || flows != uint64(len(recs)) {
		t.Fatalf("after Flush: Count = %d, %v; want %d", flows, err, len(recs))
	}
}
