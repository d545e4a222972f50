package gen

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/nfstore"
	"repro/internal/stats"
)

// traceRecords is a small fixed valid trace for the format tests.
func traceRecords() []flow.Record {
	return []flow.Record{
		{Start: 900_000_000, Dur: 1500, SrcIP: flow.MustParseIP("10.0.0.1"), DstIP: flow.MustParseIP("198.18.0.1"),
			SrcPort: 40000, DstPort: 80, Proto: flow.ProtoTCP, Flags: 0x1b, Router: 1, Packets: 12, Bytes: 9000},
		{Start: 900_000_000, SrcIP: flow.MustParseIP("10.0.0.2"), DstIP: flow.MustParseIP("198.18.0.1"),
			SrcPort: 40001, DstPort: 53, Proto: flow.ProtoUDP, Packets: 2, Bytes: 256},
		{Start: 900_000_007, SrcIP: flow.MustParseIP("10.0.0.3"), DstIP: flow.MustParseIP("198.18.0.9"),
			SrcPort: 1, DstPort: 1, Proto: flow.ProtoICMP, Packets: 1, Bytes: 64},
	}
}

// TestTraceRoundTrip pins both encoders against the reader: encode →
// parse must reproduce the records (modulo the forced background
// annotation) in both formats.
func TestTraceRoundTrip(t *testing.T) {
	recs := traceRecords()
	for _, tc := range []struct {
		format string
		data   []byte
	}{
		{"binary", EncodeTraceBinary(recs)},
		{"csv", EncodeTraceCSV(recs)},
	} {
		tr, err := ReadTrace(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: ReadTrace: %v", tc.format, err)
		}
		if len(tr.Records) != len(recs) {
			t.Fatalf("%s: %d records, want %d", tc.format, len(tr.Records), len(recs))
		}
		for i, want := range recs {
			got := tr.Records[i]
			want.Anno = flow.AnnoBackground
			if got != want {
				t.Errorf("%s: record %d = %+v, want %+v", tc.format, i, got, want)
			}
		}
	}
}

// TestTraceReaderErrors drives the malformed-input contract: every
// corruption errors descriptively, never panics.
func TestTraceReaderErrors(t *testing.T) {
	recs := traceRecords()
	bin := EncodeTraceBinary(recs)
	nonMonotonic := traceRecords()
	nonMonotonic[2].Start = 899_999_999
	cases := []struct {
		name string
		data []byte
		want string // error substring; empty = any error
	}{
		{"empty input", nil, ""},
		{"truncated binary header", bin[:6], "truncated header"},
		{"binary header only", bin[:traceHeaderSize], "no records"},
		{"truncated binary record", bin[:len(bin)-7], "truncated"},
		{"bad binary version", append([]byte("NFTR\x09\x00\x00\x00"), bin[traceHeaderSize:]...), "version"},
		{"binary non-monotonic", EncodeTraceBinary(nonMonotonic), "non-monotonic"},
		{"binary zero timestamp", EncodeTraceBinary([]flow.Record{{SrcIP: 1, DstIP: 2, Proto: flow.ProtoTCP, Packets: 1, Bytes: 64}}), "zero timestamp"},
		{"binary zero packets", EncodeTraceBinary([]flow.Record{{Start: 1000, SrcIP: 1, DstIP: 2, Proto: flow.ProtoTCP}}), "record 0"},
		{"csv header only", []byte("ts,sa,da,sp,dp,pr,ipkt,ibyt\n"), "no records"},
		{"csv missing column", []byte("ts,sa,da,sp,dp,pr,ipkt\n1000,1.2.3.4,5.6.7.8,1,2,6,3\n"), "missing \"ibyt\""},
		{"csv bad timestamp", []byte("ts,sa,da,sp,dp,pr,ipkt,ibyt\nnever,1.2.3.4,5.6.7.8,1,2,6,3,300\n"), "timestamp"},
		{"csv zero timestamp", []byte("ts,sa,da,sp,dp,pr,ipkt,ibyt\n0,1.2.3.4,5.6.7.8,1,2,6,3,300\n"), "out of range"},
		{"csv non-monotonic", []byte("ts,sa,da,sp,dp,pr,ipkt,ibyt\n2000,1.2.3.4,5.6.7.8,1,2,6,3,300\n1999,1.2.3.4,5.6.7.8,1,2,6,3,300\n"), "non-monotonic"},
		{"csv bad ip", []byte("ts,sa,da,sp,dp,pr,ipkt,ibyt\n1000,nope,5.6.7.8,1,2,6,3,300\n"), "srcip"},
		{"csv bad port", []byte("ts,sa,da,sp,dp,pr,ipkt,ibyt\n1000,1.2.3.4,5.6.7.8,99999,2,6,3,300\n"), "srcport"},
		{"csv bytes below packets", []byte("ts,sa,da,sp,dp,pr,ipkt,ibyt\n1000,1.2.3.4,5.6.7.8,1,2,6,300,3\n"), ""},
		{"csv ragged row", []byte("ts,sa,da,sp,dp,pr,ipkt,ibyt\n1000,1.2.3.4\n"), ""},
		{"garbage", []byte("\x00\x01\x02\x03garbage"), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTrace(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if _, err := ReadTrace(bytes.NewReader([]byte("ts,sa,da,sp,dp,pr,ipkt,ibyt\n"))); !errors.Is(err, ErrEmptyTrace) {
		t.Fatalf("header-only CSV: got %v, want ErrEmptyTrace", err)
	}
}

// TestTraceReplayRebasesClock pins the replay path: a trace anchored in
// 1998 generates a scenario anchored at the catalog clock, record counts
// survive exactly, overflow records are dropped and counted, and
// injected anomalies ride on top.
func TestTraceReplayRebasesClock(t *testing.T) {
	recs := SynthTraceRecords(stats.NewRNG(42), 6, 300, 120)
	if len(recs) == 0 {
		t.Fatal("SynthTraceRecords produced nothing")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Fatalf("synth trace not sorted at %d", i)
		}
	}

	def, ok := Lookup("portscan")
	if !ok {
		t.Fatal("portscan not in catalog")
	}
	s := def.Scenario(7)
	s.Bins = 4 // shorter than the 6-bin trace: the tail must be dropped
	s.Placements = def.Placements(7, 2)
	s.Trace = EncodeTraceCSV(recs)

	store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := s.Generate(store)
	if err != nil {
		t.Fatal(err)
	}
	if truth.TraceDropped == 0 {
		t.Error("no trace records dropped despite trace outliving the span")
	}
	if truth.BackgroundFlows+truth.TraceDropped != uint64(len(recs)) {
		t.Errorf("stored %d + dropped %d != trace %d records",
			truth.BackgroundFlows, truth.TraceDropped, len(recs))
	}
	// Every stored background record must sit inside the rebased span.
	n := 0
	anomalous := 0
	for r, err := range store.Iter(t.Context(), truth.Span, nil) {
		if err != nil {
			t.Fatal(err)
		}
		if !truth.Span.Contains(r.Start) {
			t.Fatalf("record at %d outside span %v", r.Start, truth.Span)
		}
		if r.IsAnomalous() {
			anomalous++
		}
		n++
	}
	if uint64(n) < truth.BackgroundFlows {
		t.Fatalf("store holds %d records, background truth says %d", n, truth.BackgroundFlows)
	}
	if anomalous == 0 {
		t.Error("no injected anomaly records on top of the replayed trace")
	}
}

// TestTraceCatalogDeterminism pins the replayed-trace catalog entries:
// same def + seed → byte-identical trace bytes, and generation succeeds
// in both formats.
func TestTraceCatalogDeterminism(t *testing.T) {
	for _, name := range []string{"trace-ddos", "trace-portscan"} {
		def, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not in catalog", name)
		}
		if def.Trace == nil {
			t.Fatalf("%s has no trace hook", name)
		}
		a := def.Scenario(5)
		b := def.Scenario(5)
		if !bytes.Equal(a.Trace, b.Trace) {
			t.Fatalf("%s: trace bytes differ between same-seed instantiations", name)
		}
		c := def.Scenario(6)
		if bytes.Equal(a.Trace, c.Trace) {
			t.Fatalf("%s: trace bytes identical across different seeds", name)
		}
		store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := a.Generate(store)
		if err != nil {
			t.Fatalf("%s: generate: %v", name, err)
		}
		if truth.BackgroundFlows == 0 {
			t.Fatalf("%s: no background stored from replayed trace", name)
		}
		if len(truth.Entries) == 0 || truth.Entries[0].StoredFlows == 0 {
			t.Fatalf("%s: no anomaly records injected on top of the trace", name)
		}
	}
}

// FuzzTraceReader drives the trace parser with corrupted dumps: whatever
// the bytes, it must either error cleanly or return records that honor
// the whole-trace invariants (nonzero monotone clock, per-record
// validity) — never panic.
func FuzzTraceReader(f *testing.F) {
	recs := traceRecords()
	f.Add(EncodeTraceBinary(recs))
	f.Add(EncodeTraceCSV(recs))
	f.Add(EncodeTraceBinary(SynthTraceRecords(stats.NewRNG(1), 2, 300, 40)))
	f.Add(EncodeTraceCSV(SynthTraceRecords(stats.NewRNG(2), 2, 300, 40)))
	f.Add([]byte{})
	f.Add([]byte("NFTR"))
	f.Add([]byte("NFTR\x01\x00\x00\x00"))
	f.Add(EncodeTraceBinary(recs)[:traceHeaderSize+traceRecordSize-3]) // truncated record
	f.Add([]byte("ts,sa,da,sp,dp,pr,ipkt,ibyt\n"))
	f.Add([]byte("ts,sa,da,sp,dp,pr,ipkt,ibyt\n1000,1.2.3.4,5.6.7.8,1,2,6,3,300\n"))
	f.Add([]byte("ts,sa,da,sp,dp,pr,ipkt,ibyt\n2000,1.2.3.4,5.6.7.8,1,2,6,3,300\n1999,1.2.3.4,5.6.7.8,1,2,6,3,300\n"))
	f.Add([]byte("ts,sa,da,sp,dp,pr,ipkt,ibyt\n0,1.2.3.4,5.6.7.8,1,2,6,3,300\n"))
	f.Add([]byte("first,duration,srcaddr,dstaddr,srcport,dstport,prot,packets,bytes\n2011-03-13 06:30:00,0.5,1.2.3.4,5.6.7.8,1,2,17,3,300\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(tr.Records) == 0 {
			t.Fatal("nil error but empty trace (ErrEmptyTrace contract)")
		}
		for i := range tr.Records {
			r := &tr.Records[i]
			if r.Start == 0 {
				t.Fatalf("record %d has zero timestamp", i)
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("record %d invalid: %v", i, err)
			}
			if r.Anno != flow.AnnoBackground {
				t.Fatalf("record %d not annotated background", i)
			}
			if i > 0 && r.Start < tr.Records[i-1].Start {
				t.Fatalf("non-monotonic records %d/%d survived parsing", i-1, i)
			}
		}
	})
}
