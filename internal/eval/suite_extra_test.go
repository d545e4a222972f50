package eval

import (
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/nfstore"
)

func TestRunSWITCHSubsetWithDetector(t *testing.T) {
	// Three SWITCH scenarios with the histogram/KL detector in the loop:
	// a port scan, a DDoS and a UDP flood (indexes 0, 20, 29 in the
	// 31-spec suite).
	all := SWITCHSpecs(2)
	subset := []ScenarioSpec{all[0], all[20], all[29]}
	res, err := runSuite("switch-subset", subset, suiteConfig{
		SeedBase: 501, SampleRate: 1, WorkDir: t.TempDir(), Detector: "histogram",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.Evals {
		if !e.Useful {
			t.Errorf("scenario %d (%s) not useful: %+v", i, e.Scenario, e)
		}
	}
	// At least the scan must come from the detector itself (the flood may
	// need the synthesized fallback: the histogram detector is flow-count
	// weighted).
	if res.Evals[0].AlarmSource != "detector" {
		t.Errorf("scan alarm source = %s, want detector", res.Evals[0].AlarmSource)
	}
}

func TestSuiteAggregationOnEmpty(t *testing.T) {
	s := &SuiteResult{Name: "empty"}
	if s.UsefulFraction() != 0 || s.AdditionalFraction() != 0 {
		t.Fatal("empty suite fractions must be zero")
	}
}

func TestScoreResultNoItemsets(t *testing.T) {
	store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := gen.Scenario{
		Background: gen.Background{NumPoPs: 1, FlowsPerBin: 50},
		Bins:       2, StartTime: 1_300_000_200, Seed: 1,
	}
	truth, err := s.Generate(store)
	if err != nil {
		t.Fatal(err)
	}
	alarm := &detector.Alarm{Interval: flow.Interval{
		Start: truth.Span.Start, End: truth.Span.Start + 300}}
	res := &core.Result{Alarm: *alarm}
	score, err := ScoreResult(store, alarm, res, DefaultScoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	if score.Useful || score.Additional || score.FlowRecall != 0 {
		t.Fatalf("empty result must score zero: %+v", score)
	}
}
