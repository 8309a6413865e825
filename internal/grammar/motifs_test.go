package grammar

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"egi/internal/sax"
	"egi/internal/timeseries"
)

func TestFindMotifsOnPeriodicSeries(t *testing.T) {
	// A periodic series is one big motif: the top motif's occurrences
	// should tile most of the series at roughly one-period spacing.
	period := 40
	rng := rand.New(rand.NewSource(2))
	s := make(timeseries.Series, 2000)
	for i := range s {
		s[i] = math.Sin(2*math.Pi*float64(i)/float64(period)) + 0.03*rng.NormFloat64()
	}
	motifs, err := FindMotifs(s, period, sax.Params{W: 4, A: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(motifs) == 0 {
		t.Fatal("no motifs found in periodic data")
	}
	top := motifs[0]
	if top.Count() < 4 {
		t.Errorf("top motif has only %d occurrences", top.Count())
	}
	if !strings.HasPrefix(top.RuleString, "R") {
		t.Errorf("rule string %q", top.RuleString)
	}
	for _, o := range top.Occurrences {
		if o[0] < 0 || o[1] > len(s) || o[0] >= o[1] {
			t.Errorf("bad occurrence %v", o)
		}
	}
	// Motifs ranked by descending occurrence count.
	for i := 1; i < len(motifs); i++ {
		if motifs[i].Count() > motifs[i-1].Count() {
			t.Errorf("motifs not sorted by count: %d then %d",
				motifs[i-1].Count(), motifs[i].Count())
		}
	}
	if top.MeanLength() <= 0 {
		t.Error("mean length must be positive")
	}
}

func TestFindMotifsUniqueDataHasFew(t *testing.T) {
	// A random walk has little exactly-repeating structure under fine
	// discretization; whatever motifs exist must be non-trivial (>= 2
	// non-overlapping occurrences each).
	rng := rand.New(rand.NewSource(5))
	s := make(timeseries.Series, 1500)
	v := 0.0
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	motifs, err := FindMotifs(s, 50, sax.Params{W: 8, A: 8}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range motifs {
		distinct := dedupeOverlaps(m.Occurrences)
		if len(distinct) < 2 {
			t.Errorf("motif %s has <2 non-overlapping occurrences", m.RuleString)
		}
	}
}

func TestTopMotifsErrors(t *testing.T) {
	s := make(timeseries.Series, 100)
	for i := range s {
		s[i] = math.Sin(float64(i) / 5)
	}
	if _, err := FindMotifs(s, 20, sax.Params{W: 4, A: 4}, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := FindMotifs(s, 1, sax.Params{W: 1, A: 4}, 3); err == nil {
		t.Error("n=1 should error")
	}
	if _, err := FindMotifs(s, 200, sax.Params{W: 4, A: 4}, 3); err == nil {
		t.Error("n>len should error")
	}
	if _, err := FindMotifs(s, 20, sax.Params{W: 21, A: 4}, 3); err == nil {
		t.Error("w>n should error")
	}
}

func TestDedupeOverlaps(t *testing.T) {
	spans := [][2]int{{10, 20}, {0, 5}, {15, 25}, {30, 40}}
	got := dedupeOverlaps(spans)
	want := [][2]int{{0, 5}, {10, 20}, {30, 40}}
	if len(got) != len(want) {
		t.Fatalf("dedupe = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dedupe = %v, want %v", got, want)
		}
	}
	if out := dedupeOverlaps(nil); len(out) != 0 {
		t.Errorf("dedupe(nil) = %v", out)
	}
}
