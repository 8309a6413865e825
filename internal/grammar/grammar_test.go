package grammar

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"egi/internal/sax"
	"egi/internal/sequitur"
	"egi/internal/timeseries"
)

// periodicWithAnomaly builds a clean sine-like series of given length and
// period, with a structural anomaly (inverted half-cycle) planted at pos.
func periodicWithAnomaly(length, period, pos int, seed int64) timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	s := make(timeseries.Series, length)
	for i := range s {
		s[i] = math.Sin(2*math.Pi*float64(i)/float64(period)) + 0.05*rng.NormFloat64()
	}
	for i := pos; i < pos+period && i < length; i++ {
		// Replace one cycle with a flat-topped pulse: structurally different.
		s[i] = 1.2 - 2.4*math.Abs(float64(i-pos)/float64(period)-0.5) + 0.05*rng.NormFloat64()
	}
	return s
}

// induce runs Sequitur over words through the resumable builder.
func induce(t *testing.T, words []string) *sequitur.Grammar {
	t.Helper()
	b := sequitur.NewBuilder()
	for _, w := range words {
		b.Push(w)
	}
	g, err := b.Grammar()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDensityCurvePaperExample(t *testing.T) {
	// Table 1's sequence: the xx token is in no rule, so its span must have
	// zero density while the R1 spans have positive density.
	words := []string{"aa", "bb", "cc", "xx", "aa", "bb", "cc"}
	pos := make([]int, len(words))
	for i := range words {
		pos[i] = i * 4 // windows every 4 points
	}
	n := 4
	seriesLen := pos[len(pos)-1] + n
	curve, err := WindowedDensityInto(nil, induce(t, words), pos, 0, seriesLen, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != seriesLen {
		t.Fatalf("curve length %d, want %d", len(curve), seriesLen)
	}
	// R1 covers tokens [0,3) -> points [0, 2*4+4) = [0,12) and tokens
	// [4,7) -> points [16, 28).
	for i := 0; i < 12; i++ {
		if curve[i] <= 0 {
			t.Fatalf("curve[%d] = %v, want > 0 (inside R1 span)", i, curve[i])
		}
	}
	for i := 12; i < 16; i++ {
		if curve[i] != 0 {
			t.Fatalf("curve[%d] = %v, want 0 (xx anomaly span)", i, curve[i])
		}
	}
	for i := 16; i < 28; i++ {
		if curve[i] <= 0 {
			t.Fatalf("curve[%d] = %v, want > 0 (second R1 span)", i, curve[i])
		}
	}
}

func TestDensityCurveNonNegativeAndErrors(t *testing.T) {
	words := []string{"a", "b", "a", "b"}
	pos := []int{0, 1, 2, 3}
	g := induce(t, words)
	curve, err := WindowedDensityInto(nil, g, pos, 0, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range curve {
		if v < 0 {
			t.Fatalf("curve[%d] = %v < 0", i, v)
		}
	}
	if _, err := WindowedDensityInto(nil, g, []int(nil), 0, 10, 3); err == nil {
		t.Error("empty tokens should error")
	}
	if _, err := WindowedDensityInto(nil, g, pos, 0, 10, 0); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := WindowedDensityInto(nil, g, pos, 0, 2, 3); err == nil {
		t.Error("n>seriesLen should error")
	}
}

func TestWindowScores(t *testing.T) {
	curve := []float64{0, 0, 3, 3, 3, 0}
	scores, err := WindowScores(curve, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 2}
	if len(scores) != len(want) {
		t.Fatalf("got %d scores, want %d", len(scores), len(want))
	}
	for i := range want {
		if math.Abs(scores[i]-want[i]) > 1e-12 {
			t.Fatalf("scores = %v, want %v", scores, want)
		}
	}
	if _, err := WindowScores(nil, 1); err == nil {
		t.Error("empty curve should error")
	}
	if _, err := WindowScores(curve, 7); err == nil {
		t.Error("n>len should error")
	}
}

func TestRankAnomaliesNonOverlapAndOrder(t *testing.T) {
	// Two separated dips; the deeper one must rank first.
	curve := make([]float64, 100)
	for i := range curve {
		curve[i] = 10
	}
	for i := 20; i < 25; i++ {
		curve[i] = 1 // shallow dip
	}
	for i := 70; i < 75; i++ {
		curve[i] = 0 // deep dip
	}
	cands, err := RankAnomalies(curve, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 3 {
		t.Fatalf("got %d candidates, want 3", len(cands))
	}
	if cands[0].Pos != 70 {
		t.Errorf("top candidate at %d, want 70", cands[0].Pos)
	}
	if cands[1].Pos != 20 {
		t.Errorf("second candidate at %d, want 20", cands[1].Pos)
	}
	for i := range cands {
		for j := i + 1; j < len(cands); j++ {
			a, b := cands[i], cands[j]
			if a.Pos < b.Pos+b.Length && b.Pos < a.Pos+a.Length {
				t.Errorf("candidates %d and %d overlap: %+v %+v", i, j, a, b)
			}
		}
	}
	if cands[0].Density > cands[1].Density || cands[1].Density > cands[2].Density {
		t.Errorf("candidates not in ascending density order: %+v", cands)
	}
}

func TestRankAnomaliesFewerThanTopK(t *testing.T) {
	curve := []float64{1, 1, 1, 1}
	cands, err := RankAnomalies(curve, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Only windows 0 and 1 exist and they overlap, so one candidate.
	if len(cands) != 1 {
		t.Errorf("got %d candidates, want 1: %+v", len(cands), cands)
	}
	if _, err := RankAnomalies(curve, 3, 0); err == nil {
		t.Error("topK=0 should error")
	}
}

func TestDetectFindsPlantedAnomaly(t *testing.T) {
	period := 50
	pos := 1000
	s := periodicWithAnomaly(2000, period, pos, 1)
	res, err := Detect(s, period, sax.Params{W: 5, A: 5}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates returned")
	}
	best := math.Inf(1)
	for _, c := range res.Candidates {
		if d := math.Abs(float64(c.Pos - pos)); d < best {
			best = d
		}
	}
	if best > float64(period) {
		t.Errorf("no candidate within one period of the planted anomaly at %d; candidates %+v",
			pos, res.Candidates)
	}
	if len(res.Curve) != len(s) {
		t.Errorf("curve length %d, want %d", len(res.Curve), len(s))
	}
	if res.NumRules < 2 {
		t.Errorf("periodic series should induce rules, got %d", res.NumRules)
	}
}

func TestDetectWindowErrors(t *testing.T) {
	s := periodicWithAnomaly(200, 20, 100, 2)
	if _, err := Detect(s, 1, sax.Params{W: 1, A: 3}, nil, 3); err == nil {
		t.Error("n=1 should error")
	}
	if _, err := Detect(s, 300, sax.Params{W: 4, A: 4}, nil, 3); err == nil {
		t.Error("n>len should error")
	}
	if _, err := Detect(timeseries.Series{}, 10, sax.Params{W: 4, A: 4}, nil, 3); err == nil {
		t.Error("empty series should error")
	}
	if _, err := Detect(s, 20, sax.Params{W: 25, A: 4}, nil, 3); err == nil {
		t.Error("w>n should error")
	}
}

func TestDetectConstantSeries(t *testing.T) {
	// A constant series discretizes to a single repeated word which the
	// numerosity reduction collapses to one token; no rules are induced and
	// the curve is all zeros. The detector must not panic and must still
	// return non-overlapping candidates.
	s := make(timeseries.Series, 300)
	for i := range s {
		s[i] = 42
	}
	res, err := Detect(s, 30, sax.Params{W: 4, A: 4}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Curve {
		if v != 0 {
			t.Fatalf("constant series should have zero density, got %v", v)
		}
	}
	if res.NumTokens != 1 {
		t.Errorf("constant series should reduce to 1 token, got %d", res.NumTokens)
	}
}

func TestDetectWithSharedResolver(t *testing.T) {
	s := periodicWithAnomaly(1500, 40, 700, 3)
	mr, err := sax.NewMultiResolver(10)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Detect(s, 40, sax.Params{W: 6, A: 6}, mr, 3)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Detect(s, 40, sax.Params{W: 6, A: 6}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Curve {
		if r1.Curve[i] != r2.Curve[i] {
			t.Fatalf("curve differs at %d with/without shared resolver", i)
		}
	}
	// A shared resolver too small for the alphabet is an error, not a panic.
	small, err := sax.NewMultiResolver(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Detect(s, 40, sax.Params{W: 6, A: 8}, small, 3); !errors.Is(err, sax.ErrBadAlphabet) {
		t.Errorf("alphabet 8 over a resolver of 4: err %v, want ErrBadAlphabet", err)
	}
}

func TestDensityCurveClampsAtSeriesEnd(t *testing.T) {
	// Rule occurrences whose last window extends to the series end must not
	// write past the curve.
	curve, err := WindowedDensityInto(nil, induce(t, []string{"a", "b", "a", "b"}), []int{0, 1, 2, 3}, 0, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 6 {
		t.Fatalf("curve length %d, want 6", len(curve))
	}
}
