package egi_test

import (
	"math"
	"math/rand"
	"testing"

	"egi"
	"egi/internal/gen"
)

func synthetic(length, period, anomalyPos int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, length)
	for i := range s {
		s[i] = math.Sin(2*math.Pi*float64(i)/float64(period)) + 0.05*rng.NormFloat64()
	}
	for i := anomalyPos; i < anomalyPos+period && i < length; i++ {
		s[i] = 1.2 - 2.4*math.Abs(float64(i-anomalyPos)/float64(period)-0.5) + 0.05*rng.NormFloat64()
	}
	return s
}

func TestDetectPublicAPI(t *testing.T) {
	s := synthetic(3000, 60, 1500, 1)
	res, err := egi.Detect(s, egi.Options{Window: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Anomalies) == 0 {
		t.Fatal("no anomalies")
	}
	top := res.Anomalies[0]
	if d := math.Abs(float64(top.Pos - 1500)); d > 60 {
		t.Errorf("top anomaly at %d, planted at 1500", top.Pos)
	}
	if len(res.Curve) != len(s) {
		t.Errorf("curve length %d, want %d", len(res.Curve), len(s))
	}
	for _, v := range res.Curve {
		if v < 0 || v > 1 {
			t.Fatalf("curve value %v outside [0,1]", v)
		}
	}
}

func TestDetectSinglePublicAPI(t *testing.T) {
	s := synthetic(2000, 50, 1000, 2)
	res, err := egi.DetectSingle(s, 50, 5, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Anomalies) == 0 {
		t.Fatal("no anomalies")
	}
	for _, a := range res.Anomalies {
		if a.Length != 50 {
			t.Errorf("anomaly length %d, want 50", a.Length)
		}
	}
}

func TestDiscordsPublicAPI(t *testing.T) {
	s := synthetic(1500, 50, 700, 3)
	ds, err := egi.Discords(s, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("no discords")
	}
	if d := math.Abs(float64(ds[0].Pos - 700)); d > 50 {
		t.Errorf("top discord at %d, planted at 700", ds[0].Pos)
	}
}

func TestVariableLengthAnomaliesPublicAPI(t *testing.T) {
	s := synthetic(2000, 50, 1000, 6)
	as, err := egi.VariableLengthAnomalies(s, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) == 0 {
		t.Fatal("no anomalies")
	}
	hit := false
	for _, a := range as {
		if a.Pos < 1000+50 && 1000 < a.Pos+a.Length {
			hit = true
		}
	}
	if !hit {
		t.Errorf("no variable-length anomaly overlaps the planted one: %+v", as)
	}
	if _, err := egi.VariableLengthAnomalies(nil, 10, 3); err == nil {
		t.Error("nil series should error")
	}
}

func TestDetectChunkedPublicAPI(t *testing.T) {
	s := synthetic(6000, 50, 4000, 9)
	res, err := egi.DetectChunked(s, egi.Options{Window: 50, EnsembleSize: 15, Seed: 2}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	hit := false
	for _, a := range res.Anomalies {
		if a.Pos < 4000+50 && 4000 < a.Pos+a.Length {
			hit = true
		}
	}
	if !hit {
		t.Errorf("chunked detection missed planted anomaly: %+v", res.Anomalies)
	}
	if _, err := egi.DetectChunked(s, egi.Options{Window: 50}, 60); err == nil {
		t.Error("tiny chunk should error")
	}
}

func TestMotifsPublicAPI(t *testing.T) {
	s := synthetic(2000, 50, 1000, 8)
	ms, err := egi.Motifs(s, 50, 4, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no motifs in periodic data")
	}
	if len(ms[0].Occurrences) < 2 {
		t.Errorf("top motif has %d occurrences", len(ms[0].Occurrences))
	}
	if _, err := egi.Motifs(s, 50, 4, 4, 0); err == nil {
		t.Error("k=0 should error")
	}
}

func TestDetectErrorsArePropagated(t *testing.T) {
	if _, err := egi.Detect(nil, egi.Options{Window: 10}); err == nil {
		t.Error("nil series should error")
	}
	if _, err := egi.Detect([]float64{1, 2, 3}, egi.Options{Window: 0}); err == nil {
		t.Error("zero window should error")
	}
	if _, err := egi.Detect([]float64{1, 2, 3}, egi.Options{Window: 10}); err == nil {
		t.Error("window beyond series should error")
	}
	if _, err := egi.DetectSingle([]float64{1, 2, 3}, 2, 5, 5, 3); err == nil {
		t.Error("w > window should error")
	}
	if _, err := egi.Discords([]float64{1, 2, 3}, 2, 3); err == nil {
		t.Error("too-short series should error for discords")
	}
}

func TestDetectDeterministic(t *testing.T) {
	s := synthetic(1200, 40, 600, 4)
	r1, err := egi.Detect(s, egi.Options{Window: 40, Seed: 5, EnsembleSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := egi.Detect(s, egi.Options{Window: 40, Seed: 5, EnsembleSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Anomalies) != len(r2.Anomalies) {
		t.Fatal("anomaly counts differ")
	}
	for i := range r1.Anomalies {
		if r1.Anomalies[i] != r2.Anomalies[i] {
			t.Fatalf("anomaly %d differs", i)
		}
	}
}

// TestDetectAllocations guards the batch detector's allocation profile:
// Detect at the paper's defaults on a 20k-point ECG-like series must stay
// at or below 2 allocations per point. Word ids in the SAX pipelines and
// the pointer-free grammar arena measured 0.3 when this bound was set;
// string tokens and pointer-linked grammar nodes measured 29.
func TestDetectAllocations(t *testing.T) {
	series, err := gen.ECG(20000, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(2, func() {
		if _, err := egi.Detect(series, egi.Options{Window: 100}); err != nil {
			t.Fatal(err)
		}
	})
	perPoint := avg / float64(len(series))
	t.Logf("Detect: %.0f allocs, %.2f per point", avg, perPoint)
	if perPoint > 2 {
		t.Errorf("Detect allocates %.2f objects per point, budget 2", perPoint)
	}
}
