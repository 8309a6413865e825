package stream_test

import (
	"math"
	"math/rand"
	"testing"

	"egi"
	"egi/internal/engine"
	"egi/internal/stream"
)

// diffSeries is a noisy sine with one planted triangular pulse and, when
// flat is set, a constant stretch of 500 points starting at 600 — longer
// than any chunk below plus its stride, so at least one chunk is entirely
// constant and contributes coverage without density.
func diffSeries(length, period int, seed int64, flat bool) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, length)
	for i := range s {
		s[i] = math.Sin(2*math.Pi*float64(i)/float64(period)) + 0.1*rng.NormFloat64()
	}
	p := length/3 + rng.Intn(length/3)
	for i := p; i < p+period && i < length; i++ {
		s[i] = 1.5 - 3*math.Abs(float64(i-p)/float64(period)-0.5)
	}
	if flat {
		for i := 600; i < 1100; i++ {
			s[i] = 0.25
		}
	}
	return s
}

// TestDetectChunkedMatchesOracle: egi.DetectChunked, which drives one
// default-hop stream detector, returns bit for bit the curve and ranking
// of the batch chunk-and-stitch oracle — across seeds, chunk lengths at
// and just above the 4x-window minimum, chunk grids ending exactly at the
// series end, one point past it and one window past it, and series with a
// constant stretch longer than a chunk.
func TestDetectChunkedMatchesOracle(t *testing.T) {
	const (
		window = 24
		chunk  = 150
		stride = chunk - window + 1
	)
	cases := []struct {
		name          string
		length, chunk int
	}{
		{"4W", 1500, 4 * window},
		{"4W+7", 1500, 4*window + 7},
		{"grid ends at len", chunk + 8*stride, chunk},
		{"1-point tail", chunk + 8*stride + 1, chunk},
		{"W-point tail", chunk + 8*stride + window, chunk},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 6; seed++ {
			series := diffSeries(c.length, window, seed, seed%2 == 0)
			got, err := egi.DetectChunked(series, egi.Options{
				Window: window, EnsembleSize: 8, TopK: 5, Seed: seed,
			}, c.chunk)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			curve, cands, err := stream.DetectChunkedOracle(series, engine.Config{
				Window: window, Size: 8, TopK: 5, Seed: seed,
			}, c.chunk)
			if err != nil {
				t.Fatalf("%s seed %d: oracle: %v", c.name, seed, err)
			}
			if len(got.Curve) != len(curve) {
				t.Fatalf("%s seed %d: curve length %d, oracle %d", c.name, seed, len(got.Curve), len(curve))
			}
			for i := range curve {
				if math.Float64bits(got.Curve[i]) != math.Float64bits(curve[i]) {
					t.Fatalf("%s seed %d: curve[%d] = %v, oracle %v", c.name, seed, i, got.Curve[i], curve[i])
				}
			}
			if len(got.Anomalies) != len(cands) {
				t.Fatalf("%s seed %d: %d anomalies, oracle %d", c.name, seed, len(got.Anomalies), len(cands))
			}
			for i, a := range got.Anomalies {
				o := cands[i]
				if a.Pos != o.Pos || a.Length != o.Length || math.Float64bits(a.Density) != math.Float64bits(o.Density) {
					t.Fatalf("%s seed %d: anomaly %d = %+v, oracle %+v", c.name, seed, i, a, o)
				}
			}
		}
	}
}
