package core_test

import (
	"math"
	"testing"

	"egi"
	"egi/internal/core"
)

// These tests drive chunked detection through egi.DetectChunked, which
// runs the ensemble of this package chunk by chunk and stitches the
// curves. They live in an external test package because egi imports core.

func TestDetectChunkedFindsPlantedAnomaly(t *testing.T) {
	period := 50
	pos := 5200
	s := core.NoisyPeriodic(8000, period, pos, 17)
	res, err := egi.DetectChunked(s, egi.Options{Window: period, EnsembleSize: 20}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != len(s) {
		t.Fatalf("curve length %d, want %d", len(res.Curve), len(s))
	}
	hit := false
	for _, c := range res.Anomalies {
		if c.Pos < pos+period && pos < c.Pos+c.Length {
			hit = true
		}
	}
	if !hit {
		t.Errorf("chunked detection missed the planted anomaly at %d: %+v", pos, res.Anomalies)
	}
	for i, v := range res.Curve {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("curve[%d] = %v outside [0,1]", i, v)
		}
	}
}

func TestDetectChunkedAnomalyNearBoundary(t *testing.T) {
	// Plant the anomaly right at a chunk boundary; the window-1 overlap
	// must keep it visible to at least one chunk.
	period := 40
	chunkLen := 1600
	pos := chunkLen - period/2 // straddles the first boundary
	s := core.NoisyPeriodic(6000, period, pos, 23)
	res, err := egi.DetectChunked(s, egi.Options{Window: period, EnsembleSize: 20}, chunkLen)
	if err != nil {
		t.Fatal(err)
	}
	hit := false
	for _, c := range res.Anomalies {
		if c.Pos < pos+period && pos < c.Pos+c.Length {
			hit = true
		}
	}
	if !hit {
		t.Errorf("boundary anomaly at %d missed: %+v", pos, res.Anomalies)
	}
}

func TestDetectChunkedDegeneratesToDetect(t *testing.T) {
	s := core.NoisyPeriodic(1500, 50, 700, 5)
	cfg := core.DefaultConfig(50)
	cfg.Size = 10
	cfg.Seed = 3
	full, err := core.Detect(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := egi.Options{Window: 50, EnsembleSize: 10, Seed: 3}
	chunked, err := egi.DetectChunked(s, opts, len(s)+100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Curve {
		if full.Curve[i] != chunked.Curve[i] {
			t.Fatalf("chunkLen >= len should equal Detect; differs at %d", i)
		}
	}
}

func TestDetectChunkedValidation(t *testing.T) {
	s := core.NoisyPeriodic(3000, 50, 1500, 1)
	for _, bad := range []struct {
		name   string
		series []float64
		opts   egi.Options
		chunk  int
	}{
		{"chunk smaller than 4x window", s, egi.Options{Window: 50}, 100},
		{"chunk one below 4x window", s, egi.Options{Window: 50}, 199},
		{"empty series", []float64{}, egi.Options{Window: 50}, 1000},
		{"nil series", nil, egi.Options{Window: 50}, 1000},
		{"window beyond series", s, egi.Options{Window: 5000}, 1000},
		{"bad config", s, egi.Options{Window: 50, Tau: 2}, 1000},
	} {
		if _, err := egi.DetectChunked(bad.series, bad.opts, bad.chunk); err == nil {
			t.Errorf("%s: want an error", bad.name)
		}
	}
}

func TestDetectChunkedCandidatesNonOverlapping(t *testing.T) {
	s := core.NoisyPeriodic(6000, 40, 3000, 9)
	res, err := egi.DetectChunked(s, egi.Options{Window: 40, EnsembleSize: 15}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Anomalies {
		for j := i + 1; j < len(res.Anomalies); j++ {
			a, b := res.Anomalies[i], res.Anomalies[j]
			if a.Pos < b.Pos+b.Length && b.Pos < a.Pos+a.Length {
				t.Errorf("candidates overlap: %+v %+v", a, b)
			}
		}
	}
}
