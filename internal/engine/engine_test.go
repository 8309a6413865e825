package engine

import (
	"math"
	"math/rand"
	"testing"

	"egi/internal/sax"
	"egi/internal/timeseries"
)

// genSeries builds a noisy periodic series with a planted pulse.
func genSeries(length, period int, seed int64) timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	s := make(timeseries.Series, length)
	for i := range s {
		s[i] = math.Sin(2*math.Pi*float64(i)/float64(period)) + 0.15*rng.NormFloat64()
	}
	p := length / 2
	for i := p; i < p+period && i < length; i++ {
		s[i] = 1.4 - 2.8*math.Abs(float64(i-p)/float64(period)-0.5)
	}
	return s
}

// resultsEqual fails the test unless a and b agree bit for bit: curve,
// candidates and members, every float compared by its Float64bits.
func resultsEqual(t *testing.T, ctx string, a, b *Result) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: one result nil", ctx)
	}
	if a == nil {
		return
	}
	if len(a.Curve) != len(b.Curve) {
		t.Fatalf("%s: curve lengths %d vs %d", ctx, len(a.Curve), len(b.Curve))
	}
	for i := range a.Curve {
		if math.Float64bits(a.Curve[i]) != math.Float64bits(b.Curve[i]) {
			t.Fatalf("%s: curve[%d] %v vs %v", ctx, i, a.Curve[i], b.Curve[i])
		}
	}
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatalf("%s: candidate counts %d vs %d", ctx, len(a.Candidates), len(b.Candidates))
	}
	for i := range a.Candidates {
		ca, cb := a.Candidates[i], b.Candidates[i]
		if ca != cb || math.Float64bits(ca.Density) != math.Float64bits(cb.Density) {
			t.Fatalf("%s: candidate %d %+v vs %+v", ctx, i, a.Candidates[i], b.Candidates[i])
		}
	}
	if len(a.Members) != len(b.Members) {
		t.Fatalf("%s: member counts %d vs %d", ctx, len(a.Members), len(b.Members))
	}
	for i := range a.Members {
		ma, mb := a.Members[i], b.Members[i]
		if ma != mb || math.Float64bits(ma.Std) != math.Float64bits(mb.Std) {
			t.Fatalf("%s: member %d %+v vs %+v", ctx, i, a.Members[i], b.Members[i])
		}
	}
}

// TestIncrementalMatchesFromScratch is the engine-seam property test: one
// long-lived engine reusing per-member pipelines across overlapping spans
// must produce, for every span, exactly the result of a fresh engine (or
// the same engine in FromScratch mode) discretizing that span from
// scratch — bit for bit — across random hop sizes, buffer lengths, member
// counts and seeds.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		window := 10 + rng.Intn(30)
		bufLen := 4*window + rng.Intn(8*window)
		hop := 1 + rng.Intn(bufLen-window+1)
		size := 3 + rng.Intn(18)
		length := bufLen + hop*(2+rng.Intn(6)) + rng.Intn(window)
		seed := rng.Int63n(1 << 30)

		series := genSeries(length, window, seed)
		f, err := timeseries.NewFeatures(series)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Window: window, Size: size, Seed: seed}
		inc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scratchCfg := cfg
		scratchCfg.FromScratch = true
		ref, err := New(scratchCfg)
		if err != nil {
			t.Fatal(err)
		}

		runIdx := 0
		for start := 0; start+window <= length; start += hop {
			end := start + bufLen
			if end > length {
				end = length
			}
			if end-start < window {
				break
			}
			spanSeed := seed + int64(runIdx)*SeedStride
			a, errA := inc.DetectSpan(f, start, end, start+hop, spanSeed)
			b, errB := ref.DetectSpan(f, start, end, 0, spanSeed)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("trial %d span [%d,%d): errors differ: %v vs %v", trial, start, end, errA, errB)
			}
			if errA != nil {
				if errA != ErrNoUsableCurves {
					t.Fatalf("trial %d span [%d,%d): %v", trial, start, end, errA)
				}
				continue
			}
			resultsEqual(t, "span", a, b)
			runIdx++
		}
	}
}

// TestRingSourceMatchesFeatures: the rolling prefix-sum ring drives the
// engine to the same bits as whole-series Features over the same global
// span — the identity that lets the stream and the batch detector share
// results.
func TestRingSourceMatchesFeatures(t *testing.T) {
	const (
		window = 25
		bufLen = 150
		hop    = 40
		length = 700
	)
	series := genSeries(length, window, 7)
	f, err := timeseries.NewFeatures(series)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := timeseries.NewRingFeatures(bufLen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Window: window, Size: 10, Seed: 3}
	viaRing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaFeat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	next := bufLen // first span once the buffer is full
	runIdx := 0
	for i, x := range series {
		if err := ring.Append(x); err != nil {
			t.Fatal(err)
		}
		if i+1 == next {
			start, end := i+1-bufLen, i+1
			spanSeed := int64(runIdx) * SeedStride
			a, errA := viaRing.DetectSpan(ring, start, end, start+hop, spanSeed)
			b, errB := viaFeat.DetectSpan(f, start, end, start+hop, spanSeed)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("span [%d,%d): errors differ: %v vs %v", start, end, errA, errB)
			}
			if errA == nil {
				resultsEqual(t, "ring-vs-features", a, b)
			}
			next += hop
			runIdx++
		}
	}
}

// TestMemberCurvesMatchDetectSpan: the sweep entry point returns the same
// members the combined path consumes, and Combine on them reproduces
// DetectSpan.
func TestMemberCurvesMatchDetectSpan(t *testing.T) {
	series := genSeries(900, 30, 11)
	f, err := timeseries.NewFeatures(series)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Window: 30, Size: 12, Seed: 5}
	e1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := e1.DetectSpan(f, 0, len(series), len(series), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	members, err := e2.MemberCurves(f, 0, len(series), len(series), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := Combine(members, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "members+combine", full, combined)
}

// TestCombineDoesNotMutateInputs: the standalone Combine never rewrites
// the member curves; sweep callers rely on reusing them.
func TestCombineDoesNotMutateInputs(t *testing.T) {
	series := genSeries(600, 20, 13)
	f, err := timeseries.NewFeatures(series)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Window: 20, Size: 8, Seed: 2}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	members, err := e.MemberCurves(f, 0, len(series), len(series), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]float64, len(members))
	for i, m := range members {
		before[i] = append([]float64(nil), m.Curve...)
	}
	if _, err := Combine(members, cfg); err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		for j := range m.Curve {
			if m.Curve[j] != before[i][j] {
				t.Fatalf("member %d curve mutated at %d", i, j)
			}
		}
	}
}

// TestSpanValidation: malformed spans are rejected up front.
func TestSpanValidation(t *testing.T) {
	series := genSeries(300, 20, 17)
	f, err := timeseries.NewFeatures(series)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Window: 20, Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DetectSpan(f, 0, 10, 0, 0); err == nil {
		t.Error("sub-window span should error")
	}
	if _, err := e.DetectSpan(f, -5, 100, 0, 0); err == nil {
		t.Error("negative start should error")
	}
	if _, err := e.DetectSpan(f, 0, len(series)+1, 0, 0); err == nil {
		t.Error("overlong span should error")
	}
	if _, err := e.DetectSpan(nil, 0, 100, 0, 0); err == nil {
		t.Error("nil source should error")
	}
}

// TestConstantSpan: every member degenerates on a constant span and the
// engine reports ErrNoUsableCurves, like the batch detector.
func TestConstantSpan(t *testing.T) {
	series := make(timeseries.Series, 200)
	for i := range series {
		series[i] = 4
	}
	f, err := timeseries.NewFeatures(series)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Window: 20, Size: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DetectSpan(f, 0, len(series), len(series), 1); err != ErrNoUsableCurves {
		t.Fatalf("got %v, want ErrNoUsableCurves", err)
	}
}

// TestLongWordsMatchBatchSpans covers words longer than sax.MaxPackedW,
// which the encoder hands to their pipelines as bytes and the pipelines
// key by string: with WMax 14 and the ensemble drawing the whole (w, a)
// grid, every span has members of w = 13 and 14. Driven like a stream — a
// rolling ring, one engine across overlapping hop spans, each told the
// next hop position — every span equals a FromScratch engine's run over the
// whole-series Features, and with per-span induction (RebaseEvery 1) a
// fresh batch engine's run over the span.
func TestLongWordsMatchBatchSpans(t *testing.T) {
	const (
		window = 30
		bufLen = 240
		hop    = 17
		length = 900
	)
	series := genSeries(length, window, 19)
	f, err := timeseries.NewFeatures(series)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := timeseries.NewRingFeatures(bufLen)
	if err != nil {
		t.Fatal(err)
	}
	// (WMax-1) × (AMax-1) = 39 members: the whole grid.
	cfg := Config{Window: window, Size: 39, WMax: 14, AMax: 4, Seed: 8}
	inc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scratchCfg := cfg
	scratchCfg.FromScratch = true
	scratch, err := New(scratchCfg)
	if err != nil {
		t.Fatal(err)
	}
	perSpanCfg := cfg
	perSpanCfg.RebaseEvery = 1
	perSpan, err := New(perSpanCfg)
	if err != nil {
		t.Fatal(err)
	}
	next, runIdx := bufLen, 0
	for i, x := range series {
		if err := ring.Append(x); err != nil {
			t.Fatal(err)
		}
		if i+1 != next {
			continue
		}
		start, end := i+1-bufLen, i+1
		spanSeed := cfg.Seed + int64(runIdx)*SeedStride
		got, err := inc.DetectSpan(ring, start, end, start+hop, spanSeed)
		if err != nil {
			t.Fatal(err)
		}
		long := 0
		for _, m := range got.Members {
			if m.Params.W > sax.MaxPackedW {
				long++
			}
		}
		if long != 6 {
			t.Fatalf("span [%d,%d): %d members with w > %d, want 6", start, end, long, sax.MaxPackedW)
		}
		want, err := scratch.DetectSpan(f, start, end, 0, spanSeed)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, "incremental vs FromScratch", got, want)
		if got, err = perSpan.DetectSpan(ring, start, end, start+hop, spanSeed); err != nil {
			t.Fatal(err)
		}
		batch, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = batch.DetectSpan(f, start, end, end, spanSeed); err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, "hop run vs batch span", got, want)
		next += hop
		runIdx++
	}
	if runIdx < 10 {
		t.Fatalf("only %d hop runs", runIdx)
	}
}
