package stream

import (
	"bytes"
	"math/rand"
	"testing"
)

// runStream feeds series through a detector built from cfg and returns the
// emitted events, the retained curve and its start.
func runStream(t *testing.T, cfg Config, series []float64) ([]Event, int, []float64) {
	t.Helper()
	var events []Event
	cfg.OnEvent = func(e Event) { events = append(events, e) }
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PushBatch(series); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	start, curve := d.Curve()
	return events, start, curve
}

// TestIncrementalStreamMatchesFromScratch is the stream-level engine-seam
// property: across random hop sizes, buffer lengths and ensemble sizes,
// a detector whose engine reuses discretization across overlapping hops
// emits exactly the events — and retains exactly the stitched curve — of
// a detector that re-discretizes every span from scratch. Bit for bit.
func TestIncrementalStreamMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 8; trial++ {
		period := 20 + rng.Intn(40)
		bufLen := 4*period + rng.Intn(6*period)
		hop := 1 + rng.Intn(bufLen-period+1)
		size := 4 + rng.Intn(10)
		length := bufLen + hop*(3+rng.Intn(5)) + rng.Intn(period)
		seed := rng.Int63n(1 << 30)
		series := sineSeries(length, period, seed, length/2)

		cfg := Config{
			Window:       period,
			BufLen:       bufLen,
			Hop:          hop,
			EnsembleSize: size,
			Seed:         seed,
		}
		scratch := cfg
		scratch.fromScratch = true

		evInc, startInc, curveInc := runStream(t, cfg, series)
		evRef, startRef, curveRef := runStream(t, scratch, series)

		if len(evInc) != len(evRef) {
			t.Fatalf("trial %d (hop=%d buf=%d): %d events incremental, %d from scratch",
				trial, hop, bufLen, len(evInc), len(evRef))
		}
		for i := range evInc {
			if evInc[i] != evRef[i] {
				t.Fatalf("trial %d event %d: %+v vs %+v", trial, i, evInc[i], evRef[i])
			}
		}
		if startInc != startRef || len(curveInc) != len(curveRef) {
			t.Fatalf("trial %d: curve spans differ: [%d,+%d) vs [%d,+%d)",
				trial, startInc, len(curveInc), startRef, len(curveRef))
		}
		for i := range curveInc {
			if curveInc[i] != curveRef[i] {
				t.Fatalf("trial %d curve[%d]: %v vs %v", trial, i, curveInc[i], curveRef[i])
			}
		}
	}
}

// TestAdaptiveThresholdFindsDriftingAnomalies: on a signal whose baseline
// rule density drifts (amplitude modulation), the adaptive quantile
// threshold still reports the planted anomalies, and the event stream is
// deterministic across runs.
func TestAdaptiveThresholdFindsDriftingAnomalies(t *testing.T) {
	const period = 50
	planted := []int{2300, 5200}
	series := sineSeries(8000, period, 3, planted...)
	// Amplitude drift: scale the second half up threefold, which shifts
	// the score distribution a fixed threshold was tuned for.
	for i := 4000; i < len(series); i++ {
		series[i] *= 3
	}

	cfg := Config{
		Window:           period,
		BufLen:           600,
		EnsembleSize:     10,
		Seed:             9,
		AdaptiveQuantile: 0.05,
	}
	ev1, _, _ := runStream(t, cfg, series)
	ev2, _, _ := runStream(t, cfg, series)
	if len(ev1) != len(ev2) {
		t.Fatalf("adaptive event counts differ across runs: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("adaptive event %d differs across runs: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
	for _, p := range planted {
		found := false
		for _, e := range ev1 {
			if e.Pos < p+period && p < e.Pos+e.Length {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("planted anomaly at %d not covered by adaptive events %v", p, ev1)
		}
	}
	// The quantile keeps the event rate in the same order of magnitude as
	// the quantile itself: no fixed-threshold silence, no event storm.
	if len(ev1) == 0 || len(ev1) > 40 {
		t.Errorf("adaptive threshold emitted %d events", len(ev1))
	}
}

// TestAdaptiveQuantileValidation: out-of-range quantiles are rejected.
func TestAdaptiveQuantileValidation(t *testing.T) {
	for _, q := range []float64{-0.1, 1, 1.5} {
		_, err := New(Config{Window: 20, AdaptiveQuantile: q})
		if err == nil {
			t.Errorf("AdaptiveQuantile=%v should error", q)
		}
	}
	if _, err := New(Config{Window: 20, AdaptiveQuantile: 0.5}); err != nil {
		t.Errorf("AdaptiveQuantile=0.5 rejected: %v", err)
	}
}

// TestSteadyStatePushAllocations pins the pooled hot path: once the stream
// is in steady state, one hop's worth of pushes (including one full
// ensemble re-induction over the buffer) stays under an allocation budget
// that the pre-engine implementation exceeded by more than an order of
// magnitude (it rebuilt features, token sequences, words and curves for
// every member on every hop).
func TestSteadyStatePushAllocations(t *testing.T) {
	const (
		window = 20
		bufLen = 200
		hop    = 20
		size   = 6
	)
	series := sineSeries(4*bufLen, window, 5)
	// Parallelism 1 runs the engine's encode and member tasks one at a
	// time; 2 overlaps them. Both stay under the same budget.
	for _, par := range []int{1, 2} {
		d, err := New(Config{
			Window:       window,
			BufLen:       bufLen,
			Hop:          hop,
			EnsembleSize: size,
			Seed:         1,
			Parallelism:  par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.PushBatch(series); err != nil {
			t.Fatal(err)
		}
		next := len(series)
		avg := testing.AllocsPerRun(40, func() {
			for i := 0; i < hop; i++ {
				if err := d.Push(series[next%len(series)]); err != nil {
					t.Fatal(err)
				}
				next++
			}
		})
		perPush := avg / hop
		t.Logf("parallelism %d, steady state: %.1f allocs per hop run, %.2f per pushed point", par, avg, perPush)
		// One hop run = size members × bookkeeping plus combine/rank
		// output: 49 objects when this bound was set. String tokens and
		// pointer-linked grammar nodes measured 911 on the identical
		// scenario, and the pre-engine pipeline 3863 (features, token
		// sequences, words and curves rebuilt per member per hop); the
		// budget sits well below the string-token profile while leaving
		// headroom for runtime-version noise.
		if avg > 300 {
			t.Errorf("parallelism %d: steady-state hop run allocates %.1f objects, budget 300", par, avg)
		}
	}
}

// TestParallelismBitIdentitySmallHop: at a hop shorter than the window
// every run draws a new member set, so one PAA-size group mixes fresh,
// reset and current pipelines that resume at different windows. The
// engine's encode and member tasks then run in a different order at every
// Parallelism setting; events, the retained curve and the snapshot bytes
// (before and after Flush) must not depend on it.
func TestParallelismBitIdentitySmallHop(t *testing.T) {
	const window = 30
	series := sineSeries(2400, window, 23, 900, 1700)
	type outcome struct {
		events      []Event
		start       int
		curve       []float64
		live, final []byte
	}
	run := func(par int) outcome {
		var o outcome
		d, err := New(Config{
			Window: window, BufLen: 240, Hop: 7, EnsembleSize: 24, Seed: 11,
			Parallelism: par,
			OnEvent:     func(e Event) { o.events = append(o.events, e) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.PushBatch(series); err != nil {
			t.Fatal(err)
		}
		o.live = d.Snapshot()
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		o.final = d.Snapshot()
		o.start, o.curve = d.Curve()
		return o
	}
	ref := run(1)
	if len(ref.events) == 0 {
		t.Fatal("reference run emitted no events")
	}
	for _, par := range []int{2, 8} {
		got := run(par)
		if len(got.events) != len(ref.events) {
			t.Fatalf("parallelism %d: %d events, want %d", par, len(got.events), len(ref.events))
		}
		for i := range ref.events {
			if got.events[i] != ref.events[i] {
				t.Fatalf("parallelism %d event %d: %+v, want %+v", par, i, got.events[i], ref.events[i])
			}
		}
		if got.start != ref.start || len(got.curve) != len(ref.curve) {
			t.Fatalf("parallelism %d: curve [%d,+%d), want [%d,+%d)", par, got.start, len(got.curve), ref.start, len(ref.curve))
		}
		for i := range ref.curve {
			if got.curve[i] != ref.curve[i] {
				t.Fatalf("parallelism %d curve[%d]: %v, want %v", par, i, got.curve[i], ref.curve[i])
			}
		}
		if !bytes.Equal(got.live, ref.live) || !bytes.Equal(got.final, ref.final) {
			t.Fatalf("parallelism %d: snapshot bytes differ", par)
		}
	}
}
