package egi_test

import (
	"errors"
	"math"
	"testing"

	"egi"
	"egi/internal/timeseries"
)

// nonFiniteSeries injects NaN and ±Inf points into a copy of the
// quickstart series at a fixed stride, returning the corrupted series and
// the indices of the injected points.
func nonFiniteSeries() (corrupted []float64, injected []int) {
	series := quickstartSeries()
	corrupted = append([]float64(nil), series...)
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 37; i < len(corrupted); i += 211 {
		corrupted[i] = bad[len(injected)%len(bad)]
		injected = append(injected, i)
	}
	return corrupted, injected
}

// TestDetectChunkedNonFinite: DetectChunked rejects NaN and ±Inf points
// on both of its paths — chunked (chunkLen < len) and the chunkLen >= len
// shortcut to Detect — rather than letting one poison the curve.
func TestDetectChunkedNonFinite(t *testing.T) {
	series := quickstartSeries()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := append([]float64(nil), series...)
		s[len(s)/2] = bad
		for _, chunkLen := range []int{len(s) / 4, len(s)} {
			_, err := egi.DetectChunked(s, egi.Options{Window: 80, EnsembleSize: 5}, chunkLen)
			if !errors.Is(err, timeseries.ErrNonFinite) {
				t.Errorf("point %v, chunkLen %d: err = %v, want ErrNonFinite", bad, chunkLen, err)
			}
		}
	}
}

// TestStreamNonFiniteReject: the default policy fails the batch at the
// first non-finite point, with everything before it applied — the
// accepted count is the exact resume coordinate.
func TestStreamNonFiniteReject(t *testing.T) {
	corrupted, injected := nonFiniteSeries()
	s, err := egi.Stream(egi.StreamOptions{Window: 80, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.PushBatchN(corrupted)
	if !errors.Is(err, egi.ErrNonFinite) {
		t.Fatalf("PushBatchN err = %v, want ErrNonFinite", err)
	}
	if n != injected[0] {
		t.Fatalf("accepted %d points, want %d (index of first NaN)", n, injected[0])
	}
	if s.Total() != injected[0] {
		t.Fatalf("Total = %d after rejection, want %d", s.Total(), injected[0])
	}
	// A single non-finite Push is rejected the same way.
	if err := s.Push(math.Inf(1)); !errors.Is(err, egi.ErrNonFinite) {
		t.Fatalf("Push(+Inf) err = %v, want ErrNonFinite", err)
	}
	// The stream is not poisoned: finite points still flow.
	if err := s.Push(corrupted[0]); err != nil {
		t.Fatalf("finite push after rejection: %v", err)
	}
}

// TestStreamNonFiniteClamp: clamped non-finite points behave exactly as
// if the last finite value had been sent — bit-identical events and
// rankings versus a stream fed the manually repaired series.
func TestStreamNonFiniteClamp(t *testing.T) {
	corrupted, injected := nonFiniteSeries()
	repaired := append([]float64(nil), corrupted...)
	for _, i := range injected {
		repaired[i] = repaired[i-1] // injection never hits index 0
	}

	var got, want []egi.Anomaly
	opts := egi.StreamOptions{Window: 80, Seed: 42, NonFinite: egi.NonFiniteClamp,
		OnAnomaly: func(a egi.Anomaly) { got = append(got, a) }}
	s, err := egi.Stream(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.NonFinite = egi.NonFiniteReject
	opts.OnAnomaly = func(a egi.Anomaly) { want = append(want, a) }
	ref, err := egi.Stream(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PushBatch(corrupted); err != nil {
		t.Fatalf("clamping stream rejected the batch: %v", err)
	}
	if err := ref.PushBatch(repaired); err != nil {
		t.Fatal(err)
	}
	if s.Total() != ref.Total() {
		t.Fatalf("Total = %d, want %d", s.Total(), ref.Total())
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d events with clamping, %d with the repaired series", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestStreamNonFiniteDrop: dropped points vanish — the stream is
// bit-identical to one fed only the finite points, including leading
// non-finite points before any finite value has arrived.
func TestStreamNonFiniteDrop(t *testing.T) {
	corrupted, _ := nonFiniteSeries()
	// Lead with garbage: drop must discard these too (clamp has nothing
	// to hold yet and also drops them; reject would fail).
	corrupted = append([]float64{math.NaN(), math.Inf(-1)}, corrupted...)
	var finite []float64
	for _, x := range corrupted {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			finite = append(finite, x)
		}
	}

	var got, want []egi.Anomaly
	opts := egi.StreamOptions{Window: 80, Seed: 42, NonFinite: egi.NonFiniteDrop,
		OnAnomaly: func(a egi.Anomaly) { got = append(got, a) }}
	s, err := egi.Stream(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.NonFinite = egi.NonFiniteReject
	opts.OnAnomaly = func(a egi.Anomaly) { want = append(want, a) }
	ref, err := egi.Stream(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PushBatch(corrupted); err != nil {
		t.Fatalf("dropping stream rejected the batch: %v", err)
	}
	if err := ref.PushBatch(finite); err != nil {
		t.Fatal(err)
	}
	if s.Total() != ref.Total() {
		t.Fatalf("Total = %d (dropped points counted?), want %d", s.Total(), ref.Total())
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d events with dropping, %d with the finite-only series", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestManagerNonFinite: the policy flows through the manager template,
// and PushBatchN reports the applied prefix on a rejection — the
// manager-level contract egiserve's "accepted" field relies on.
func TestManagerNonFinite(t *testing.T) {
	corrupted, injected := nonFiniteSeries()
	m, err := egi.NewManager(egi.ManagerOptions{
		Stream: egi.StreamOptions{Window: 80, Seed: 42}, // reject by default
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	n, err := m.PushBatchN("s", corrupted)
	if !errors.Is(err, egi.ErrNonFinite) {
		t.Fatalf("PushBatchN err = %v, want ErrNonFinite", err)
	}
	if n != injected[0] {
		t.Fatalf("accepted %d, want %d", n, injected[0])
	}
	st, err := m.StreamStats("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != int64(injected[0]) {
		t.Fatalf("stats.Points = %d, want %d", st.Points, injected[0])
	}

	// With a dropping template the same batch is consumed in full.
	md, err := egi.NewManager(egi.ManagerOptions{
		Stream: egi.StreamOptions{Window: 80, Seed: 42, NonFinite: egi.NonFiniteDrop},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer md.Close()
	n, err = md.PushBatchN("s", corrupted)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(corrupted) {
		t.Fatalf("dropping manager consumed %d of %d", n, len(corrupted))
	}
	st, err = md.StreamStats("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != int64(len(corrupted)-len(injected)) {
		t.Fatalf("stats.Points = %d, want %d kept points", st.Points, len(corrupted)-len(injected))
	}
}
