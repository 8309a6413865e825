package stream

import (
	"math"
	"math/rand"
	"testing"

	"egi/internal/core"
	"egi/internal/engine"
	"egi/internal/timeseries"
)

// sineSeries builds a noisy sine with triangular pulses planted at the
// given positions, each one period long.
func sineSeries(length, period int, seed int64, planted ...int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, length)
	for i := range s {
		s[i] = math.Sin(2*math.Pi*float64(i)/float64(period)) + 0.1*rng.NormFloat64()
	}
	for _, p := range planted {
		for i := p; i < p+period && i < length; i++ {
			x := float64(i-p) / float64(period)
			s[i] = 1.5 - 3*math.Abs(x-0.5) + 0.1*rng.NormFloat64()
		}
	}
	return s
}

// overlaps reports whether [pos, pos+n) intersects [p, p+n).
func overlaps(pos, p, n int) bool { return pos < p+n && p < pos+n }

// TestSingleRunMatchesDetect: a stream whose buffer never overflows is,
// after Flush, byte-identical to batch core.Detect — same curve, same
// ranked anomalies, same densities.
func TestSingleRunMatchesDetect(t *testing.T) {
	const period = 50
	series := sineSeries(1500, period, 7, 700)

	cfg := Config{Window: period, BufLen: len(series), EnsembleSize: 12, Seed: 42}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range series {
		if err := d.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	batch, err := core.Detect(timeseries.Series(series), core.Config{
		Window: period, Size: 12, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}

	start, curve := d.Curve()
	if start != 0 {
		t.Fatalf("curve start = %d, want 0", start)
	}
	if len(curve) != len(batch.Curve) {
		t.Fatalf("curve length %d, want %d", len(curve), len(batch.Curve))
	}
	for i := range curve {
		if curve[i] != batch.Curve[i] {
			t.Fatalf("curve[%d] = %v, batch %v", i, curve[i], batch.Curve[i])
		}
	}

	got, err := d.Anomalies()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch.Candidates) {
		t.Fatalf("got %d anomalies, batch %d", len(got), len(batch.Candidates))
	}
	for i, g := range got {
		b := batch.Candidates[i]
		if g.Pos != b.Pos || g.Length != b.Length || g.Density != b.Density {
			t.Errorf("anomaly %d: got %+v, batch %+v", i, g, b)
		}
	}
}

// TestDefaultHopMatchesDetectChunked: with the default hop the stitched
// retained curve equals the corresponding suffix of the batch
// chunk-and-stitch oracle's curve bit-for-bit, for several stream lengths
// including exact chunk multiples and short tails.
func TestDefaultHopMatchesDetectChunked(t *testing.T) {
	const (
		period = 40
		bufLen = 400
	)
	hop := bufLen - period + 1
	for _, length := range []int{
		bufLen + 3*hop,          // last chunk ends exactly at the stream end
		bufLen + 3*hop + 1,      // 1-point tail (shorter than a window)
		bufLen + 2*hop + hop/2,  // mid-chunk tail
		bufLen + 2*hop + period, // tail exactly one window long
	} {
		series := sineSeries(length, period, 11, 600, length-3*period)
		d, err := New(Config{Window: period, BufLen: bufLen, EnsembleSize: 10, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.PushBatch(series); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}

		chunked, _, err := DetectChunkedOracle(series, engine.Config{
			Window: period, Size: 10, Seed: 5,
		}, bufLen)
		if err != nil {
			t.Fatal(err)
		}

		start, curve := d.Curve()
		if start < 0 || start+len(curve) != length {
			t.Fatalf("len=%d: retained [%d, %d), want suffix of [0, %d)",
				length, start, start+len(curve), length)
		}
		for i, v := range curve {
			if v != chunked[start+i] {
				t.Fatalf("len=%d: curve[%d] = %v, chunked %v", length, start+i, v, chunked[start+i])
			}
		}
	}
}

// TestEventsFindPlantedAnomalies: anomalies planted mid-stream (and long
// since scrolled out of the buffer) are reported as events, and no burst
// of spurious events drowns them.
func TestEventsFindPlantedAnomalies(t *testing.T) {
	const period = 50
	planted := []int{1300, 4200, 7100}
	series := sineSeries(10000, period, 3, planted...)

	var events []Event
	d, err := New(Config{
		Window:       period,
		BufLen:       600,
		EnsembleSize: 10,
		Seed:         9,
		OnEvent:      func(e Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PushBatch(series); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, p := range planted {
		found := false
		for _, e := range events {
			if overlaps(e.Pos, p, period) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("planted anomaly at %d not covered by any event %v", p, events)
		}
	}
	if len(events) > 3*len(planted) {
		t.Errorf("too many events (%d) for %d planted anomalies: %v", len(events), len(planted), events)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Pos <= events[i-1].Pos {
			t.Errorf("events out of stream order: %v", events)
		}
	}
}

// TestEventsConfirmBeforeFlush: events for anomalies that scrolled far out
// of the buffer arrive during Push, not only at Flush.
func TestEventsConfirmBeforeFlush(t *testing.T) {
	const period = 50
	series := sineSeries(8000, period, 3, 1000)

	var early []Event
	d, err := New(Config{
		Window:       period,
		BufLen:       600,
		EnsembleSize: 10,
		Seed:         9,
		OnEvent:      func(e Event) { early = append(early, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PushBatch(series); err != nil {
		t.Fatal(err)
	}
	if len(early) == 0 {
		t.Fatal("no events before Flush")
	}
	if !overlaps(early[0].Pos, 1000, period) {
		t.Errorf("first pre-flush event %+v does not cover the planted anomaly at 1000", early[0])
	}
}

// TestBoundedMemory: the stitched region and ring buffer never exceed
// their documented bounds no matter how long the stream runs.
func TestBoundedMemory(t *testing.T) {
	const (
		period = 20
		bufLen = 100
	)
	d, err := New(Config{Window: period, BufLen: bufLen, EnsembleSize: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50*bufLen; i++ {
		if err := d.Push(math.Sin(float64(i)/7) + 0.2*rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
		if got := len(d.sum); got > bufLen+period-1 {
			t.Fatalf("after %d points the stitched region holds %d entries, bound is %d",
				i+1, got, bufLen+period-1)
		}
		if _, curve := d.Curve(); len(curve) > bufLen+period-1 {
			t.Fatalf("retained curve %d entries, bound is %d", len(curve), bufLen+period-1)
		}
	}
}

// TestSmallHop: a hop much smaller than the buffer re-induces more often
// but still finds the planted anomaly and keeps memory bounded.
func TestSmallHop(t *testing.T) {
	const period = 40
	series := sineSeries(2000, period, 13, 900)
	var events []Event
	d, err := New(Config{
		Window:       period,
		BufLen:       400,
		Hop:          80,
		EnsembleSize: 8,
		Seed:         2,
		OnEvent:      func(e Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PushBatch(series); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range events {
		if overlaps(e.Pos, 900, period) {
			found = true
		}
	}
	if !found {
		t.Errorf("hop=80: planted anomaly at 900 not covered by events %v", events)
	}
	if got := len(d.sum); got > 400+period-1 {
		t.Errorf("stitched region %d entries, bound is %d", got, 400+period-1)
	}
}

// TestPushBatchEqualsPush: batching is just a loop — identical curve and
// events either way.
func TestPushBatchEqualsPush(t *testing.T) {
	const period = 30
	series := sineSeries(1200, period, 21, 500)
	mk := func() (*Detector, *[]Event) {
		var evs []Event
		d, err := New(Config{
			Window: period, BufLen: 150, EnsembleSize: 6, Seed: 3,
			OnEvent: func(e Event) { evs = append(evs, e) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return d, &evs
	}
	a, evA := mk()
	for _, x := range series {
		if err := a.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	b, evB := mk()
	if err := b.PushBatch(series); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	sa, ca := a.Curve()
	sb, cb := b.Curve()
	if sa != sb || len(ca) != len(cb) {
		t.Fatalf("curve spans differ: [%d,+%d) vs [%d,+%d)", sa, len(ca), sb, len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("curve[%d] differs: %v vs %v", i, ca[i], cb[i])
		}
	}
	if len(*evA) != len(*evB) {
		t.Fatalf("event counts differ: %d vs %d", len(*evA), len(*evB))
	}
	for i := range *evA {
		if (*evA)[i] != (*evB)[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, (*evA)[i], (*evB)[i])
		}
	}
}

// TestDeterministicAcrossRuns: equal seeds give identical events and
// curves across runs and parallelism settings.
func TestDeterministicAcrossRuns(t *testing.T) {
	const period = 30
	series := sineSeries(1500, period, 17, 600)
	run := func(parallelism int) ([]Event, []float64) {
		var evs []Event
		d, err := New(Config{
			Window: period, BufLen: 300, EnsembleSize: 8, Seed: 6,
			Parallelism: parallelism,
			OnEvent:     func(e Event) { evs = append(evs, e) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.PushBatch(series); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		_, curve := d.Curve()
		return evs, curve
	}
	ev1, c1 := run(1)
	ev2, c2 := run(8)
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("curve[%d] differs: %v vs %v", i, c1[i], c2[i])
		}
	}
}

// TestFlushShortStream: a stream shorter than one window cannot produce a
// ranking; one between a window and the buffer length can.
func TestFlushShortStream(t *testing.T) {
	d, err := New(Config{Window: 20, BufLen: 100, EnsembleSize: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Push(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Anomalies(); err == nil {
		t.Error("Anomalies on a sub-window stream should error")
	}

	series := sineSeries(60, 20, 5)
	d2, err := New(Config{Window: 20, BufLen: 100, EnsembleSize: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.PushBatch(series); err != nil {
		t.Fatal(err)
	}
	if err := d2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Anomalies(); err != nil {
		t.Errorf("Anomalies on a 60-point flushed stream: %v", err)
	}
}

func TestConfigAndInputErrors(t *testing.T) {
	bad := []Config{
		{Window: 1},                              // window too small
		{Window: 50, BufLen: 100},                // buffer < 4x window
		{Window: 10, BufLen: 100, Hop: 92},       // hop > buflen-window+1
		{Window: 10, BufLen: 100, Hop: -1},       // negative hop
		{Window: 10, BufLen: 100, Threshold: 2},  // threshold out of range
		{Window: 10, BufLen: 100, Tau: 1.5},      // ensemble knob out of range
		{Window: 10, BufLen: 100, AMax: 99},      // alphabet beyond sax.MaxAlphabet
		{Window: 10, BufLen: 100, TopK: -1},      // bad topK
		{Window: 10, BufLen: 100, Threshold: -3}, // negative threshold
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}

	d, err := New(Config{Window: 10, BufLen: 100, EnsembleSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Push(math.NaN()); err == nil {
		t.Error("NaN push should error")
	}
	if err := d.Push(math.Inf(1)); err == nil {
		t.Error("Inf push should error")
	}
	if err := d.Push(1.0); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Errorf("second Flush should be a no-op, got %v", err)
	}
	if err := d.Push(2.0); err == nil {
		t.Error("push after Flush should error")
	}
}

// TestConstantStream: a constant stream has no usable curves anywhere;
// runs must not fail, no events fire, and the stitched curve is zero.
func TestConstantStream(t *testing.T) {
	var events []Event
	d, err := New(Config{
		Window: 10, BufLen: 50, EnsembleSize: 4, Seed: 1,
		OnEvent: func(e Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := d.Push(3.25); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	_, curve := d.Curve()
	for i, v := range curve {
		if v != 0 {
			t.Fatalf("constant stream curve[%d] = %v, want 0", i, v)
		}
	}
	// Zero density is "unexplained by any rule": the whole stream is one
	// dip, emitted once at Flush.
	if len(events) != 1 {
		t.Errorf("constant stream emitted %d events, want 1: %v", len(events), events)
	}
}
