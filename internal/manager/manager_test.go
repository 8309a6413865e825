package manager

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"egi/internal/stream"
)

// sineSeries builds a noisy sine with triangular pulses planted at the
// given positions, each one period long (the stream tests' fixture).
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

// fakeClock is an injectable manual clock.
type fakeClock struct{ nanos atomic.Int64 }

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.nanos.Add(int64(d)) }

// testStreamConfig is a small, fast detector configuration shared by the
// tests; Seed fixed so direct-detector comparisons are exact.
func testStreamConfig() stream.Config {
	return stream.Config{Window: 40, BufLen: 320, EnsembleSize: 8, Seed: 11}
}

// directEvents runs a plain detector over the series (plus Flush when
// flush is set) and returns its events — the ground truth a managed
// stream's delivered events must match exactly.
func directEvents(t *testing.T, cfg stream.Config, series []float64, flush bool) []stream.Event {
	t.Helper()
	var out []stream.Event
	cfg.OnEvent = func(e stream.Event) { out = append(out, e) }
	d, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PushBatch(series); err != nil {
		t.Fatal(err)
	}
	if flush {
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// collect receives events from ch into a per-stream map until the channel
// closes, signalling done.
func collect(ch <-chan Event) (map[string][]stream.Event, chan struct{}) {
	got := map[string][]stream.Event{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range ch {
			got[ev.Stream] = append(got[ev.Stream], ev.Anomaly)
		}
	}()
	return got, done
}

func eventsEqual(a, b []stream.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEventsMatchDirectDetector: events delivered through the manager's
// subscription are identical — position, length, density, order — to a
// plain detector fed the same points, for several independent streams, and
// Close (flush) delivers the same tail a direct Flush would.
func TestEventsMatchDirectDetector(t *testing.T) {
	cfg := testStreamConfig()
	m, err := New(Config{Stream: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := m.Subscribe("", 64)
	defer cancel()
	got, done := collect(ch)

	const nStreams = 5
	want := map[string][]stream.Event{}
	for i := 0; i < nStreams; i++ {
		id := fmt.Sprintf("s%d", i)
		series := sineSeries(2000, 40, int64(100+i), 700+40*i, 1500)
		want[id] = directEvents(t, cfg, series, true)
		if _, err := m.PushBatchN(id, series); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	for id, w := range want {
		if !eventsEqual(got[id], w) {
			t.Errorf("%s: managed events %v != direct events %v", id, got[id], w)
		}
		if len(w) == 0 {
			t.Errorf("%s: fixture produced no events; test is vacuous", id)
		}
	}
}

// TestEvictionLosesNoConfirmedEvents: a stream evicted mid-hop — points
// pushed past the last re-induction, eviction before the next — delivers
// every event already confirmed before eviction, and its flush-on-evict
// tail equals a direct detector's Flush tail at the same point. Nothing
// already emitted is lost or changed.
func TestEvictionLosesNoConfirmedEvents(t *testing.T) {
	cfg := testStreamConfig()
	clk := &fakeClock{}
	m, err := New(Config{Stream: cfg, IdleAfter: time.Minute, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ch, cancel := m.Subscribe("victim", 64)
	defer cancel()
	got, done := collect(ch)

	// Cut mid-hop: 2.5 buffers plus a third of a hop.
	series := sineSeries(3*320, 40, 7, 400, 600)
	cut := 2*320 + 160 + 93
	if _, err := m.PushBatchN("victim", series[:cut]); err != nil {
		t.Fatal(err)
	}

	confirmedBefore, evErr := func() (int64, error) {
		st, err := m.StreamStats("victim")
		return st.Events, err
	}()
	if evErr != nil {
		t.Fatal(evErr)
	}
	if confirmedBefore == 0 {
		t.Fatal("no events confirmed before eviction; pick a longer prefix")
	}

	clk.Advance(2 * time.Minute)
	stats := m.EvictIdle()
	if len(stats) != 1 || stats[0].ID != "victim" {
		t.Fatalf("EvictIdle = %+v, want exactly the victim", stats)
	}
	if m.Len() != 0 {
		t.Fatalf("victim still live after eviction")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	want := directEvents(t, cfg, series[:cut], true)
	if !eventsEqual(got["victim"], want) {
		t.Fatalf("evicted stream delivered %v, want %v", got["victim"], want)
	}
	if int64(len(want)) < confirmedBefore {
		t.Fatalf("events shrank: %d confirmed before eviction, %d delivered", confirmedBefore, len(want))
	}
	if stats[0].Events != int64(len(want)) {
		t.Fatalf("evicted stats count %d events, %d delivered", stats[0].Events, len(want))
	}
}

// TestMaxStreamsRejectsWithoutIdle: at the stream cap with nothing idle,
// opening another stream is rejected with ErrTooManyStreams and the live
// streams keep working — the limit rejects, it does not corrupt.
func TestMaxStreamsRejectsWithoutIdle(t *testing.T) {
	cfg := testStreamConfig()
	clk := &fakeClock{}
	m, err := New(Config{Stream: cfg, MaxStreams: 2, IdleAfter: time.Minute, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Advance the clock between pushes so every stream has a distinct
	// last-push time ("b" becomes the LRU one below).
	series := sineSeries(400, 40, 3)
	if _, err := m.PushBatchN("b", series); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := m.PushBatchN("a", series); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := m.PushBatchN("c", []float64{1.0}); !errors.Is(err, ErrTooManyStreams) {
		t.Fatalf("third stream: err = %v, want ErrTooManyStreams", err)
	}
	// The rejected id left no trace, and the live streams still accept.
	if _, err := m.StreamStats("c"); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("rejected stream exists: %v", err)
	}
	if _, err := m.PushBatchN("a", series); err != nil {
		t.Fatalf("live stream corrupted by rejected open: %v", err)
	}
	clk.Advance(2 * time.Minute)
	if _, err := m.PushBatchN("c", []float64{1.0}); err != nil {
		t.Fatalf("open after idle: %v", err)
	}
	if _, err := m.StreamStats("b"); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("LRU eviction kept b: %v", err)
	}
	if _, err := m.StreamStats("a"); err != nil {
		t.Fatalf("LRU eviction took the wrong stream: %v", err)
	}
}

// TestMaxBytesRejectsAndEvicts: a byte budget too small for two streams
// rejects the second stream's pushes while the first is busy, then admits
// them by evicting the first once it goes idle; the rolled-up total drops
// accordingly.
func TestMaxBytesRejectsAndEvicts(t *testing.T) {
	cfg := testStreamConfig()
	clk := &fakeClock{}
	series := sineSeries(2000, 40, 5)

	// Size the budget from a warmed-up single stream: 1.5x one stream's
	// plateau fits one stream comfortably but never two.
	probe, err := New(Config{Stream: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.PushBatchN("p", series); err != nil {
		t.Fatal(err)
	}
	budget := probe.TotalBytes() + probe.TotalBytes()/2
	probe.Close()

	m, err := New(Config{Stream: cfg, MaxBytes: budget, IdleAfter: time.Minute, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if _, err := m.PushBatchN("a", series); err != nil {
		t.Fatal(err)
	}
	// Warm "b" to the point where the pair exceeds the budget; the push
	// that crosses is rejected (a is not idle), with nothing corrupted.
	var rejected bool
	for i := 0; i < len(series); i += 100 {
		_, err := m.PushBatchN("b", series[i:i+100])
		if errors.Is(err, ErrOverBudget) {
			rejected = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second) // keep both streams recently pushed
	}
	if !rejected {
		t.Fatalf("budget %d never rejected a push; total %d", budget, m.TotalBytes())
	}
	if m.Len() != 2 {
		t.Fatalf("rejection corrupted the stream set: %d live", m.Len())
	}

	// Let "a" go idle: the next over-budget push evicts it and succeeds.
	clk.Advance(2 * time.Minute)
	if _, err := m.PushBatchN("b", series[:100]); err != nil {
		t.Fatalf("push after idle eviction: %v", err)
	}
	if _, err := m.StreamStats("a"); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("a not evicted for budget: %v", err)
	}
	if got := m.TotalBytes(); got > budget {
		t.Fatalf("total %d still over budget %d after eviction", got, budget)
	}
	if st := m.Stats(); st.Evicted != 1 {
		t.Fatalf("Evicted = %d, want 1", st.Evicted)
	}
}

// TestConcurrentCreationRespectsBudget: many producers racing to create
// new streams under a budget that fits only a few must not collectively
// overshoot it — admission is atomic, the rest are rejected cleanly.
func TestConcurrentCreationRespectsBudget(t *testing.T) {
	cfg := testStreamConfig()
	// Budget sized from one fresh detector: room for ~3 of them.
	probe, err := New(Config{Stream: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.PushBatchN("p", []float64{1}); err != nil {
		t.Fatal(err)
	}
	one := probe.TotalBytes()
	probe.Close()
	budget := 3*one + one/2

	m, err := New(Config{Stream: cfg, MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var wg sync.WaitGroup
	var admitted, rejected atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, err := m.PushBatchN(fmt.Sprintf("s%d", g), []float64{1})
			switch {
			case err == nil:
				admitted.Add(1)
			case errors.Is(err, ErrOverBudget):
				rejected.Add(1)
			default:
				t.Errorf("s%d: unexpected error %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if got := m.TotalBytes(); got > budget {
		t.Fatalf("concurrent creation overshot: %d > budget %d", got, budget)
	}
	if admitted.Load() == 0 || rejected.Load() == 0 {
		t.Fatalf("admitted %d, rejected %d; budget %d did not bite both ways", admitted.Load(), rejected.Load(), budget)
	}
	if int(admitted.Load()) != m.Len() {
		t.Fatalf("admitted %d but %d live", admitted.Load(), m.Len())
	}
}

// TestAccountingConsistency: the manager total equals the sum of the
// per-stream footprints, before and after closes, and reaches zero when
// the last stream leaves.
func TestAccountingConsistency(t *testing.T) {
	cfg := testStreamConfig()
	m, err := New(Config{Stream: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("s%d", i)
		if _, err := m.PushBatchN(id, sineSeries(500+137*i, 40, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	var sum int64
	for _, s := range st.Streams {
		if s.MemoryBytes <= 0 {
			t.Fatalf("%s: footprint %d, want > 0", s.ID, s.MemoryBytes)
		}
		sum += s.MemoryBytes
	}
	if st.TotalBytes != sum {
		t.Fatalf("TotalBytes %d != sum of stream footprints %d", st.TotalBytes, sum)
	}
	for _, s := range st.Streams {
		if _, err := m.CloseStream(s.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.TotalBytes(); got != 0 {
		t.Fatalf("TotalBytes %d after closing every stream, want 0", got)
	}
}

// TestSubscribeFilter: a per-stream subscriber sees exactly its stream's
// events while a global subscriber sees everything.
func TestSubscribeFilter(t *testing.T) {
	cfg := testStreamConfig()
	m, err := New(Config{Stream: cfg})
	if err != nil {
		t.Fatal(err)
	}
	chA, cancelA := m.Subscribe("a", 64)
	defer cancelA()
	chAll, cancelAll := m.Subscribe("", 64)
	defer cancelAll()
	gotA, doneA := collect(chA)
	gotAll, doneAll := collect(chAll)

	seriesA := sineSeries(2000, 40, 101, 740, 1500)
	seriesB := sineSeries(2000, 40, 102, 780, 1500)
	if _, err := m.PushBatchN("a", seriesA); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PushBatchN("b", seriesB); err != nil {
		t.Fatal(err)
	}
	m.Close()
	<-doneA
	<-doneAll

	if len(gotA["b"]) != 0 {
		t.Fatalf("per-stream subscriber leaked %d events of b", len(gotA["b"]))
	}
	if !eventsEqual(gotA["a"], gotAll["a"]) {
		t.Fatalf("filtered view %v != global view %v for a", gotA["a"], gotAll["a"])
	}
	if len(gotAll["a"]) == 0 || len(gotAll["b"]) == 0 {
		t.Fatalf("fixtures produced no events (a=%d b=%d); test is vacuous", len(gotAll["a"]), len(gotAll["b"]))
	}
}

// TestConcurrentPushers: many goroutines hammer disjoint and shared
// streams while a subscriber consumes and an evictor sweeps — the race
// detector is the assertion, plus conservation: delivered events per
// stream never exceed confirmed counts and all deliveries are in order.
func TestConcurrentPushers(t *testing.T) {
	cfg := testStreamConfig()
	clk := &fakeClock{}
	m, err := New(Config{Stream: cfg, MaxStreams: 8, IdleAfter: time.Hour, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := m.Subscribe("", 1024)
	defer cancel()

	ordered := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := map[string]int{}
		for ev := range ch {
			if prev, ok := last[ev.Stream]; ok && ev.Anomaly.Pos < prev {
				select {
				case ordered <- fmt.Errorf("%s: event pos %d after %d", ev.Stream, ev.Anomaly.Pos, prev):
				default:
				}
			}
			last[ev.Stream] = ev.Anomaly.Pos
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("s%d", g%4) // four streams, two producers each
			series := sineSeries(1200, 40, int64(g%4), 600)
			for i := 0; i < len(series); i += 60 {
				if _, err := m.PushBatchN(id, series[i:i+60]); err != nil {
					t.Errorf("%s: %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	select {
	case err := <-ordered:
		t.Fatal(err)
	default:
	}
}

// TestClosedManager: every operation after Close fails cleanly.
func TestClosedManager(t *testing.T) {
	m, err := New(Config{Stream: testStreamConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := m.PushBatchN("x", []float64{1}); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("Push after Close: %v", err)
	}
	if err := m.OpenStream("x", Overrides{}); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("Open after Close: %v", err)
	}
	if _, err := m.CloseStream("x"); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("CloseStream after Close: %v", err)
	}
	ch, cancel := m.Subscribe("", 1)
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("subscription to closed manager delivered an event")
	}
}

// TestBadConfig: template and limit validation happens at construction.
func TestBadConfig(t *testing.T) {
	if _, err := New(Config{Stream: stream.Config{Window: 1}}); err == nil {
		t.Fatal("bad stream template accepted")
	}
	if _, err := New(Config{Stream: testStreamConfig(), MaxStreams: -1}); err == nil {
		t.Fatal("negative MaxStreams accepted")
	}
	if _, err := New(Config{Stream: testStreamConfig(), MaxBytes: -1}); err == nil {
		t.Fatal("negative MaxBytes accepted")
	}
	cfg := testStreamConfig()
	cfg.OnEvent = func(stream.Event) {}
	if _, err := New(Config{Stream: cfg}); err == nil {
		t.Fatal("template with OnEvent accepted")
	}
}

// TestCloseWaitsForRacingEviction: EvictIdle detaches streams under
// createMu but flushes and drains them after releasing it, so a Close
// that runs in between must still let those flushed tail events reach
// subscribers before it closes the broker. The subscriber is held back
// until Close has had ample time to finish, so an early broker close
// would abandon the blocked deliveries.
func TestCloseWaitsForRacingEviction(t *testing.T) {
	cfg := testStreamConfig()
	clk := &fakeClock{}
	m, err := New(Config{Stream: cfg, IdleAfter: time.Minute, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]stream.Event{}
	tails := 0
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("s%d", i)
		series := sineSeries(1000, 40, int64(1+i), 800)
		if _, err := m.PushBatchN(id, series); err != nil {
			t.Fatal(err)
		}
		pushed := len(directEvents(t, cfg, series, false))
		want[id] = directEvents(t, cfg, series, true)[pushed:]
		tails += len(want[id])
	}
	if tails < 2 {
		t.Fatalf("fixtures flush %d tail events; need at least 2 to fill the subscription", tails)
	}

	// Subscribed after the pushes, so only the flush tails are delivered.
	ch, cancel := m.Subscribe("", 1)
	defer cancel()
	release := make(chan struct{})
	got := map[string][]stream.Event{}
	received := make(chan struct{})
	go func() {
		defer close(received)
		<-release
		for ev := range ch {
			got[ev.Stream] = append(got[ev.Stream], ev.Anomaly)
		}
	}()

	clk.Advance(time.Hour)
	evicted := make(chan []StreamStats, 1)
	go func() { evicted <- m.EvictIdle() }()
	for m.Len() > 0 { // every stream detached; their retirement is pending
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- m.Close() }()
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if n := len(<-evicted); n != 3 {
		t.Fatalf("EvictIdle evicted %d streams, want 3", n)
	}
	<-received
	for id, w := range want {
		if !eventsEqual(got[id], w) {
			t.Fatalf("%s: delivered flush tail %+v, want %+v", id, got[id], w)
		}
	}
}
