package egi_test

import (
	"errors"
	"sync"
	"testing"

	"egi"
)

// collect subscribes to one stream id and gathers its events until the
// subscription closes; wait blocks until then and returns them.
func collect(m *egi.Manager, id string) (wait func() []egi.Anomaly) {
	events, _ := m.Subscribe(id, 0)
	var got []egi.Anomaly
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			got = append(got, ev.Anomaly)
		}
	}()
	return func() []egi.Anomaly { <-done; return got }
}

// TestConcurrentStreamFanIn: one stream id on a Manager is how many
// producers share a detector. Eight producers push atomic batches into
// it; every point lands, events arrive on the subscription in stream
// order, CloseStream delivers the final events, and the stream stays
// readable while producers run. Run under -race this also proves the
// locking.
func TestConcurrentStreamFanIn(t *testing.T) {
	series := quickstartSeries()
	const producers = 8

	m, err := egi.NewManager(egi.ManagerOptions{Stream: egi.StreamOptions{
		Window: 80,
		BufLen: 800,
		Seed:   42,
	}})
	if err != nil {
		t.Fatal(err)
	}
	wait := collect(m, "shared")

	// Each producer pushes a contiguous slice as atomic batches, so the
	// interleaving across producers is arbitrary but every point arrives.
	var wg sync.WaitGroup
	chunk := (len(series) + producers - 1) / producers
	for lo := 0; lo < len(series); lo += chunk {
		wg.Add(1)
		go func(xs []float64) {
			defer wg.Done()
			for len(xs) > 0 {
				k := min(16, len(xs))
				if err := m.PushBatch("shared", xs[:k]); err != nil {
					t.Errorf("PushBatch: %v", err)
					return
				}
				xs = xs[k:]
			}
		}(series[lo:min(lo+chunk, len(series))])
	}
	wg.Wait()
	if st, err := m.StreamStats("shared"); err != nil || st.Points != int64(len(series)) {
		t.Fatalf("StreamStats = %+v, %v; want %d points", st, err, len(series))
	}
	if _, err := m.Anomalies("shared"); err != nil {
		t.Fatalf("Anomalies while live: %v", err)
	}
	final, err := m.CloseStream("shared")
	if err != nil || final.Points != int64(len(series)) {
		t.Fatalf("CloseStream = %+v, %v; want %d points", final, err, len(series))
	}
	if _, err := m.StreamStats("shared"); !errors.Is(err, egi.ErrUnknownStream) {
		t.Errorf("closed stream still visible: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	events := wait()

	if final.Events == 0 || int64(len(events)) != final.Events {
		t.Fatalf("%d events delivered, %d confirmed by CloseStream", len(events), final.Events)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Pos <= events[i-1].Pos {
			t.Errorf("events out of stream order: %+v after %+v", events[i], events[i-1])
		}
	}
}

// TestConcurrentStreamMatchesSequential: a single producer through a
// Manager stream id is bit-identical to a plain Streamer, including the
// flush-on-close tail — sharing adds locking and a channel, not
// semantics.
func TestConcurrentStreamMatchesSequential(t *testing.T) {
	series := quickstartSeries()
	opts := egi.StreamOptions{Window: 80, BufLen: 800, Seed: 7}

	m, err := egi.NewManager(egi.ManagerOptions{Stream: opts})
	if err != nil {
		t.Fatal(err)
	}
	wait := collect(m, "solo")
	if err := m.PushBatch("solo", series); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CloseStream("solo"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	concEvents := wait()

	var seqEvents []egi.Anomaly
	seqOpts := opts
	seqOpts.OnAnomaly = func(a egi.Anomaly) { seqEvents = append(seqEvents, a) }
	s, err := egi.Stream(seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PushBatch(series); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	if len(seqEvents) == 0 {
		t.Fatal("fixture produced no events; test is vacuous")
	}
	if len(concEvents) != len(seqEvents) {
		t.Fatalf("%d events shared, %d sequential", len(concEvents), len(seqEvents))
	}
	for i := range concEvents {
		if concEvents[i] != seqEvents[i] {
			t.Fatalf("event %d: %+v vs %+v", i, concEvents[i], seqEvents[i])
		}
	}
}

// TestConcurrentStreamRejectsCallback: OnAnomaly and the subscription
// cannot both be delivery paths, on either constructor of a shared
// stream.
func TestConcurrentStreamRejectsCallback(t *testing.T) {
	opts := egi.ManagerOptions{Stream: egi.StreamOptions{
		Window:    80,
		OnAnomaly: func(egi.Anomaly) {},
	}}
	if _, err := egi.NewManager(opts); !errors.Is(err, egi.ErrManagerCallback) {
		t.Errorf("NewManager: %v, want ErrManagerCallback", err)
	}
	if _, err := egi.NewShardedManager(3, opts); !errors.Is(err, egi.ErrManagerCallback) {
		t.Errorf("NewShardedManager: %v, want ErrManagerCallback", err)
	}
}
