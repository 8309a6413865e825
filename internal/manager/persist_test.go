package manager

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"egi/internal/stream"
)

// collector gathers subscribed events in the background so pushes never
// block on the broker. stop works whether or not the manager ever closes
// (an abandoned "crashed" manager never closes its subscriber channels).
type collector struct {
	mu     sync.Mutex
	events []Event
	cancel func()
	quit   chan struct{}
	done   chan struct{}
}

// openDurable creates a durable manager over dir plus a background global
// subscriber.
func openDurable(t *testing.T, dir string, snapEvery int) (*Manager, *collector) {
	t.Helper()
	m, err := New(Config{
		Stream:        testStreamConfig(),
		DataDir:       dir,
		SnapshotEvery: snapEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, attachCollector(m)
}

// attachCollector subscribes a background global collector to m.
func attachCollector(m *Manager) *collector {
	c := &collector{quit: make(chan struct{}), done: make(chan struct{})}
	ch, cancel := m.Subscribe("", 64)
	c.cancel = cancel
	go func() {
		defer close(c.done)
		add := func(ev Event) {
			c.mu.Lock()
			c.events = append(c.events, ev)
			c.mu.Unlock()
		}
		for {
			select {
			case ev, ok := <-ch:
				if !ok {
					return
				}
				add(ev)
			case <-c.quit:
				for { // drain what the broker already buffered
					select {
					case ev, ok := <-ch:
						if !ok {
							return
						}
						add(ev)
					default:
						return
					}
				}
			}
		}
	}()
	return c
}

func (c *collector) stop() []Event {
	c.cancel()
	close(c.quit)
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

// dedup removes exact-duplicate events (the footprint of at-least-once
// redelivery across a crash) while preserving order.
func dedup(events []Event) []Event {
	seen := map[Event]bool{}
	var out []Event
	for _, ev := range events {
		if !seen[ev] {
			seen[ev] = true
			out = append(out, ev)
		}
	}
	return out
}

// liveSegment finds the one stream's live WAL segment file under dir.
func liveSegment(t *testing.T, dir string) string {
	t.Helper()
	streams, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	var newestFrom int = -1
	for _, sd := range streams {
		if !sd.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, sd.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			name := f.Name()
			if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
				var from int
				if _, err := fmt.Sscanf(name, "wal-%d.log", &from); err != nil {
					continue
				}
				if from > newestFrom {
					newestFrom = from
					newest = filepath.Join(dir, sd.Name(), name)
				}
			}
		}
	}
	if newest == "" {
		t.Fatal("no live WAL segment found")
	}
	return newest
}

// TestCrashRecoveryBitIdentical is the PR's acceptance property: kill the
// process at an arbitrary WAL byte offset (simulated by truncating the
// live segment at a random point), restart the manager over the same data
// directory, resend the tail the server reports as unapplied — and the
// events that come out are bit-identical to a manager that never crashed,
// modulo exact-duplicate redelivery (at-least-once across the crash). The
// final in-horizon anomaly ranking matches float for float too.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const id = "sensor-1"
	for trial := 0; trial < 4; trial++ {
		series := sineSeries(3200, 40, rng.Int63(), 400, 1500, 2700)
		snapEvery := 200 + rng.Intn(500)

		// Reference: never crashed.
		refDir := t.TempDir()
		ref, refC := openDurable(t, refDir, snapEvery)
		if _, err := ref.PushBatchN(id, series); err != nil {
			t.Fatal(err)
		}
		refAnoms, err := ref.Anomalies(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
		refEvents := refC.stop()
		if len(refEvents) == 0 {
			t.Fatalf("trial %d: reference produced no events; fixture too tame", trial)
		}

		// Crashy: push in batches, crash 2-3 times at random offsets.
		dir := t.TempDir()
		m, c := openDurable(t, dir, snapEvery)
		var got []Event
		sent := 0
		crashes := 2 + rng.Intn(2)
		for crash := 0; crash <= crashes; crash++ {
			limit := len(series)
			if crash < crashes {
				limit = sent + rng.Intn(len(series)-sent+1)
			}
			for sent < limit {
				n := 1 + rng.Intn(97)
				if sent+n > limit {
					n = limit - sent
				}
				acc, err := m.PushBatchN(id, series[sent:sent+n])
				if err != nil {
					t.Fatalf("trial %d: push at %d: %v", trial, sent, err)
				}
				sent += acc
			}
			if crash == crashes {
				break
			}
			// Crash: abandon the manager mid-flight and tear the live
			// segment at a random byte offset.
			got = append(got, c.stop()...)
			seg := liveSegment(t, dir)
			if info, err := os.Stat(seg); err == nil && info.Size() > 0 {
				if err := os.Truncate(seg, rng.Int63n(info.Size()+1)); err != nil {
					t.Fatal(err)
				}
			}
			m, c = openDurable(t, dir, snapEvery)
			// The client resumes from the server's recovered position —
			// points acked but torn out of the log are resent.
			st, err := m.StreamStats(id)
			if err != nil {
				t.Fatalf("trial %d: stats after recovery: %v", trial, err)
			}
			if int(st.Points) > sent {
				t.Fatalf("trial %d: recovered %d points, only sent %d", trial, st.Points, sent)
			}
			sent = int(st.Points)
		}

		gotAnoms, err := m.Anomalies(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		got = append(got, c.stop()...)

		gotD, refD := dedup(got), dedup(refEvents)
		if len(gotD) != len(refD) {
			t.Fatalf("trial %d: %d distinct events, reference %d\n got: %v\n ref: %v",
				trial, len(gotD), len(refD), gotD, refD)
		}
		for i := range refD {
			if gotD[i] != refD[i] {
				t.Fatalf("trial %d: event[%d] = %+v, reference %+v", trial, i, gotD[i], refD[i])
			}
		}
		if len(gotAnoms) != len(refAnoms) {
			t.Fatalf("trial %d: %d ranked anomalies, reference %d", trial, len(gotAnoms), len(refAnoms))
		}
		for i := range refAnoms {
			if gotAnoms[i] != refAnoms[i] {
				t.Fatalf("trial %d: anomaly[%d] = %+v, reference %+v", trial, i, gotAnoms[i], refAnoms[i])
			}
		}
	}
}

// TestRestartResumesStreams: a clean shutdown and restart resumes every
// stream — same accounting, same detector position — and continues
// confirming events exactly where it left off.
func TestRestartResumesStreams(t *testing.T) {
	dir := t.TempDir()
	series := sineSeries(2000, 40, 3, 600, 1500)

	m, c := openDurable(t, dir, 300)
	for _, idx := range []string{"a", "b"} {
		if _, err := m.PushBatchN(idx, series[:1200]); err != nil {
			t.Fatal(err)
		}
	}
	stBefore, err := m.StreamStats("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	firstEvents := dedup(c.stop())

	m2, c2 := openDurable(t, dir, 300)
	defer m2.Close()
	if m2.Len() != 2 {
		t.Fatalf("recovered %d streams, want 2", m2.Len())
	}
	st, err := m2.StreamStats("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != stBefore.Points {
		t.Fatalf("recovered Points = %d, want %d", st.Points, stBefore.Points)
	}
	if st.Events != stBefore.Events {
		t.Fatalf("recovered Events = %d, want %d", st.Events, stBefore.Events)
	}
	if !st.Created.Equal(stBefore.Created) {
		t.Fatalf("recovered Created = %v, want %v", st.Created, stBefore.Created)
	}
	for _, idx := range []string{"a", "b"} {
		if _, err := m2.PushBatchN(idx, series[1200:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	secondEvents := dedup(c2.stop())

	want := directEvents(t, testStreamConfig(), series, false)
	var all []Event
	all = append(all, firstEvents...)
	all = append(all, secondEvents...)
	perStream := map[string][]Event{}
	for _, ev := range all {
		perStream[ev.Stream] = append(perStream[ev.Stream], ev)
	}
	for _, idx := range []string{"a", "b"} {
		evs := dedup(perStream[idx])
		if len(evs) != len(want) {
			t.Fatalf("stream %q: %d events across restart, want %d", idx, len(evs), len(want))
		}
		for i := range want {
			if evs[i].Anomaly != want[i] {
				t.Fatalf("stream %q: event[%d] = %+v, want %+v", idx, i, evs[i].Anomaly, want[i])
			}
		}
	}
}

// TestEvictionHibernatesDurableStreams: evicting a durable stream keeps
// it resumable — a later push continues the stream (with its buffered
// tail intact) rather than restarting it, and confirmed events across the
// hibernation match an uninterrupted detector.
func TestEvictionHibernatesDurableStreams(t *testing.T) {
	clock := &fakeClock{}
	dir := t.TempDir()
	m, err := New(Config{
		Stream:        testStreamConfig(),
		DataDir:       dir,
		SnapshotEvery: 250,
		IdleAfter:     time.Minute,
		Now:           clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := m.Subscribe("", 64)
	var events []Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range ch {
			events = append(events, ev)
		}
	}()

	series := sineSeries(2000, 40, 5, 600, 1500)
	if _, err := m.PushBatchN("s", series[:900]); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)
	if evicted := m.EvictIdle(); len(evicted) != 1 {
		t.Fatalf("evicted %d streams, want 1", len(evicted))
	}
	if m.Len() != 0 {
		t.Fatalf("%d live streams after eviction", m.Len())
	}
	// Push resumes the hibernated stream from disk.
	if _, err := m.PushBatchN("s", series[900:]); err != nil {
		t.Fatal(err)
	}
	st, err := m.StreamStats("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != int64(len(series)) {
		t.Fatalf("resumed stream has %d points, want %d", st.Points, len(series))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done

	want := directEvents(t, testStreamConfig(), series, false)
	got := dedup(events)
	if len(got) != len(want) {
		t.Fatalf("%d events across hibernation, want %d (%v vs %v)", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Anomaly != want[i] {
			t.Fatalf("event[%d] = %+v, want %+v", i, got[i].Anomaly, want[i])
		}
	}
}

// TestCloseStreamDeletesPersistedState: the terminal close removes the
// stream's directory, so a recreated stream starts fresh.
func TestCloseStreamDeletesPersistedState(t *testing.T) {
	dir := t.TempDir()
	m, _ := openDurable(t, dir, 100)
	defer m.Close()
	if _, err := m.PushBatchN("gone", sineSeries(500, 40, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CloseStream("gone"); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("data dir still holds %d entries after CloseStream", len(ents))
	}
	if _, err := m.PushBatchN("gone", []float64{1.0}); err != nil {
		t.Fatal(err)
	}
	st, err := m.StreamStats("gone")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 1 {
		t.Fatalf("recreated stream has %d points, want 1", st.Points)
	}
}

// TestSnapshotAndReplay: SnapshotStream checkpoints on demand;
// ReplayStream re-derives the post-checkpoint events deterministically
// without touching the live stream.
func TestSnapshotAndReplay(t *testing.T) {
	dir := t.TempDir()
	m, c := openDurable(t, dir, 1<<20) // cadence effectively off; checkpoints are manual
	series := sineSeries(2000, 40, 7, 600, 1500)
	if _, err := m.PushBatchN("s", series[:700]); err != nil {
		t.Fatal(err)
	}
	if err := m.SnapshotStream("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PushBatchN("s", series[700:]); err != nil {
		t.Fatal(err)
	}

	type hopEvent struct {
		hop int
		ev  Event
	}
	var replayed []hopEvent
	n, err := m.ReplayStream("s", func(hop int, ev stream.Event) error {
		replayed = append(replayed, hopEvent{hop, Event{Stream: "s", Anomaly: ev}})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(series)-700 {
		t.Fatalf("replayed %d points, want %d", n, len(series)-700)
	}

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	live := dedup(c.stop())

	if len(replayed) == 0 {
		t.Fatal("replay confirmed no events; fixture too tame")
	}
	got := make([]Event, len(replayed))
	for i, r := range replayed {
		if r.hop < 0 {
			t.Fatalf("replayed event %d carries hop %d", i, r.hop)
		}
		got[i] = r.ev
	}
	// Every replayed event must appear, bit-identical, in the live run.
	liveSet := map[Event]bool{}
	for _, ev := range live {
		liveSet[ev] = true
	}
	for i, ev := range got {
		if !liveSet[ev] {
			t.Fatalf("replayed event %d (%+v) never confirmed live", i, ev)
		}
	}

	// An unknown stream refuses to replay.
	if _, err := m.ReplayStream("nope", func(int, stream.Event) error { return nil }); err == nil {
		t.Fatal("replay of unknown stream succeeded")
	}
}
