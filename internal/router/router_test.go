package router

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"egi/internal/manager"
	"egi/internal/stream"
	"egi/internal/vfs"
)

// fakeClock is an injectable manual clock (mirrors the manager tests').
type fakeClock struct{ nanos atomic.Int64 }

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.nanos.Add(int64(d)) }

// testStreamConfig is the small, fast detector template shared by the
// router tests; Seed fixed so cross-manager comparisons are exact.
func testStreamConfig() stream.Config {
	return stream.Config{Window: 40, BufLen: 320, EnsembleSize: 8, Seed: 11}
}

// sineSeries builds a noisy sine with triangular pulses planted at the
// given positions (the stream tests' fixture).
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

// collected gathers a subscription's events in the background so pushes
// never block on the broker; wait returns them once the channel closes.
type collected struct {
	mu     sync.Mutex
	events []manager.Event
	done   chan struct{}
}

func collectEvents(ch <-chan manager.Event) *collected {
	c := &collected{done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for ev := range ch {
			c.mu.Lock()
			c.events = append(c.events, ev)
			c.mu.Unlock()
		}
	}()
	return c
}

func (c *collected) wait(t *testing.T) []manager.Event {
	t.Helper()
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		t.Fatal("event channel never closed")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

// anomaliesOf filters events down to stream id's anomaly stream.
func anomaliesOf(events []manager.Event, id string) []stream.Event {
	var out []stream.Event
	for _, ev := range events {
		if ev.Health == "" && ev.Stream == id {
			out = append(out, ev.Anomaly)
		}
	}
	return out
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

// cluster is a Router over named manager members sharing one broker,
// with every member manager reachable by name for white-box assertions.
type cluster struct {
	t    *testing.T
	r    *Router
	b    *manager.Broker
	mu   sync.Mutex
	mgrs map[string]*manager.Manager
}

// newCluster builds the members (durable under dir/<name> when dir is
// set, memory-only otherwise), each with an optional injected FS, and a
// Router over them; growable installs a Grow hook so Resize can add
// members.
func newCluster(t *testing.T, dir string, names []string, clk *fakeClock, fss map[string]vfs.FS, growable bool) *cluster {
	t.Helper()
	c := &cluster{t: t, b: manager.NewBroker(), mgrs: map[string]*manager.Manager{}}
	mk := func(name string) (*manager.Manager, error) {
		cfg := manager.Config{Stream: testStreamConfig(), SnapshotEvery: 200, Now: clk.Now, Events: c.b}
		if dir != "" {
			cfg.DataDir = filepath.Join(dir, name)
		}
		if fss != nil {
			cfg.FS = fss[name]
		}
		m, err := manager.New(cfg)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.mgrs[name] = m
		c.mu.Unlock()
		return m, nil
	}
	members := make([]Member, 0, len(names))
	for _, name := range names {
		m, err := mk(name)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, Member{Name: name, Host: m})
	}
	cfg := Config{Members: members}
	if growable {
		cfg.Grow = func(i int) (Member, error) {
			name := fmt.Sprintf("grown-%d", i)
			m, err := mk(name)
			if err != nil {
				return Member{}, err
			}
			return Member{Name: name, Host: m}, nil
		}
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.r = r
	return c
}

func (c *cluster) close() {
	if err := c.r.Close(); err != nil {
		c.t.Errorf("closing cluster: %v", err)
	}
	c.b.Close()
}

// mgr returns the named member's manager.
func (c *cluster) mgr(name string) *manager.Manager {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.mgrs[name]
	if m == nil {
		c.t.Fatalf("no manager %q", name)
	}
	return m
}

// member returns the named live member, failing the test if absent.
func (c *cluster) member(name string) *member {
	c.r.mu.RLock()
	for _, m := range c.r.members {
		if m.name == name {
			c.r.mu.RUnlock()
			return m
		}
	}
	c.r.mu.RUnlock()
	c.t.Fatalf("no member %q", name)
	return nil
}

// moveStream forces one migration of id to the named member through the
// real quiesce → export → import → release path.
func (c *cluster) moveStream(id, to string) error {
	from := c.member(c.r.shardOf(id))
	return c.r.migrate(move{id: id, from: from, to: c.member(to)})
}

// pushAll pushes xs to id in chunk-sized batches through the router,
// requiring full acceptance.
func pushAll(t *testing.T, h interface {
	PushBatchN(string, []float64) (int, error)
}, id string, xs []float64, chunk int) {
	t.Helper()
	for off := 0; off < len(xs); off += chunk {
		end := off + chunk
		if end > len(xs) {
			end = len(xs)
		}
		if n, err := h.PushBatchN(id, xs[off:end]); err != nil || n != end-off {
			t.Fatalf("push %s [%d:%d) = (%d, %v), want (%d, nil)", id, off, end, n, err, end-off)
		}
	}
}

// TestMigrationBitIdentityRandomCuts is the migration acceptance bar:
// a stream migrated between members at random cut points mid-ingest
// delivers exactly the events of a never-migrated stream over the same
// points, reports the same anomalies ranking, and checkpoints to the
// same snapshot bytes.
func TestMigrationBitIdentityRandomCuts(t *testing.T) {
	names := []string{"m0", "m1", "m2"}
	for trial := 0; trial < 3; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			clk := &fakeClock{}
			c := newCluster(t, t.TempDir(), names, clk, nil, false)
			sub, cancel := c.r.Subscribe("", 256)
			defer cancel()
			got := collectEvents(sub)

			ref, err := manager.New(manager.Config{
				Stream: testStreamConfig(), DataDir: t.TempDir(), SnapshotEvery: 200, Now: clk.Now,
			})
			if err != nil {
				t.Fatal(err)
			}
			refSub, refCancel := ref.Subscribe("", 256)
			defer refCancel()
			want := collectEvents(refSub)

			const id = "sensor-7"
			full := sineSeries(2000, 40, int64(100+trial), 500, 1200)
			rng := rand.New(rand.NewSource(int64(900 + trial)))
			cuts := []int{100 + rng.Intn(600), 800 + rng.Intn(500), 1400 + rng.Intn(500)}

			next := 0
			for off := 0; off < len(full); off += 50 {
				end := off + 50
				pushAll(t, c.r, id, full[off:end], 50)
				pushAll(t, ref, id, full[off:end], 50)
				for next < len(cuts) && cuts[next] <= end {
					cur := c.r.shardOf(id)
					to := names[rng.Intn(len(names))]
					for to == cur {
						to = names[rng.Intn(len(names))]
					}
					if err := c.moveStream(id, to); err != nil {
						t.Fatalf("migrating %q to %q at point %d: %v", id, to, end, err)
					}
					if got := c.r.shardOf(id); got != to {
						t.Fatalf("after migration shardOf = %q, want %q", got, to)
					}
					next++
				}
			}
			if mt := c.r.Metrics(); mt.Migrations != int64(len(cuts)) || mt.MigrationFailures != 0 {
				t.Fatalf("migrations = %d (failures %d), want %d clean", mt.Migrations, mt.MigrationFailures, len(cuts))
			}

			// Same live ranking and accounting.
			gotAnoms, err := c.r.Anomalies(id)
			if err != nil {
				t.Fatal(err)
			}
			wantAnoms, err := ref.Anomalies(id)
			if err != nil {
				t.Fatal(err)
			}
			if !eventsEqual(gotAnoms, wantAnoms) {
				t.Fatalf("anomalies diverge: migrated %v, reference %v", gotAnoms, wantAnoms)
			}
			st, err := c.r.StreamStats(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Points != int64(len(full)) {
				t.Fatalf("points = %d, want %d", st.Points, len(full))
			}

			// Same checkpoint bytes: force a snapshot on both sides and
			// compare the exported state.
			if err := c.r.SnapshotStream(id); err != nil {
				t.Fatal(err)
			}
			if err := ref.SnapshotStream(id); err != nil {
				t.Fatal(err)
			}
			gotSt, err := c.mgr(c.r.shardOf(id)).ExportStream(id)
			if err != nil {
				t.Fatal(err)
			}
			wantSt, err := ref.ExportStream(id)
			if err != nil {
				t.Fatal(err)
			}
			if gotSt.WalPos != wantSt.WalPos || len(gotSt.Tail) != 0 || len(wantSt.Tail) != 0 {
				t.Fatalf("export coords: migrated walpos=%d tail=%d, reference walpos=%d tail=%d",
					gotSt.WalPos, len(gotSt.Tail), wantSt.WalPos, len(wantSt.Tail))
			}
			if !bytes.Equal(gotSt.Snapshot, wantSt.Snapshot) {
				t.Fatalf("snapshot bytes diverge after %d migrations (%d vs %d bytes)",
					len(cuts), len(gotSt.Snapshot), len(wantSt.Snapshot))
			}

			// Same delivered events, in order.
			c.close()
			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}
			g, w := anomaliesOf(got.wait(t), id), anomaliesOf(want.wait(t), id)
			if !eventsEqual(g, w) {
				t.Fatalf("delivered events diverge: migrated %d, reference %d", len(g), len(w))
			}
			if len(w) == 0 {
				t.Fatal("fixture produced no events; the comparison is vacuous")
			}
		})
	}
}

// TestDrainMovesAllStreams: Drain empties the named member onto the
// rest, every stream keeps serving from its new home, and draining down
// to the last live member is refused.
func TestDrainMovesAllStreams(t *testing.T) {
	clk := &fakeClock{}
	names := []string{"m0", "m1", "m2"}
	c := newCluster(t, t.TempDir(), names, clk, nil, false)
	defer c.close()

	const nStreams, nPoints = 9, 400
	for i := 0; i < nStreams; i++ {
		id := fmt.Sprintf("s-%d", i)
		pushAll(t, c.r, id, sineSeries(nPoints, 40, int64(i), 200), 100)
	}
	// Drain the most loaded member, so the test always moves something.
	drained, onDrained := "", -1
	for _, name := range names {
		if n := c.mgr(name).Len(); n > onDrained {
			drained, onDrained = name, n
		}
	}
	if onDrained == 0 {
		t.Fatal("fixture placed nothing anywhere")
	}

	if err := c.r.Drain(drained); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := c.mgr(drained).Len(); n != 0 {
		t.Fatalf("%s still holds %d live streams after drain", drained, n)
	}
	if ids := c.mgr(drained).StreamIDs(); len(ids) != 0 {
		t.Fatalf("%s still holds state for %v after drain", drained, ids)
	}
	for i := 0; i < nStreams; i++ {
		id := fmt.Sprintf("s-%d", i)
		st, err := c.r.StreamStats(id)
		if err != nil {
			t.Fatalf("%s after drain: %v", id, err)
		}
		if st.Shard == drained || st.Shard == "" {
			t.Fatalf("%s placed on %q after draining it", id, st.Shard)
		}
		if st.Points != nPoints {
			t.Fatalf("%s: %d points after drain, want %d", id, st.Points, nPoints)
		}
		// The stream keeps serving from its new home.
		pushAll(t, c.r, id, sineSeries(50, 40, int64(100+i)), 50)
	}
	mt := c.r.Metrics()
	if mt.Migrations != int64(onDrained) || mt.MigrationFailures != 0 {
		t.Fatalf("migrations = %d (failures %d), want %d", mt.Migrations, mt.MigrationFailures, onDrained)
	}
	if mt.Pinned != 0 {
		t.Fatalf("%d pins left after drain; drained streams should be home", mt.Pinned)
	}
	if c.r.Len() != nStreams {
		t.Fatalf("router serves %d streams, want %d", c.r.Len(), nStreams)
	}

	if err := c.r.Drain("nope"); err == nil {
		t.Fatal("draining an unknown member succeeded")
	}
	var rest []string
	for _, name := range names {
		if name != drained {
			rest = append(rest, name)
		}
	}
	if err := c.r.Drain(rest[0]); err != nil {
		t.Fatalf("draining %s: %v", rest[0], err)
	}
	if err := c.r.Drain(rest[1]); err == nil {
		t.Fatal("draining the last live member succeeded")
	}
}

// TestResizeGrowShrink: growing adds members and remaps only a bounded
// share of streams onto them; shrinking drains the removed members and
// closes them once empty; streams survive both directions intact.
func TestResizeGrowShrink(t *testing.T) {
	clk := &fakeClock{}
	c := newCluster(t, t.TempDir(), []string{"m0", "m1"}, clk, nil, true)
	defer c.close()

	const nStreams = 40
	homes := map[string]string{}
	for i := 0; i < nStreams; i++ {
		id := fmt.Sprintf("s-%02d", i)
		pushAll(t, c.r, id, sineSeries(120, 40, int64(i)), 60)
		homes[id] = c.r.shardOf(id)
	}

	if err := c.r.Resize(3); err != nil {
		t.Fatalf("grow: %v", err)
	}
	mt := c.r.Metrics()
	if len(mt.Members) != 3 {
		t.Fatalf("%d members after grow, want 3", len(mt.Members))
	}
	moved := 0
	for id, was := range homes {
		now := c.r.shardOf(id)
		if now != was {
			moved++
			if now != "grown-2" {
				t.Fatalf("%s moved %s→%s on grow; only moves to the new member are allowed", id, was, now)
			}
		}
	}
	if moved == 0 || moved > nStreams*3/5 {
		t.Fatalf("grow moved %d of %d streams; want a bounded nonzero share", moved, nStreams)
	}
	if c.r.Len() != nStreams {
		t.Fatalf("router serves %d streams after grow, want %d", c.r.Len(), nStreams)
	}

	if err := c.r.Resize(2); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	mt = c.r.Metrics()
	if len(mt.Members) != 2 || mt.Members[0].Name != "m0" || mt.Members[1].Name != "m1" {
		t.Fatalf("members after shrink = %+v, want [m0 m1]", mt.Members)
	}
	for id := range homes {
		st, err := c.r.StreamStats(id)
		if err != nil {
			t.Fatalf("%s after shrink: %v", id, err)
		}
		if st.Points != 120 {
			t.Fatalf("%s: %d points after shrink, want 120", id, st.Points)
		}
	}

	if err := c.r.Resize(0); err == nil {
		t.Fatal("resize to 0 succeeded")
	}
}

// TestResizeWithoutGrow: a router built without a Grow hook refuses to
// grow, with ErrNoGrow.
func TestResizeWithoutGrow(t *testing.T) {
	clk := &fakeClock{}
	c := newCluster(t, "", []string{"only"}, clk, nil, false)
	defer c.close()
	if err := c.r.Resize(2); err == nil {
		t.Fatal("grow without a Grow hook succeeded")
	}
}

// TestRouterConcurrentPushDuringResize: pushes race live resizes in both
// directions; every accepted point must land exactly once — the final
// per-stream count equals what the pushers were acknowledged.
func TestRouterConcurrentPushDuringResize(t *testing.T) {
	clk := &fakeClock{}
	c := newCluster(t, "", []string{"m0", "m1"}, clk, nil, true)
	defer c.close()

	const nStreams, iters = 8, 40
	var wg sync.WaitGroup
	accepted := make([]atomic.Int64, nStreams)
	errs := make(chan error, nStreams+3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, n := range []int{4, 2, 3} {
			if err := c.r.Resize(n); err != nil {
				errs <- fmt.Errorf("resize to %d: %w", n, err)
			}
		}
	}()
	for i := 0; i < nStreams; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("s-%d", i)
			data := sineSeries(200, 40, int64(i))
			for k := 0; k < iters; k++ {
				n, err := c.r.PushBatchN(id, data[:25])
				if err != nil {
					errs <- fmt.Errorf("%s: %w", id, err)
					return
				}
				accepted[i].Add(int64(n))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < nStreams; i++ {
		id := fmt.Sprintf("s-%d", i)
		st, err := c.r.StreamStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Points != accepted[i].Load() {
			t.Fatalf("%s: %d points live, but %d were acknowledged", id, st.Points, accepted[i].Load())
		}
	}
	if mt := c.r.Metrics(); mt.MigrationFailures != 0 {
		t.Fatalf("%d migration failures under concurrency", mt.MigrationFailures)
	}
}

// plainMember builds an in-memory member on the shared test template.
func plainMember(t *testing.T, name string) Member {
	t.Helper()
	m, err := manager.New(manager.Config{Stream: testStreamConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return Member{Name: name, Host: m}
}

// TestResizeAfterDrains: with b and c drained, shrinking to one member
// keeps a — the only live member — so Resize(1) must succeed and leave
// every stream on a.
func TestResizeAfterDrains(t *testing.T) {
	r, err := New(Config{Members: []Member{plainMember(t, "a"), plainMember(t, "b"), plainMember(t, "c")}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 30; i++ {
		if _, err := r.PushBatchN(fmt.Sprintf("s-%d", i), []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"b", "c"} {
		if err := r.Drain(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Resize(1); err != nil {
		t.Fatalf("Resize(1) after draining b and c (a stays live): %v", err)
	}
	if got := r.Len(); got != 30 {
		t.Fatalf("%d live streams after resize, want 30", got)
	}
	for _, st := range r.Stats().Streams {
		if st.Shard != "a" {
			t.Fatalf("%s on shard %q, want a", st.ID, st.Shard)
		}
	}
}

// TestCloseStreamPushDrainNoDeadlock: CloseStream, routed pushes and
// Drain/Resize cycles run concurrently without wedging. It guards the
// lock order between r.mu and the member gates: route takes the gate
// under r.mu, so CloseStream must not take r.mu (to drop the pin) while
// holding a gate that a pending quiesce is waiting on.
func TestCloseStreamPushDrainNoDeadlock(t *testing.T) {
	r, err := New(Config{Members: []Member{plainMember(t, "a"), plainMember(t, "b")}})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 200)
	for i := range ids {
		ids[i] = fmt.Sprintf("s-%d", i)
		if _, err := r.PushBatchN(ids[i], []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	// Errors are expected (closed streams, racing drains); only progress
	// is asserted.
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // closer
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_, _ = r.CloseStream(ids[i])
		}
	}()
	go func() { // pusher
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			_, _ = r.PushBatchN(ids[100+i%100], []float64{float64(i)})
		}
	}()
	go func() { // admin
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = r.Drain("b")
			_ = r.Resize(2)
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		// No Close: it would wedge on the same locks.
		t.Fatal("deadlock: close/push/drain wedged")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
