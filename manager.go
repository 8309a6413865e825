package egi

import (
	"errors"
	"sync"
	"time"

	"egi/internal/host"
	"egi/internal/manager"
	"egi/internal/router"
	"egi/internal/stream"
)

// ManagerOptions configures NewManager. Only Stream.Window is required;
// zero values select defaults (unlimited streams and bytes, no automatic
// eviction).
type ManagerOptions struct {
	// Stream is the StreamOptions template every managed stream is
	// created with. Its OnAnomaly must be nil: the manager owns event
	// delivery — subscribe with Manager.Subscribe instead.
	Stream StreamOptions
	// MaxStreams caps the number of live streams; 0 means unlimited. At
	// the cap, opening another stream evicts the least-recently-pushed
	// stream idle for at least IdleAfter, or fails with an error
	// wrapping ErrTooManyStreams if none is.
	MaxStreams int
	// MaxBytes caps the total MemoryFootprint across streams, in bytes;
	// 0 means unlimited. New streams are admitted against the budget
	// atomically; growth of existing streams is checked before each
	// push. Either way the manager evicts idle streams first and fails
	// with an error wrapping ErrOverBudget only if that does not make
	// room. Because each stream's footprint is individually bounded,
	// the total can transiently overshoot the budget by at most one
	// hop's growth per concurrently pushing stream.
	MaxBytes int64
	// IdleAfter is how long a stream must go without a push before the
	// manager may evict it (LRU first). Zero disables automatic
	// eviction: streams then leave only through CloseStream or Close,
	// and the limits above reject instead of evicting.
	IdleAfter time.Duration
	// DataDir, when non-empty, makes every stream durable: accepted
	// points are write-ahead logged under this directory with periodic
	// snapshot checkpoints, eviction hibernates streams (resumable on
	// the next push) instead of flushing them, and NewManager recovers
	// every persisted stream — each continues bit-identically to a
	// stream that never stopped. Empty keeps the manager in-memory.
	DataDir string
	// SnapshotEvery is the number of accepted points between snapshot
	// checkpoints of each durable stream; 0 selects 8192. Checkpoints
	// bound recovery replay time and on-disk log size.
	SnapshotEvery int
	// Fsync, when set, fsyncs the write-ahead log after every accepted
	// push batch: acked points then survive power loss, not just process
	// death, at the cost of one fsync per batch.
	Fsync bool
}

// Errors reported by Manager, re-exported from the serving core so callers
// can match them with errors.Is.
var (
	// ErrManagerClosed is returned by every Manager operation after Close.
	ErrManagerClosed = manager.ErrManagerClosed
	// ErrTooManyStreams rejects opening a stream at the MaxStreams cap
	// when no idle stream can be evicted.
	ErrTooManyStreams = manager.ErrTooManyStreams
	// ErrOverBudget rejects a push while the rolled-up memory footprint
	// exceeds MaxBytes and no idle stream can be evicted.
	ErrOverBudget = manager.ErrOverBudget
	// ErrUnknownStream is returned for operations on ids that do not
	// exist (and have not been implicitly created).
	ErrUnknownStream = manager.ErrUnknownStream
	// ErrStreamQuarantined rejects operations on a stream whose detection
	// engine panicked or whose persisted state could not be recovered.
	// The stream is held as a tombstone — memory released, on-disk state
	// preserved for inspection — so one poisoned stream never takes down
	// the process. CloseStream deletes it; a restart retries recovery.
	ErrStreamQuarantined = manager.ErrStreamQuarantined
	// ErrStreamConfig rejects OpenWith on a stream that already exists
	// with different effective settings. The existing stream is left
	// untouched; close it first if the new settings are intended.
	ErrStreamConfig = manager.ErrStreamConfig
)

// defaultEventBuffer is the subscription capacity Subscribe uses when
// given buf <= 0.
const defaultEventBuffer = 256

// ErrManagerCallback is returned by NewManager when the stream template
// sets OnAnomaly: a Manager owns event delivery, so events arrive through
// Manager.Subscribe instead of a callback.
var ErrManagerCallback = errors.New("egi: Manager delivers events via Subscribe; Stream.OnAnomaly must be nil")

// StreamEvent is one event from a managed stream, tagged with the id of
// the stream that produced it: a confirmed anomaly or — when Health is
// non-empty — a health transition. Anomaly.Pos counts from the first
// point pushed to that stream.
type StreamEvent struct {
	// Stream is the id of the stream the event belongs to.
	Stream string
	// Anomaly is the confirmed anomaly; like Streamer events it never
	// changes once delivered. Meaningless when Health is set.
	Anomaly Anomaly
	// Health, when non-empty, marks this as a health transition instead
	// of an anomaly: HealthDegraded (durability failing, stream detecting
	// in memory while the manager retries with backoff), HealthHealed (a
	// checkpoint succeeded, fully durable again), or HealthQuarantined
	// (engine panic — the stream is now a tombstone).
	Health string
	// Cause carries the failure text behind a degraded or quarantined
	// transition.
	Cause string
}

// Health transition values carried by StreamEvent.Health, re-exported
// from the serving core.
const (
	// HealthDegraded marks the transition into degraded (memory-only)
	// operation after a durability failure.
	HealthDegraded = manager.HealthDegraded
	// HealthHealed marks the return to full durability after a
	// successful checkpoint.
	HealthHealed = manager.HealthHealed
	// HealthQuarantined marks a stream tombstoned by a panic or an
	// unrecoverable persisted state.
	HealthQuarantined = manager.HealthQuarantined
)

// StreamStats is a point-in-time snapshot of one managed stream's
// accounting.
type StreamStats struct {
	// ID is the stream's key.
	ID string
	// Points is the number of points accepted so far.
	Points int64
	// Events is the number of confirmed anomaly events emitted so far.
	Events int64
	// MemoryBytes is the stream's current MemoryFootprint.
	MemoryBytes int64
	// Created is when the stream was opened.
	Created time.Time
	// LastPush is when the stream last accepted a push (Created until
	// the first push).
	LastPush time.Time
	// Degraded reports that the stream's durability is failing: it keeps
	// detecting and accepting pushes in memory while the manager retries
	// logging with capped backoff and heals by checkpoint once writes
	// succeed. Points accepted while degraded are lost if the process
	// dies before healing — monitor this flag.
	Degraded bool
	// Quarantined reports a tombstoned stream (engine panic or
	// unrecoverable persisted state): pushes are rejected with
	// ErrStreamQuarantined until it is closed or the process restarts.
	Quarantined bool
	// Fault is the failure text behind Degraded or Quarantined; empty on
	// a healthy stream.
	Fault string
	// Shard names the serving shard hosting the stream on a sharded
	// manager (NewShardedManager); empty on a single-shard Manager.
	Shard string
}

// ManagerStats is a point-in-time snapshot of a whole Manager.
type ManagerStats struct {
	// Streams holds one snapshot per live stream, sorted by id.
	Streams []StreamStats
	// TotalBytes is the rolled-up MemoryFootprint across live streams.
	TotalBytes int64
	// Evicted counts streams evicted for idleness or budget since the
	// manager was created (explicit CloseStream calls not included).
	Evicted int64
	// Degraded counts live streams currently in degraded (memory-only)
	// mode.
	Degraded int64
	// Quarantined counts quarantined tombstone streams.
	Quarantined int64
}

// Manager multiplexes many independent streaming detectors behind one
// surface, keyed by stream id — the serving layer of the library, and what
// cmd/egiserve exposes over HTTP. Streams are created implicitly on first
// push (or explicitly with Open), each behind its own lock, so producers
// for different streams never contend and producers for one stream
// serialize on its lock. That makes one stream id the way to share a
// detector across goroutines: each batch lands atomically, in lock order;
// Subscribe(id, buf) delivers the stream's events in order with
// backpressure; CloseStream flushes and delivers the final events; and
// StreamStats and Anomalies read it while producers run. Memory is
// governed end to end:
// every stream's MemoryFootprint (ring + member pipelines + resumable
// grammars + stitch buffers, all bounded) is rolled up after each push,
// and the MaxStreams / MaxBytes limits combined with LRU idle eviction
// keep the total inside a configured envelope — limits reject cleanly,
// they never corrupt a stream.
//
//	m, err := egi.NewManager(egi.ManagerOptions{
//		Stream:     egi.StreamOptions{Window: 100},
//		MaxStreams: 10000,
//		MaxBytes:   1 << 30,
//		IdleAfter:  10 * time.Minute,
//	})
//	events, cancel := m.Subscribe("", 256) // all streams
//	go func() {
//		for ev := range events {
//			log.Printf("%s: anomaly at %d", ev.Stream, ev.Anomaly.Pos)
//		}
//	}()
//	...
//	m.PushBatch("sensor-42", points) // creates the stream on first use
//	...
//	m.Close() // flushes every stream, then closes subscriber channels
//
// All methods are safe for concurrent use.
type Manager struct {
	h host.StreamHost
	// r and b are set only on a sharded manager (NewShardedManager): the
	// routing tier behind h, and the shared event broker the Manager owns
	// and closes after the shards.
	r *router.Router
	b *manager.Broker
}

// NewManager creates a stream manager. The stream template is validated
// here, so a bad configuration fails at construction rather than on the
// first push.
func NewManager(opts ManagerOptions) (*Manager, error) {
	if opts.Stream.OnAnomaly != nil {
		return nil, ErrManagerCallback
	}
	cfg := manager.Config{
		Stream:        opts.Stream.config(),
		MaxStreams:    opts.MaxStreams,
		MaxBytes:      opts.MaxBytes,
		IdleAfter:     opts.IdleAfter,
		DataDir:       opts.DataDir,
		SnapshotEvery: opts.SnapshotEvery,
		Fsync:         opts.Fsync,
	}
	m, err := manager.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Manager{h: m}, nil
}

// StreamOverrides pins per-stream detector settings at create time,
// overriding the manager's stream template for that one stream. Zero
// fields inherit the template; set fields must be valid on their own
// terms (the same validation as StreamOptions). The pinned effective
// settings travel with the stream — they survive hibernation, restarts,
// and shard migration.
type StreamOverrides struct {
	// Window overrides the sliding window length (anomaly scale).
	Window int
	// BufLen overrides the ring buffer capacity.
	BufLen int
	// Hop overrides the points between detection runs.
	Hop int
	// Threshold overrides the fixed event threshold in (0, 1].
	Threshold float64
	// RebaseEvery overrides the grammar rebase schedule (K runs; 0
	// inherits the template).
	RebaseEvery int
}

// OpenWith is Open with per-stream setting overrides. Opening an
// existing stream with the same effective settings is an idempotent
// no-op; opening one whose settings differ fails with an error wrapping
// ErrStreamConfig and leaves the stream untouched.
func (m *Manager) OpenWith(id string, ov StreamOverrides) error {
	return m.h.OpenStream(id, manager.Overrides{
		Window:      ov.Window,
		BufLen:      ov.BufLen,
		Hop:         ov.Hop,
		Threshold:   ov.Threshold,
		RebaseEvery: ov.RebaseEvery,
	})
}

// Open creates the stream if it does not exist yet, applying the
// MaxStreams limit (evicting an idle stream if necessary). It is
// idempotent: opening an existing stream is a no-op.
func (m *Manager) Open(id string) error { return m.h.OpenStream(id, manager.Overrides{}) }

// Push appends one point to the stream, creating it on first use.
func (m *Manager) Push(id string, x float64) error {
	_, err := m.h.PushBatchN(id, []float64{x})
	return err
}

// PushBatch appends the points, in order, to the stream, creating it on
// first use; no other producer's points interleave with the batch. Limit
// errors (ErrTooManyStreams, ErrOverBudget) reject the batch outright;
// detector errors (e.g. a non-finite point) reject the remainder, with
// everything before the bad point accepted, like Streamer.PushBatch.
func (m *Manager) PushBatch(id string, xs []float64) error {
	_, err := m.h.PushBatchN(id, xs)
	return err
}

// PushBatchN is PushBatch reporting how many points were accepted —
// applied to the stream (and write-ahead logged when DataDir is set)
// before any error — so a client can resend exactly the unapplied
// remainder after a partial failure.
func (m *Manager) PushBatchN(id string, xs []float64) (int, error) { return m.h.PushBatchN(id, xs) }

// SnapshotStream forces a durability checkpoint of the stream right now,
// superseding its write-ahead log tail. It requires DataDir to be set and
// the stream to be live.
func (m *Manager) SnapshotStream(id string) error { return m.h.SnapshotStream(id) }

// ReplayStream re-derives a stream's recent events from its persisted
// state: the last checkpoint is restored into a detached detector, the
// logged tail is re-pushed through it, and fn is called for every event
// confirmed during the replay with the hop (detection run) index that
// confirmed it. Determinism makes the output exact — these are precisely
// the events a crash-restart at the last checkpoint would re-announce.
// The live stream is not disturbed. Returns the number of tail points
// replayed; fn returning an error aborts the replay. Requires DataDir.
func (m *Manager) ReplayStream(id string, fn func(hop int, a Anomaly) error) (int, error) {
	return m.h.ReplayStream(id, func(hop int, ev stream.Event) error {
		return fn(hop, Anomaly{Pos: ev.Pos, Length: ev.Length, Density: ev.Density})
	})
}

// Subscribe registers for confirmed anomaly events — one stream's, or
// every stream's with id "". Events arrive in per-stream order on a
// channel buffering about buf events (minimum 1; <= 0 selects 256). A
// full channel applies backpressure to every
// stream matching the subscription's filter — it blocks their delivery
// rather than dropping events — so keep receiving until you cancel.
// Other subscriptions and non-matching streams are unaffected. The
// channel is closed when the manager closes, and also shortly after
// cancel (which is idempotent); a canceled subscriber should simply stop
// reading.
func (m *Manager) Subscribe(id string, buf int) (<-chan StreamEvent, func()) {
	if buf <= 0 {
		buf = defaultEventBuffer
	}
	in, cancelIn := m.h.Subscribe(id, buf)
	// The converter stage adds no meaningful capacity: the documented
	// buffer lives in the broker subscription.
	out := make(chan StreamEvent)
	stop := make(chan struct{})
	go func() {
		defer close(out)
		for {
			select {
			case ev, ok := <-in:
				if !ok {
					return
				}
				se := StreamEvent{
					Stream:  ev.Stream,
					Anomaly: Anomaly{Pos: ev.Anomaly.Pos, Length: ev.Anomaly.Length, Density: ev.Anomaly.Density},
					Health:  ev.Health,
					Cause:   ev.Cause,
				}
				select {
				case out <- se:
				case <-stop:
					return
				}
			case <-stop:
				return
			}
		}
	}()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			cancelIn()
			close(stop)
		})
	}
	return out, cancel
}

// Anomalies returns the stream's current top-K ranking within its
// retained horizon — the multi-stream analogue of Streamer.Anomalies. The
// stream must exist.
func (m *Manager) Anomalies(id string) ([]Anomaly, error) {
	evs, err := m.h.Anomalies(id)
	if err != nil {
		return nil, err
	}
	out := make([]Anomaly, len(evs))
	for i, e := range evs {
		out[i] = Anomaly{Pos: e.Pos, Length: e.Length, Density: e.Density}
	}
	return out, nil
}

// CloseStream flushes the stream (delivering its final events to
// subscribers), releases its memory, and returns its final stats.
func (m *Manager) CloseStream(id string) (StreamStats, error) {
	st, err := m.h.CloseStream(id)
	if err != nil {
		return StreamStats{}, err
	}
	return fromStats(st), nil
}

// EvictIdle evicts every stream idle for at least IdleAfter (no-op when
// IdleAfter is zero), delivering their final events, and returns the
// final stats of the evicted streams. Long-running servers call it on a
// timer so idle streams are reclaimed even when no limit forces the
// issue.
func (m *Manager) EvictIdle() []StreamStats {
	evicted := m.h.EvictIdle()
	out := make([]StreamStats, len(evicted))
	for i, st := range evicted {
		out[i] = fromStats(st)
	}
	return out
}

// StreamStats returns one live stream's snapshot.
func (m *Manager) StreamStats(id string) (StreamStats, error) {
	st, err := m.h.StreamStats(id)
	if err != nil {
		return StreamStats{}, err
	}
	return fromStats(st), nil
}

// Stats returns a snapshot of every live stream plus the rolled-up
// accounting.
func (m *Manager) Stats() ManagerStats {
	st := m.h.Stats()
	out := ManagerStats{
		Streams:     make([]StreamStats, len(st.Streams)),
		TotalBytes:  st.TotalBytes,
		Evicted:     st.Evicted,
		Degraded:    st.Degraded,
		Quarantined: st.Quarantined,
	}
	for i, s := range st.Streams {
		out.Streams[i] = fromStats(s)
	}
	return out
}

// MemoryFootprint is the rolled-up retained-memory accounting across live
// streams, in bytes; the quantity MaxBytes bounds.
func (m *Manager) MemoryFootprint() int64 { return m.h.TotalBytes() }

// Len returns the number of live streams.
func (m *Manager) Len() int { return m.h.Len() }

// Close shuts the manager down: every stream is flushed (delivering its
// final events), all stream memory is released, and every subscriber
// channel is closed. Close is idempotent; later operations return
// ErrManagerClosed.
func (m *Manager) Close() error {
	err := m.h.Close()
	if m.b != nil {
		// The shared broker is closed after every shard is down, so final
		// events reach subscribers first.
		m.b.Close()
	}
	return err
}

func fromStats(st manager.StreamStats) StreamStats {
	return StreamStats{
		ID:          st.ID,
		Points:      st.Points,
		Events:      st.Events,
		MemoryBytes: st.MemoryBytes,
		Created:     st.Created,
		LastPush:    st.LastPush,
		Degraded:    st.Degraded,
		Quarantined: st.Quarantined,
		Fault:       st.Fault,
		Shard:       st.Shard,
	}
}

// RecoveryFailure records one stream directory that could not be recovered
// at startup: the manager skipped it (quarantining the id) instead of
// aborting, so one corrupt or unreadable directory never blocks every
// other stream from coming back.
type RecoveryFailure struct {
	// Stream is the id whose persisted state failed to recover.
	Stream string
	// Err describes why recovery failed.
	Err error
}

// RecoveryFailures reports the stream directories that failed to recover
// when the manager started (empty for a clean start). Each failed id is
// quarantined: operations on it return ErrStreamQuarantined, its on-disk
// state is preserved for inspection, and CloseStream deletes it.
func (m *Manager) RecoveryFailures() []RecoveryFailure {
	fs := m.h.RecoveryFailures()
	out := make([]RecoveryFailure, len(fs))
	for i, f := range fs {
		out[i] = RecoveryFailure{Stream: f.Stream, Err: f.Err}
	}
	return out
}
