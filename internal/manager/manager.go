// Package manager is the multi-stream serving core: one Manager owns many
// independent streaming detectors keyed by stream id, each safe for
// concurrent fan-in, with rolled-up memory accounting, configurable limits
// (maximum stream count, total byte budget) and idle-stream eviction (LRU
// on last-push time, plus explicit close). It is the machinery behind the
// public egi.Manager API and the egiserve HTTP server.
//
// The stream table is sharded: ids are distributed across a fixed set of
// shards by FNV-1a hash, each shard guarding its slice of the table with
// its own RWMutex. The ingest hot path — look up an entry, push under its
// lock — therefore takes only a shard read lock plus the per-stream lock,
// so producers for different streams never contend on a global mutex, and
// producers for one stream serialize on it: sharing one stream id across
// goroutines is the supported way to fan many producers into one detector.
// Structural changes (creating a stream, evicting, closing) serialize on a
// single createMu so limit admission stays atomic; the lock hierarchy is
// createMu → shard.mu → entry.mu, and no hot-path operation ever takes
// createMu. Confirmed anomaly events flow through a broker to subscribers
// (per-stream or global), with backpressure rather than loss: a full
// subscriber channel blocks the delivery of every stream matching its
// filter — only that stream for a per-stream subscription, all of them for
// a global one — but never drops events, and never holds up streams
// outside the filter. Subscribers must therefore keep receiving until they
// cancel; Close likewise blocks delivering final events until stalled
// subscribers read or cancel (egiserve pairs this with per-write SSE
// deadlines so a stuck client cancels itself).
//
// Memory is governed end to end: each detector's MemoryFootprint (ring +
// member pipelines + stitch buffers, all bounded) is re-read after every
// push and summed into the manager total via atomics. When the total would
// exceed MaxBytes the manager first evicts idle streams, least-recently-
// pushed first; if nothing is evictable the offending push is rejected
// with ErrOverBudget — limits reject, they do not corrupt. Eviction
// flushes the stream, so every event that could still be confirmed from
// buffered data is delivered before the stream's memory is released.
package manager

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"egi/internal/stream"
	"egi/internal/vfs"
	"egi/internal/wal"
)

// Errors reported by the manager.
var (
	// ErrManagerClosed is returned by every operation after Close.
	ErrManagerClosed = errors.New("manager: manager closed")
	// ErrTooManyStreams rejects opening a stream when the manager is at
	// MaxStreams and no idle stream can be evicted.
	ErrTooManyStreams = errors.New("manager: too many streams")
	// ErrOverBudget rejects a push while the rolled-up memory footprint
	// exceeds MaxBytes and no idle stream can be evicted.
	ErrOverBudget = errors.New("manager: memory budget exceeded")
	// ErrUnknownStream is returned for lookups of ids that do not exist.
	ErrUnknownStream = errors.New("manager: unknown stream")
	// ErrStreamQuarantined rejects operations on a stream whose detection
	// engine panicked or whose persisted state could not be recovered: the
	// stream is held as a tombstone (its memory released, its disk state
	// preserved for inspection) so one poisoned stream cannot take down
	// the process. CloseStream deletes it; a restart retries recovery.
	ErrStreamQuarantined = errors.New("manager: stream quarantined")
)

// Config parameterizes a Manager.
type Config struct {
	// Stream is the detector configuration every managed stream is
	// created with. Its OnEvent must be nil: the manager owns event
	// delivery (events reach subscribers through Subscribe).
	Stream stream.Config
	// MaxStreams caps the number of live streams; 0 means unlimited.
	// At the cap, opening a new stream evicts the least-recently-pushed
	// idle stream, or fails with ErrTooManyStreams if none is idle.
	MaxStreams int
	// MaxBytes caps the rolled-up MemoryFootprint across streams; 0
	// means unlimited. New streams are admitted against the budget
	// atomically (concurrent creations serialize and cannot collectively
	// overshoot); growth of existing streams is checked before each
	// push, so the total may transiently overshoot by at most one hop's
	// growth per concurrently pushing stream. In both cases the manager
	// evicts idle streams first and rejects with ErrOverBudget only if
	// that does not make room.
	MaxBytes int64
	// IdleAfter is how long a stream must go without a push before it is
	// evictable. Zero disables automatic eviction entirely: streams then
	// only leave through CloseStream or Close, and the limits above
	// reject rather than evict.
	IdleAfter time.Duration
	// DataDir, when non-empty, makes every stream durable: accepted
	// points are write-ahead logged under this directory, snapshot
	// checkpoints bound replay, eviction hibernates streams instead of
	// flushing them, and New recovers every persisted stream. Empty
	// keeps the manager fully in-memory (the previous behavior).
	DataDir string
	// SnapshotEvery is the number of accepted points between snapshot
	// checkpoints of a durable stream; 0 selects 8192. Checkpoints bound
	// both recovery replay time and on-disk log growth.
	SnapshotEvery int
	// Fsync, when set, fsyncs the write-ahead log after every accepted
	// push batch, making acked points survive power loss rather than
	// just process death. Off, durability rides on the OS page cache.
	Fsync bool
	// FS is the filesystem the durability layer reads and writes
	// through; nil means the real OS. Fault-injection tests use it to
	// fail specific operations and exercise degraded mode.
	FS vfs.FS
	// Events, when non-nil, is a shared event broker: the manager
	// publishes into it instead of creating its own, and Close leaves it
	// open (the sharer owns its lifecycle). A routing tier passes one
	// broker to every member shard so a merged subscription sees events
	// in per-stream order even across a stream migration — the source
	// shard's last events are already in the subscriber channels before
	// the target shard publishes its first.
	Events *Broker
	// Now is the clock, injectable for tests; nil means time.Now.
	Now func() time.Time
}

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
	// detecting in memory and accepting pushes, but accepted points are
	// not reaching the write-ahead log. The manager retries with capped
	// backoff and heals by checkpoint once writes succeed.
	Degraded bool
	// Quarantined reports that the stream is a tombstone after a panic
	// or an unrecoverable persisted state: pushes are rejected with
	// ErrStreamQuarantined and its memory has been released.
	Quarantined bool
	// Fault is the text of the failure behind Degraded or Quarantined;
	// empty on a healthy stream.
	Fault string
	// Shard names the serving shard hosting the stream. A standalone
	// manager leaves it empty; the routing tier (internal/router) fills
	// it in when merging stats across shards.
	Shard string
}

// Stats is a point-in-time snapshot of the whole manager.
type Stats struct {
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

// entry is one managed stream: a detector behind its own mutex, its
// counters, and its pending-event queue (filled under mu by the detector's
// OnEvent callback, drained to the broker outside mu).
type entry struct {
	id      string
	created time.Time

	// overrides holds the stream's effective (normalized) settings for
	// the overridable knobs; immutable after construction. Equal to the
	// template's effective values unless the stream was created with
	// per-stream overrides.
	overrides Overrides

	mu        sync.Mutex // guards d, pending, spare, closed, log, sinceSnap, faultErr, retryAt, backoff
	d         *stream.Detector
	pending   []Event
	spare     []Event
	closed    bool
	log       *wal.StreamLog // non-nil when the stream is durable and healthy
	walPos    int            // log coordinate: input points consumed so far
	sinceSnap int            // consumed points since the last checkpoint
	faultErr  error          // durability fault (degraded) or quarantine cause
	retryAt   time.Time      // earliest next healing attempt while degraded
	backoff   time.Duration  // current healing backoff

	sendMu sync.Mutex // serializes this stream's broker publishes

	// Accounting, atomically readable without mu (Stats, LRU scans).
	points      atomic.Int64
	events      atomic.Int64
	footprint   atomic.Int64
	lastPush    atomic.Int64 // unix nanos
	degraded    atomic.Bool
	quarantined atomic.Bool
	fault       atomic.Value // string mirror of faultErr for lock-free stats
}

// shardCount is the width of the stream table. 64 shards keep the chance
// of two concurrently pushed streams hashing together below 2% at 8
// producers while the per-manager overhead stays a few kilobytes.
const shardCount = 64

// shard is one slice of the stream table. The RWMutex is read-locked on
// the ingest hot path (entry lookup) and write-locked only for insert and
// detach, so lookups — including Stats scans — never contend with each
// other.
type shard struct {
	mu      sync.RWMutex
	streams map[string]*entry
}

// fnv32a is 32-bit FNV-1a, inlined to keep stream-id hashing
// allocation-free on the hot path.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Manager multiplexes many streaming detectors behind one surface. All
// methods are safe for concurrent use.
//
// Locking discipline: the hot path (PushBatchN on an existing stream)
// takes the id's shard read lock to find the entry, releases it, then
// pushes under the entry's own mutex — no global lock. Structural
// mutations (create, evict, CloseStream, Close) serialize on createMu and
// take shard write locks one at a time; they never hold two shard locks
// at once. The hierarchy is createMu → shard.mu → entry.mu, always in
// that order, and reads of the rolled-up accounting (Stats, TotalBytes,
// Len) go through atomics so they block nothing.
type Manager struct {
	cfg       Config
	now       func() time.Time
	broker    *Broker
	store     *wal.Store // nil when DataDir is empty
	snapEvery int

	// templateOv is the template's effective values for the overridable
	// knobs, precomputed at New; the settings a stream created without
	// overrides runs with.
	templateOv Overrides

	shards [shardCount]shard

	// createMu serializes stream creation, eviction, and close, keeping
	// limit admission atomic (concurrent creations cannot collectively
	// overshoot MaxStreams/MaxBytes). The ingest hot path never takes it.
	createMu sync.Mutex
	closed   atomic.Bool

	// retiring counts detached entries whose retirement (flush or
	// hibernate, then drain — or release) has not finished. Close waits
	// for it before closing the broker, so a stream detached by a racing
	// EvictIdle, CloseStream or budget eviction still delivers its final
	// events. Add runs in detach under createMu while the manager is open
	// (or inside Close itself), so every Add happens before Close's Wait.
	retiring sync.WaitGroup

	count            atomic.Int64 // live streams across all shards
	totalBytes       atomic.Int64
	evicted          atomic.Int64
	degradedCount    atomic.Int64
	quarantinedCount atomic.Int64

	// recoveryFailures records the streams startup recovery skipped and
	// quarantined; written only inside New, immutable afterwards.
	recoveryFailures []RecoveryFailure
}

func (m *Manager) shardFor(id string) *shard {
	return &m.shards[fnv32a(id)%shardCount]
}

// New creates a Manager. The stream template is validated eagerly so a bad
// configuration fails here, not on the first push.
func New(cfg Config) (*Manager, error) {
	if cfg.Stream.OnEvent != nil {
		return nil, errors.New("manager: Stream.OnEvent must be nil (the manager owns event delivery)")
	}
	if cfg.MaxStreams < 0 {
		return nil, fmt.Errorf("manager: MaxStreams must be >= 0, got %d", cfg.MaxStreams)
	}
	if cfg.MaxBytes < 0 {
		return nil, fmt.Errorf("manager: MaxBytes must be >= 0, got %d", cfg.MaxBytes)
	}
	if cfg.IdleAfter < 0 {
		return nil, fmt.Errorf("manager: IdleAfter must be >= 0, got %v", cfg.IdleAfter)
	}
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("manager: SnapshotEvery must be >= 0, got %d", cfg.SnapshotEvery)
	}
	if _, err := stream.New(cfg.Stream); err != nil {
		return nil, fmt.Errorf("manager: stream template: %w", err)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	b := cfg.Events
	if b == nil {
		b = newBroker()
	}
	m := &Manager{
		cfg:       cfg,
		now:       now,
		broker:    b,
		snapEvery: cfg.SnapshotEvery,
	}
	// The template was just validated, so its normalized form cannot fail.
	tpl, err := cfg.Stream.Normalized()
	if err != nil {
		return nil, fmt.Errorf("manager: stream template: %w", err)
	}
	m.templateOv = Overrides{Window: tpl.Window, BufLen: tpl.BufLen, Hop: tpl.Hop, Threshold: tpl.Threshold, RebaseEvery: tpl.RebaseEvery}
	for i := range m.shards {
		m.shards[i].streams = make(map[string]*entry)
	}
	if m.snapEvery == 0 {
		m.snapEvery = 8192
	}
	if cfg.DataDir != "" {
		store, err := wal.Open(cfg.DataDir, wal.Options{Fsync: cfg.Fsync, FS: cfg.FS})
		if err != nil {
			return nil, fmt.Errorf("manager: opening data directory: %w", err)
		}
		m.store = store
		if err := m.recoverAll(); err != nil {
			_ = m.Close() // best effort: the recovery error is the one to report
			return nil, err
		}
	}
	return m, nil
}

// get looks up (and under create, makes) the entry for id. The lookup is
// the ingest hot path: one shard read lock, no global state. A non-zero
// ov either pins the settings of a newly created stream or is checked
// against an existing one (ErrStreamConfig on mismatch); the hot path
// passes the zero Overrides, which skips the check entirely. get returns
// any entries evicted to make room; the caller must drain them after all
// locks are released — which has already happened by the time get returns.
func (m *Manager) get(id string, create bool, ov Overrides) (*entry, []*entry, error) {
	if m.closed.Load() {
		return nil, nil, ErrManagerClosed
	}
	sh := m.shardFor(id)
	sh.mu.RLock()
	e := sh.streams[id]
	sh.mu.RUnlock()
	if e != nil {
		if err := m.checkOverrides(e, ov); err != nil {
			return nil, nil, err
		}
		return e, nil, nil
	}
	if !create {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	return m.create(id, sh, ov)
}

// create admits a new stream under createMu, so concurrent creations
// serialize and the MaxStreams/MaxBytes checks stay atomic.
func (m *Manager) create(id string, sh *shard, ov Overrides) (*entry, []*entry, error) {
	m.createMu.Lock()
	defer m.createMu.Unlock()
	if m.closed.Load() {
		return nil, nil, ErrManagerClosed
	}
	// Re-check under createMu: a concurrent creator may have won the race
	// between our shard read-unlock and here.
	sh.mu.RLock()
	e := sh.streams[id]
	sh.mu.RUnlock()
	if e != nil {
		if err := m.checkOverrides(e, ov); err != nil {
			return nil, nil, err
		}
		return e, nil, nil
	}
	var evicted []*entry
	if m.cfg.MaxStreams > 0 && int(m.count.Load()) >= m.cfg.MaxStreams {
		ev := m.evictLRU()
		if ev == nil {
			return nil, nil, fmt.Errorf("%w: %d live, none idle for %v", ErrTooManyStreams, m.count.Load(), m.cfg.IdleAfter)
		}
		evicted = append(evicted, ev)
	}
	// openEntry recovers persisted state when the manager is durable, so
	// a previously evicted (hibernated) stream resumes here transparently.
	e, err := m.openEntry(id, ov)
	if err != nil {
		return nil, evicted, err
	}
	fp := e.d.MemoryFootprint()
	// Admit the new stream against the byte budget while createMu is
	// held: concurrent creations serialize here, so they cannot
	// collectively overshoot — the budget admits a stream or rejects it,
	// atomically.
	if m.cfg.MaxBytes > 0 {
		for m.totalBytes.Load()+fp > m.cfg.MaxBytes {
			ev := m.evictLRU()
			if ev == nil {
				m.hibernate(e) // release the log handle; persisted state stays resumable
				return nil, evicted, fmt.Errorf("%w: %d of %d bytes in use, new stream needs %d",
					ErrOverBudget, m.totalBytes.Load(), m.cfg.MaxBytes, fp)
			}
			evicted = append(evicted, ev)
		}
	}
	e.footprint.Store(fp)
	m.totalBytes.Add(fp)
	sh.mu.Lock()
	sh.streams[id] = e
	sh.mu.Unlock()
	m.count.Add(1)
	return e, evicted, nil
}

// PushBatchN appends the points, in order, to the stream, creating it on
// first use; no other producer's points interleave with the batch. It
// reports how many points were accepted — applied to the stream (and
// write-ahead logged, when the manager is durable) before any error. Limit
// errors (ErrTooManyStreams, ErrOverBudget) reject the batch outright
// without corrupting anything; a detector error (e.g. a non-finite point)
// rejects the remainder, and the count is then the index of the offending
// point, so a client can resend exactly the unapplied remainder.
func (m *Manager) PushBatchN(id string, xs []float64) (int, error) {
	// A stream can be evicted between lookup and lock; recreating it and
	// retrying is correct (the eviction already delivered everything the
	// old incarnation could confirm — or, durable, hibernated state the
	// recreation resumes), and bounded so a pathological eviction loop
	// degrades to an error instead of spinning.
	for attempt := 0; ; attempt++ {
		if err := m.reserveBytes(); err != nil {
			return 0, err
		}
		e, evicted, err := m.get(id, true, Overrides{})
		m.retire(evicted)
		if err != nil {
			return 0, err
		}
		n, pushErr := m.pushLocked(e, xs)
		m.drain(e)
		if errors.Is(pushErr, ErrUnknownStream) && attempt < 3 {
			continue
		}
		return n, pushErr
	}
}

// pushLocked performs the push under the entry lock, write-ahead logs the
// consumed prefix, and settles the stream's accounting. An entry evicted
// between lookup and lock rejects the push with ErrUnknownStream (the
// caller may simply retry, recreating the stream); a quarantined entry
// rejects it with ErrStreamQuarantined. The returned count is the number
// of input points consumed.
//
// This is one of the manager's panic-quarantine boundaries: a panic
// escaping the detection engine is recovered here, the stream becomes a
// quarantined tombstone, and the push is reported failed — the process,
// the shard, and every other stream continue untouched. A WAL failure
// does NOT fail the push: the stream degrades (keeps detecting in
// memory, retries durability with backoff) and the caller sees success,
// with the degraded flag raised in stats and a health event published.
func (m *Manager) pushLocked(e *entry, xs []float64) (n int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, fmt.Errorf("%w: %q (evicted)", ErrUnknownStream, e.id)
	}
	if e.quarantined.Load() {
		return 0, e.quarantineErrLocked()
	}
	defer func() {
		if r := recover(); r != nil {
			cause := fmt.Errorf("panic during push: %v", r)
			m.quarantineLocked(e, cause)
			n, err = 0, fmt.Errorf("%w: %q: %v", ErrStreamQuarantined, e.id, cause)
		}
	}()
	if testHookPush != nil {
		testHookPush(e.id)
	}
	m.maybeHealLocked(e)
	before := e.d.Total()
	n, err = e.d.PushBatchN(xs)
	if e.d.Total() > before {
		e.points.Add(int64(e.d.Total() - before))
	}
	if n > 0 {
		e.lastPush.Store(m.now().UnixNano())
	}
	m.settleFootprint(e)
	// Log the consumed prefix — raw inputs, so replay re-applies the same
	// non-finite policy deterministically.
	m.appendWALLocked(e, xs[:n])
	return n, err
}

// settleFootprint re-reads the entry's footprint and folds the delta into
// the manager total. Callers hold e.mu.
func (m *Manager) settleFootprint(e *entry) {
	fp := e.d.MemoryFootprint()
	m.totalBytes.Add(fp - e.footprint.Swap(fp))
}

// reserveBytes enforces MaxBytes before a push: if the rolled-up footprint
// exceeds the budget it evicts idle streams, least-recently-pushed first,
// and rejects with ErrOverBudget if the total still does not fit. Within
// budget — the hot-path case — it is one atomic load.
func (m *Manager) reserveBytes() error {
	if m.cfg.MaxBytes == 0 || m.totalBytes.Load() <= m.cfg.MaxBytes {
		return nil
	}
	m.createMu.Lock()
	if m.closed.Load() {
		m.createMu.Unlock()
		return ErrManagerClosed
	}
	var evicted []*entry
	for m.totalBytes.Load() > m.cfg.MaxBytes {
		ev := m.evictLRU()
		if ev == nil {
			break
		}
		evicted = append(evicted, ev)
	}
	m.createMu.Unlock()
	m.retire(evicted)
	if m.totalBytes.Load() > m.cfg.MaxBytes {
		return fmt.Errorf("%w: %d of %d bytes in use", ErrOverBudget, m.totalBytes.Load(), m.cfg.MaxBytes)
	}
	return nil
}

// evictLRU detaches the least-recently-pushed evictable stream, if any,
// scanning every shard under its read lock, and returns its entry; the
// caller must retire it (flush + drain) once createMu is released.
// Callers hold createMu.
func (m *Manager) evictLRU() *entry {
	if m.cfg.IdleAfter <= 0 {
		return nil
	}
	cutoff := m.now().Add(-m.cfg.IdleAfter).UnixNano()
	var victim *entry
	var victimT int64
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, e := range sh.streams {
			// Degraded streams are not evictable: hibernation could not
			// persist their unlogged suffix, so evicting one would turn a
			// reported degradation into silent loss. Quarantined
			// tombstones hold no memory and only leave via CloseStream.
			if e.degraded.Load() || e.quarantined.Load() {
				continue
			}
			if t := e.lastPush.Load(); t <= cutoff && (victim == nil || t < victimT) {
				victim, victimT = e, t
			}
		}
		sh.mu.RUnlock()
	}
	if victim == nil {
		return nil
	}
	m.detach(victim)
	m.evicted.Add(1)
	return victim
}

// detach closes the entry to further pushes and removes it from its shard
// and the accounting. It is deliberately cheap — the expensive flush
// happens in retire, outside all table locks, so evicting or closing one
// stream never stalls the others' ingest. Callers hold createMu, which is
// what prevents two detaches of the same entry, and must call
// m.retiring.Done once the entry is retired.
func (m *Manager) detach(e *entry) {
	m.retiring.Add(1)
	e.mu.Lock()
	e.closed = true
	// A detached entry no longer counts toward the manager's health
	// tallies (its own flags stay set, so final stats still report how it
	// ended). Reading the flags under e.mu, after closed is set, is what
	// keeps the tallies exact: degrade/quarantine transitions also run
	// under e.mu and skip the tallies once closed is set.
	if e.degraded.Load() {
		m.degradedCount.Add(-1)
	}
	if e.quarantined.Load() {
		m.quarantinedCount.Add(-1)
	}
	e.mu.Unlock()
	sh := m.shardFor(e.id)
	sh.mu.Lock()
	delete(sh.streams, e.id)
	sh.mu.Unlock()
	m.count.Add(-1)
	m.totalBytes.Add(-e.footprint.Load())
}

// retire finishes detached entries. A non-durable entry is flushed —
// emitting its still-confirmable tail events into its pending queue — and
// drained to subscribers. A durable entry instead hibernates: checkpoint,
// close the log, keep the buffered tail buffered — the stream resumes
// exactly here on its next push or the next process start, and the tail's
// events are confirmed then, with full context, rather than force-flushed
// now. Runs outside createMu and all shard locks.
func (m *Manager) retire(entries []*entry) {
	for _, e := range entries {
		if m.store != nil {
			m.hibernate(e)
		} else {
			m.flush(e)
		}
		m.drain(e)
		m.retiring.Done()
	}
}

// flush flushes a detached in-memory entry, emitting its still-
// confirmable tail events. Like pushLocked, it is a panic-quarantine
// boundary: a flush that trips the engine poisons only this stream.
func (m *Manager) flush(e *entry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.quarantined.Load() || e.d == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			m.quarantineLocked(e, fmt.Errorf("panic during flush: %v", r))
		}
	}()
	// Flush only fails on detector errors already surfaced by pushes.
	_ = e.d.Flush()
}

// drain publishes the entry's pending events to the broker, preserving
// stream order: pending is swapped out under e.mu (so a full subscriber
// channel never wedges the detector) and published under sendMu (so racing
// drainers of one stream deliver in FIFO order).
func (m *Manager) drain(e *entry) {
	e.sendMu.Lock()
	defer e.sendMu.Unlock()
	for {
		e.mu.Lock()
		batch := e.pending
		e.pending = e.spare[:0]
		e.spare = batch[:0]
		e.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		m.broker.publish(batch)
	}
}

// CloseStream is the terminal close: it flushes the stream (delivering
// its final events), releases its memory, deletes any persisted state —
// unlike eviction, which hibernates a durable stream for later resumption
// — and returns its final stats.
func (m *Manager) CloseStream(id string) (StreamStats, error) {
	m.createMu.Lock()
	if m.closed.Load() {
		m.createMu.Unlock()
		return StreamStats{}, ErrManagerClosed
	}
	sh := m.shardFor(id)
	sh.mu.RLock()
	e := sh.streams[id]
	sh.mu.RUnlock()
	if e == nil {
		m.createMu.Unlock()
		return StreamStats{}, fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	m.detach(e)
	m.createMu.Unlock()
	defer m.retiring.Done()
	m.flush(e)
	e.mu.Lock()
	if e.log != nil {
		// The stream's state is about to be deleted; the close error is
		// irrelevant once the flush above has delivered the final events.
		_ = e.log.Close()
		e.log = nil
	}
	e.mu.Unlock()
	m.drain(e)
	if m.store != nil {
		if err := m.store.Remove(id); err != nil {
			return e.snapshot(), fmt.Errorf("manager: removing persisted state of %q: %w", id, err)
		}
	}
	return e.snapshot(), nil
}

// EvictIdle evicts every stream idle for at least IdleAfter (no-op when
// IdleAfter is zero), delivering their final events, and returns the final
// stats of the evicted streams. Serving layers call it on a timer so idle
// streams are reclaimed even when no limit forces the issue.
func (m *Manager) EvictIdle() []StreamStats {
	m.createMu.Lock()
	if m.closed.Load() {
		m.createMu.Unlock()
		return nil
	}
	var evicted []*entry
	for {
		ev := m.evictLRU()
		if ev == nil {
			break
		}
		evicted = append(evicted, ev)
	}
	m.createMu.Unlock()
	m.retire(evicted)
	stats := make([]StreamStats, len(evicted))
	for i, e := range evicted {
		stats[i] = e.snapshot()
	}
	return stats
}

// Subscribe registers for confirmed anomaly events — those of one stream,
// or all streams with id "". Events arrive in per-stream order on a
// channel of the given capacity (minimum 1); a full channel blocks the
// producing stream (backpressure, never loss), so keep receiving until
// cancel. The channel is closed when the manager closes; cancel is
// idempotent and only deregisters.
func (m *Manager) Subscribe(id string, buf int) (<-chan Event, func()) {
	return m.broker.subscribe(id, buf)
}

// Anomalies returns the stream's current top-K ranking within its retained
// horizon (see stream.Detector.Anomalies). The stream must exist.
func (m *Manager) Anomalies(id string) ([]stream.Event, error) {
	e, _, err := m.get(id, false, Overrides{})
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("%w: %q (evicted)", ErrUnknownStream, e.id)
	}
	if e.quarantined.Load() {
		return nil, e.quarantineErrLocked()
	}
	return e.d.Anomalies()
}

// snapshot reads the entry's counters. Safe without e.mu: every field is
// atomic or immutable.
func (e *entry) snapshot() StreamStats {
	fault, _ := e.fault.Load().(string)
	return StreamStats{
		ID:          e.id,
		Points:      e.points.Load(),
		Events:      e.events.Load(),
		MemoryBytes: e.footprint.Load(),
		Created:     e.created,
		LastPush:    time.Unix(0, e.lastPush.Load()),
		Degraded:    e.degraded.Load(),
		Quarantined: e.quarantined.Load(),
		Fault:       fault,
	}
}

// StreamStats returns one live stream's snapshot. The read takes only the
// stream's shard read lock plus atomics, so it never blocks ingest.
func (m *Manager) StreamStats(id string) (StreamStats, error) {
	e, _, err := m.get(id, false, Overrides{})
	if err != nil {
		return StreamStats{}, err
	}
	return e.snapshot(), nil
}

// Stats returns a snapshot of every live stream plus the rolled-up
// accounting, the per-stream listing sorted by id — shard-map iteration
// order is random, and a listing that shuffles between calls is useless
// to diff, page through, or merge across shards. It walks the shards one
// read lock at a time and reads per-entry counters through atomics, so
// it can run continuously against hot shards without ever blocking a
// push: pushes hold only shard read locks (which share) and entry locks
// (which Stats never takes).
func (m *Manager) Stats() Stats {
	s := Stats{
		Streams:     make([]StreamStats, 0, m.count.Load()),
		TotalBytes:  m.totalBytes.Load(),
		Evicted:     m.evicted.Load(),
		Degraded:    m.degradedCount.Load(),
		Quarantined: m.quarantinedCount.Load(),
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, e := range sh.streams {
			s.Streams = append(s.Streams, e.snapshot())
		}
		sh.mu.RUnlock()
	}
	sort.Slice(s.Streams, func(i, j int) bool { return s.Streams[i].ID < s.Streams[j].ID })
	return s
}

// TotalBytes returns the rolled-up MemoryFootprint across live streams.
func (m *Manager) TotalBytes() int64 { return m.totalBytes.Load() }

// Len returns the number of live streams.
func (m *Manager) Len() int { return int(m.count.Load()) }

// Close shuts the manager down: every stream is flushed (delivering its
// final events to subscribers), all stream memory is released, and every
// subscriber channel is closed. Close is idempotent; all later operations
// return ErrManagerClosed.
func (m *Manager) Close() error {
	m.createMu.Lock()
	if m.closed.Load() {
		m.createMu.Unlock()
		return nil
	}
	m.closed.Store(true)
	var entries []*entry
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, e := range sh.streams {
			entries = append(entries, e)
		}
		sh.mu.RUnlock()
	}
	for _, e := range entries {
		m.detach(e)
	}
	m.createMu.Unlock()
	m.retire(entries)
	// Entries detached before closed was set may still be retiring in
	// other goroutines; their final events must reach the broker first.
	m.retiring.Wait()
	if m.cfg.Events == nil {
		// A shared broker (Config.Events) outlives this manager; its
		// owner closes it after every sharing manager is down.
		m.broker.close()
	}
	return nil
}
