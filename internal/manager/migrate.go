package manager

// Stream migration surface: ExportStream captures a stream's complete
// durable state (versioned snapshot + WAL tail + accounting) without
// disturbing it, ImportStream resumes that state on another manager, and
// ReleaseStream detaches the source copy once the move has committed.
// The routing tier sequences the three under an exclusive per-stream
// latch; the commit point is ImportStream's single atomic checkpoint on
// the target, so a fault anywhere before it leaves the stream whole on
// the source.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"egi/internal/stream"
)

// StreamState is a stream's complete portable state, as captured by
// ExportStream and consumed by ImportStream. Snapshot is the versioned
// manager wrap around the detector snapshot (settings and accounting
// travel inside it); Tail is the raw input suffix logged after that
// snapshot, replayed on import.
type StreamState struct {
	// ID is the stream id.
	ID string
	// Created is when the stream was first created.
	Created time.Time
	// LastPush is the stream's idle clock at export.
	LastPush time.Time
	// Overrides holds the stream's pinned effective settings (zero means
	// the template).
	Overrides Overrides
	// WalPos is the consumed-input coordinate the state resumes at.
	WalPos int
	// Snapshot is the wrapped detector snapshot; nil for a stream that
	// has only a WAL tail.
	Snapshot []byte
	// Tail is the logged input after the snapshot.
	Tail []float64
}

// Bytes approximates the serialized size of the state, for migration
// accounting.
func (s StreamState) Bytes() int64 {
	return int64(len(s.Snapshot) + 8*len(s.Tail))
}

// ExportStream captures the stream's state for migration without
// mutating it: the source keeps running (and keeps its disk state) until
// ReleaseStream. A healthy durable stream exports its persisted snapshot
// + tail — the exact bytes a restart would resume from; a degraded or
// non-durable stream exports a fresh in-memory snapshot instead, which
// is also how migration heals a degraded stream (the import checkpoints
// it on a healthy target). A hibernated stream exports straight from
// disk. Fails with ErrUnknownStream when no state exists anywhere, and
// with the quarantine error for quarantined streams — a poisoned stream
// must not propagate.
func (m *Manager) ExportStream(id string) (StreamState, error) {
	e, _, err := m.get(id, false, Overrides{})
	if err != nil {
		if errors.Is(err, ErrUnknownStream) && m.store != nil {
			return m.exportPersisted(id)
		}
		return StreamState{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.quarantined.Load() {
		return StreamState{}, e.quarantineErrLocked()
	}
	if e.closed {
		if e.d != nil {
			// Detached for hibernation but the state is still in memory and
			// the hibernate checkpoint is queued behind our lock: export
			// from memory. Worst case the source leaves a stale shadowed
			// directory behind, never a loss.
			return m.exportMemoryLocked(e), nil
		}
		if m.store != nil {
			return m.exportPersisted(id)
		}
		return StreamState{}, fmt.Errorf("%w: %q (evicted)", ErrUnknownStream, id)
	}
	if m.store != nil && !e.degraded.Load() && e.log != nil {
		rec, err := m.store.Read(id)
		// The persisted coordinate must cover everything acked; a lagging
		// or unreadable store falls back to the in-memory state.
		if err == nil && rec.SnapTotal+len(rec.Tail) == e.walPos {
			return StreamState{
				ID:        id,
				Created:   e.created,
				LastPush:  time.Unix(0, e.lastPush.Load()),
				Overrides: e.overrides,
				WalPos:    e.walPos,
				Snapshot:  rec.Snapshot,
				Tail:      rec.Tail,
			}, nil
		}
	}
	return m.exportMemoryLocked(e), nil
}

// exportMemoryLocked captures the live in-memory state as a fresh
// snapshot with no tail. Callers hold e.mu.
func (m *Manager) exportMemoryLocked(e *entry) StreamState {
	return StreamState{
		ID:        e.id,
		Created:   e.created,
		LastPush:  time.Unix(0, e.lastPush.Load()),
		Overrides: e.overrides,
		WalPos:    e.walPos,
		Snapshot:  e.wrapSnapshot(e.d.Snapshot()),
	}
}

// exportPersisted captures a non-live (hibernated) stream's state from
// its on-disk snapshot + tail.
func (m *Manager) exportPersisted(id string) (StreamState, error) {
	rec, err := m.store.Read(id)
	if err != nil {
		return StreamState{}, fmt.Errorf("manager: reading persisted stream %q: %w", id, err)
	}
	if rec.Snapshot == nil && len(rec.Tail) == 0 {
		return StreamState{}, fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	st := StreamState{
		ID:     id,
		WalPos: rec.SnapTotal + len(rec.Tail),
		Tail:   rec.Tail,
	}
	if rec.Snapshot != nil {
		meta, _, err := unwrapSnapshot(rec.Snapshot)
		if err != nil {
			return StreamState{}, fmt.Errorf("manager: reading persisted stream %q: %w", id, err)
		}
		st.Snapshot = rec.Snapshot
		st.Overrides = meta.overrides
		st.Created = time.Unix(0, meta.createdNano)
	}
	return st, nil
}

// ImportStream resumes an exported stream on this manager. The state is
// rebuilt in memory (snapshot restore + tail replay) and, on a durable
// manager, persisted as ONE atomic checkpoint — the migration's commit
// point: any failure before that checkpoint succeeds leaves this manager
// without the stream and the source copy authoritative. Importing over a
// live stream of the same id fails; stale on-disk state from an earlier
// incarnation is removed first. Admission (MaxStreams/MaxBytes) applies
// as for a new stream.
func (m *Manager) ImportStream(st StreamState) error {
	if st.ID == "" {
		return errors.New("manager: importing stream with empty id")
	}
	if st.Snapshot == nil && len(st.Tail) == 0 {
		return fmt.Errorf("manager: importing stream %q with no state", st.ID)
	}
	var evicted []*entry
	err := m.importLocked(st, &evicted)
	m.retire(evicted)
	return err
}

// importLocked is ImportStream's admission + construction under createMu;
// entries evicted to make room are appended to *evicted for the caller to
// retire after the lock is released.
func (m *Manager) importLocked(st StreamState, evicted *[]*entry) error {
	sh := m.shardFor(st.ID)
	m.createMu.Lock()
	defer m.createMu.Unlock()
	if m.closed.Load() {
		return ErrManagerClosed
	}
	sh.mu.RLock()
	_, live := sh.streams[st.ID]
	sh.mu.RUnlock()
	if live {
		return fmt.Errorf("manager: importing stream %q: already live here", st.ID)
	}
	if m.cfg.MaxStreams > 0 && int(m.count.Load()) >= m.cfg.MaxStreams {
		ev := m.evictLRU()
		if ev == nil {
			return fmt.Errorf("%w: %d live, none idle for %v", ErrTooManyStreams, m.count.Load(), m.cfg.IdleAfter)
		}
		*evicted = append(*evicted, ev)
	}

	e := &entry{id: st.ID, created: m.now()}
	cfg := m.cfg.Stream
	cfg.OnEvent = func(ev stream.Event) {
		e.pending = append(e.pending, Event{Stream: st.ID, Anomaly: ev})
		e.events.Add(1)
	}
	eff := st.Overrides
	if eff.IsZero() {
		eff = m.templateOv
	}
	e.overrides = eff
	eff.applyEffective(&cfg)
	var meta snapMeta
	var det []byte
	if st.Snapshot != nil {
		var err error
		if meta, det, err = unwrapSnapshot(st.Snapshot); err != nil {
			return fmt.Errorf("manager: importing stream %q: %w", st.ID, err)
		}
	}
	if err := m.resumeEntry(e, cfg, st.Snapshot != nil, meta, det, st.Tail); err != nil {
		return fmt.Errorf("manager: importing stream %q: %w", st.ID, err)
	}
	// The source already delivered every event up to the export point;
	// confirmations replayed from the tail must not be re-announced here.
	e.pending = nil
	e.walPos = st.WalPos
	e.sinceSnap = 0
	e.points.Store(int64(e.d.Total()))
	if !st.Created.IsZero() {
		e.created = st.Created
	}
	if st.LastPush.IsZero() {
		e.lastPush.Store(m.now().UnixNano())
	} else {
		e.lastPush.Store(st.LastPush.UnixNano())
	}

	// Admit against the byte budget BEFORE the durable commit, so a
	// rejection needs no disk rollback.
	fp := e.d.MemoryFootprint()
	if m.cfg.MaxBytes > 0 {
		for m.totalBytes.Load()+fp > m.cfg.MaxBytes {
			ev := m.evictLRU()
			if ev == nil {
				return fmt.Errorf("%w: %d of %d bytes in use, imported stream needs %d",
					ErrOverBudget, m.totalBytes.Load(), m.cfg.MaxBytes, fp)
			}
			*evicted = append(*evicted, ev)
		}
	}

	if m.store != nil {
		// Clear any stale state from an earlier incarnation of this id,
		// then persist the imported state as one atomic checkpoint — the
		// commit point.
		if err := m.store.Remove(st.ID); err != nil {
			return fmt.Errorf("manager: importing stream %q: clearing stale state: %w", st.ID, err)
		}
		log, _, err := m.store.OpenStream(st.ID)
		if err != nil {
			return fmt.Errorf("manager: importing stream %q: %w", st.ID, err)
		}
		e.log = log
		if err := m.checkpointLocked(e); err != nil {
			_ = e.log.Close()
			e.log = nil
			_ = m.store.Remove(st.ID)
			return fmt.Errorf("manager: importing stream %q: %w", st.ID, err)
		}
	}

	e.footprint.Store(fp)
	m.totalBytes.Add(fp)
	sh.mu.Lock()
	sh.streams[st.ID] = e
	sh.mu.Unlock()
	m.count.Add(1)
	return nil
}

// ReleaseStream detaches the stream from this manager WITHOUT flushing
// its detector and removes its persisted state: the post-commit cleanup
// on a migration's source side. Unlike CloseStream no final events are
// produced — the target continues the stream, so flushing here would
// announce events the target will also announce; events already
// confirmed (they precede the export point) are still drained to
// subscribers. Fails with ErrUnknownStream only when the stream is
// neither live nor on disk.
func (m *Manager) ReleaseStream(id string) error {
	m.createMu.Lock()
	if m.closed.Load() {
		m.createMu.Unlock()
		return ErrManagerClosed
	}
	sh := m.shardFor(id)
	sh.mu.RLock()
	e := sh.streams[id]
	sh.mu.RUnlock()
	if e != nil {
		m.detach(e)
	}
	m.createMu.Unlock()
	if e != nil {
		defer m.retiring.Done()
		e.mu.Lock()
		if e.log != nil {
			// No checkpoint: the target owns the state now, and this
			// directory is about to be removed.
			_ = e.log.Close()
			e.log = nil
		}
		e.d = nil
		e.mu.Unlock()
		m.drain(e)
	}
	if m.store != nil {
		if err := m.store.Remove(id); err != nil {
			return fmt.Errorf("manager: releasing stream %q: %w", id, err)
		}
		return nil
	}
	if e == nil {
		return fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	return nil
}

// StreamIDs lists every stream this manager holds — live entries plus
// hibernated on-disk state — sorted and deduplicated. Nil after Close.
func (m *Manager) StreamIDs() []string {
	if m.closed.Load() {
		return nil
	}
	seen := make(map[string]struct{})
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for id := range sh.streams {
			seen[id] = struct{}{}
		}
		sh.mu.RUnlock()
	}
	if m.store != nil {
		if ids, err := m.store.List(); err == nil {
			for _, id := range ids {
				seen[id] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
