package router

// Rebalancing: Resize changes the member count and Drain empties one
// member; both then migrate every stream whose placement changed, one at
// a time, live. The protocol per stream:
//
//  1. quiesce — take the stream's latch exclusively, blocking its pushes
//     and queries (other streams flow untouched);
//  2. export — capture the versioned snapshot + WAL tail on the source,
//     without mutating it;
//  3. import — resume the state on the target; its single atomic
//     checkpoint is the commit point;
//  4. release — discard the source copy, repoint the placement (drop or
//     rewrite the pin), and unlatch: blocked operations resolve the
//     owner afresh and land on the target.
//
// A failure at any step before the commit leaves the stream whole and
// pinned on the source — a fault during migration degrades rebalancing,
// never durability, and acknowledged points are never lost.

import (
	"errors"
	"fmt"
	"sort"

	"egi/internal/manager"
)

// move is one planned stream migration.
type move struct {
	id       string
	from, to *member
}

// Resize grows or shrinks the member set to n members, migrating every
// stream whose rendezvous owner changed — ~1/M of them per member
// added or removed. Growing requires Config.Grow. Shrinking removes the
// highest-indexed members: each is first drained (its streams migrate to
// the survivors), then closed and dropped. Serialized with Drain and
// Close; serving traffic continues throughout.
func (r *Router) Resize(n int) error {
	if n < 1 {
		return fmt.Errorf("%w: resize to %d", ErrNoMembers, n)
	}
	r.adminMu.Lock()
	defer r.adminMu.Unlock()

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errors.New("router: resize on closed router")
	}
	cur := len(r.members)
	if n == cur {
		r.mu.Unlock()
		return nil
	}
	if n > cur {
		if r.grow == nil {
			r.mu.Unlock()
			return ErrNoGrow
		}
		added := make([]*member, 0, n-cur)
		for len(r.members)+len(added) < n {
			m, err := r.grow(r.nextGrow)
			if err != nil {
				r.mu.Unlock()
				return fmt.Errorf("router: growing member %d: %w", r.nextGrow, err)
			}
			if m.Name == "" || m.Host == nil {
				r.mu.Unlock()
				return fmt.Errorf("router: Grow(%d) returned an invalid member", r.nextGrow)
			}
			r.nextGrow++
			added = append(added, &member{name: m.Name, h: m.Host})
		}
		r.members = append(r.members, added...)
	} else {
		// The survivors are r.members[:n]; at least one of them must
		// already be live (members drained earlier may sit anywhere).
		live := 0
		for _, m := range r.members[:n] {
			if !m.draining {
				live++
			}
		}
		if live < 1 {
			r.mu.Unlock()
			return fmt.Errorf("%w: resize to %d would drain every live member", ErrNoMembers, n)
		}
		for _, m := range r.members[n:] {
			m.draining = true
		}
	}
	// Wait out operations routed under the old table — an in-flight push
	// can still create a stream on the owner it resolved — while r.mu
	// keeps new ones from routing, then install the pins atomically with
	// the table change, so no stream is ever reachable at two owners.
	for _, m := range r.members {
		m.quiesce()
	}
	r.version.Add(1)
	moves := r.planMovesLocked()
	r.mu.Unlock()

	err := r.runMoves(moves)

	if n < cur {
		var errs []error
		if err != nil {
			errs = append(errs, err)
		}
		// Drop the drained members that are now empty; a member still
		// holding streams (a migration failed) stays, draining, so its
		// streams keep serving — the next Resize or Drain retries. Each
		// empty member is removed from the table FIRST and quiesced, so
		// no in-flight call can land on it between the emptiness check
		// and the close.
		r.mu.Lock()
		kept := r.members[:0]
		var closing []*member
		for _, m := range r.members {
			if m.draining && len(m.h.StreamIDs()) == 0 {
				closing = append(closing, m)
				continue
			}
			kept = append(kept, m)
		}
		r.members = kept
		if len(closing) > 0 {
			r.version.Add(1)
		}
		r.mu.Unlock()
		for _, m := range closing {
			m.quiesce()
			if ids := m.h.StreamIDs(); len(ids) != 0 {
				// A straggler landed after the emptiness check: keep the
				// member rather than close acknowledged state away.
				r.mu.Lock()
				r.members = append(r.members, m)
				r.mu.Unlock()
				errs = append(errs, fmt.Errorf("router: member %q not empty after drain (%d streams); kept draining", m.name, len(ids)))
				continue
			}
			if cerr := m.h.Close(); cerr != nil {
				errs = append(errs, fmt.Errorf("router: closing drained member %q: %w", m.name, cerr))
			}
		}
		err = errors.Join(errs...)
	}
	return err
}

// Drain marks the named member draining — it receives no new streams —
// and migrates everything it holds to the remaining members. The member
// stays in the set, empty, until a shrinking Resize removes it. Returns
// the first migration error; partially drained is safe (unmoved streams
// stay pinned and serving on the draining member).
func (r *Router) Drain(name string) error {
	r.adminMu.Lock()
	defer r.adminMu.Unlock()

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errors.New("router: drain on closed router")
	}
	var target *member
	live := 0
	for _, m := range r.members {
		if !m.draining {
			live++
		}
		if m.name == name {
			target = m
		}
	}
	if target == nil {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownMember, name)
	}
	if !target.draining {
		if live <= 1 {
			r.mu.Unlock()
			return fmt.Errorf("%w: draining %q would leave none", ErrNoMembers, name)
		}
		target.draining = true
		r.version.Add(1)
	}
	// Wait out calls routed while the member was still eligible — an
	// in-flight push can still create a stream on it — before planning,
	// as Resize does.
	target.quiesce()
	moves := r.planMovesLocked()
	r.mu.Unlock()

	return r.runMoves(moves)
}

// planMovesLocked computes where every stream lives versus where the
// current table places it, and plans a migration for each mismatch. Each
// to-be-moved stream is pinned to its current holder first, so routing
// keeps landing on the live copy until its move commits. Duplicate
// holders (possible only after a crash between commit and release in a
// previous incarnation) resolve in favor of the rendezvous owner, then
// the first holder. Moves come out sorted by stream id, for
// deterministic progression. Callers hold r.mu.
func (r *Router) planMovesLocked() []move {
	holders := make(map[string]*member)
	for _, m := range r.members {
		for _, id := range m.h.StreamIDs() {
			if prev, dup := holders[id]; dup {
				owner := r.ownerLockedByName(id)
				if m != owner || prev == owner {
					continue // keep prev
				}
			}
			holders[id] = m
		}
	}
	var moves []move
	for id, holder := range holders {
		owner := r.ownerLockedByName(id)
		if owner == nil || owner == holder {
			if _, pinned := r.pins[id]; pinned && owner == holder {
				delete(r.pins, id) // already home; the pin is stale
			}
			continue
		}
		r.pins[id] = holder.name
		moves = append(moves, move{id: id, from: holder, to: owner})
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].id < moves[j].id })
	return moves
}

// ownerLockedByName resolves id's rendezvous owner member, nil when all
// members drain. Callers hold r.mu.
func (r *Router) ownerLockedByName(id string) *member {
	if i := r.ownerIndexLocked(id); i >= 0 {
		return r.members[i]
	}
	return nil
}

// runMoves migrates the planned streams one at a time, collecting
// per-stream failures; a failed move leaves its stream pinned and
// serving on the source.
func (r *Router) runMoves(moves []move) error {
	var errs []error
	for _, mv := range moves {
		if err := r.migrate(mv); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// migrate executes one stream's quiesce → export → import → release
// under its exclusive latch.
func (r *Router) migrate(mv move) error {
	l := r.latches.acquire(mv.id)
	l.Lock()
	defer func() {
		l.Unlock()
		r.latches.release(mv.id, l)
	}()

	st, err := mv.from.h.ExportStream(mv.id)
	if err != nil {
		if errors.Is(err, manager.ErrUnknownStream) {
			// The stream was closed while the plan was in flight; nothing
			// to move.
			r.mu.Lock()
			delete(r.pins, mv.id)
			r.mu.Unlock()
			return nil
		}
		r.migrationFails.Add(1)
		return fmt.Errorf("router: exporting %q from %q: %w", mv.id, mv.from.name, err)
	}
	if err := mv.to.h.ImportStream(st); err != nil {
		// Pre-commit failure: the source copy is untouched and stays
		// pinned; the stream keeps serving there.
		r.migrationFails.Add(1)
		return fmt.Errorf("router: importing %q on %q: %w", mv.id, mv.to.name, err)
	}
	// Committed: the target is authoritative from here on.
	relErr := mv.from.h.ReleaseStream(mv.id)
	r.mu.Lock()
	if owner := r.ownerLockedByName(mv.id); owner == mv.to {
		delete(r.pins, mv.id)
	} else {
		r.pins[mv.id] = mv.to.name
	}
	r.mu.Unlock()
	r.migrations.Add(1)
	r.migrationBytes.Add(st.Bytes())
	if relErr != nil {
		// The move itself succeeded; a failed source release only leaves
		// shadowed stale state behind, reported but not fatal.
		return fmt.Errorf("router: releasing %q from %q after move: %w", mv.id, mv.from.name, relErr)
	}
	return nil
}

// MemberMetrics is one member's slice of the router metrics.
type MemberMetrics struct {
	// Name is the member name.
	Name string
	// Draining reports the member is being emptied.
	Draining bool
	// Streams is the member's live stream count.
	Streams int
	// Bytes is the member's rolled-up memory footprint.
	Bytes int64
}

// Metrics is a point-in-time snapshot of the router's own counters, the
// feed for the /metrics exposition.
type Metrics struct {
	// Version is the current placement-table generation.
	Version uint64
	// Members lists per-member placement state.
	Members []MemberMetrics
	// Pinned is the number of streams placed by pin rather than
	// rendezvous.
	Pinned int
	// Lookups counts route resolutions since start.
	Lookups int64
	// Migrations counts committed stream moves since start.
	Migrations int64
	// MigrationBytes sums the state bytes of committed moves.
	MigrationBytes int64
	// MigrationFailures counts moves that failed before commit (the
	// stream stayed on its source).
	MigrationFailures int64
}

// Metrics snapshots the router counters.
func (r *Router) Metrics() Metrics {
	r.mu.RLock()
	m := Metrics{
		Version:           r.version.Load(),
		Members:           make([]MemberMetrics, 0, len(r.members)),
		Pinned:            len(r.pins),
		Lookups:           r.lookups.Load(),
		Migrations:        r.migrations.Load(),
		MigrationBytes:    r.migrationBytes.Load(),
		MigrationFailures: r.migrationFails.Load(),
	}
	members := make([]*member, len(r.members))
	copy(members, r.members)
	r.mu.RUnlock()
	for _, mem := range members {
		m.Members = append(m.Members, MemberMetrics{
			Name:     mem.name,
			Draining: mem.draining,
			Streams:  mem.h.Len(),
			Bytes:    mem.h.TotalBytes(),
		})
	}
	return m
}
