// Package router is the scale-out serving tier: a Router implements the
// same host.StreamHost surface as one manager over M member hosts,
// placing each stream on a member by rendezvous (highest-random-weight)
// hashing of its id. Placement is deterministic and table-free — every
// router instance over the same member names computes the same owners —
// and resizing remaps only the streams whose winning member changed,
// ~1/M of them.
//
// The placement table is versioned and layered: rendezvous decides the
// default owner, and a pin (stream id → member) overrides it for streams
// that are not where rendezvous now says, either because the member set
// just changed or because a previous migration was interrupted. Resize
// and Drain migrate pinned streams to their owners live: each stream is
// quiesced under an exclusive per-stream latch (pushes for that one
// stream block, everything else flows), its versioned snapshot + WAL
// tail are exported from the source, imported on the target — whose
// single atomic checkpoint is the commit point — and the source copy is
// released. A fault anywhere before the commit leaves the stream intact
// on the source, still pinned there; acknowledged points are never lost.
//
// Lock hierarchy: adminMu → stream latch → r.mu → member gate → the
// member's own locks, always in that order. A routed call takes its
// stream latch shared, then resolves its member under r.mu shared and
// enters the member's gate before releasing r.mu; it never takes r.mu
// again while inside the gate. Resize and Drain (under adminMu) raise
// the gate barrier while holding r.mu exclusively, and a migration
// takes r.mu only inside its exclusive stream latch.
package router

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"egi/internal/host"
	"egi/internal/manager"
	"egi/internal/stream"
)

// Errors reported by the router.
var (
	// ErrUnknownMember is returned by Drain for a member name the router
	// does not have.
	ErrUnknownMember = errors.New("router: unknown member")
	// ErrNoMembers rejects an operation that would leave the router with
	// no live (non-draining) member.
	ErrNoMembers = errors.New("router: no live members")
	// ErrNoGrow rejects growing the member set when Config.Grow is nil.
	ErrNoGrow = errors.New("router: no Grow function configured")
)

// Member is one serving node behind the router: a name (the rendezvous
// identity — stable across restarts) and the host it serves on.
type Member struct {
	// Name identifies the member in the hash ring; placement depends
	// only on the set of names, so keep them stable.
	Name string
	// Host serves the member's streams and supports migration.
	Host host.MigratableHost
}

// Config parameterizes a Router.
type Config struct {
	// Members is the initial member set; at least one, names unique and
	// non-empty.
	Members []Member
	// Grow, when non-nil, builds the i-th additional member for
	// Resize-up (i counts monotonically from the initial set and never
	// repeats, so names stay collision-free across grow/shrink cycles).
	Grow func(i int) (Member, error)
}

// member is a Member plus its routing state.
type member struct {
	name     string
	h        host.MigratableHost
	draining bool // excluded from new placements; being emptied

	// gate tracks operations routed to this member: every routed call
	// holds it shared for its duration (acquired while r.mu is held, so a
	// membership change happens-before or happens-after any given route).
	// quiesce takes it exclusively as a barrier, letting Resize and Drain
	// wait out calls that routed under the previous placement table —
	// without it, an in-flight push could create a stream on a member
	// after its streams were planned (or worse, after it was emptied and
	// is about to close), silently stranding acknowledged points. A call
	// holding the gate never takes r.mu, so the barrier may be raised
	// with r.mu held.
	gate sync.RWMutex
}

// quiesce returns once every operation routed to m before the call has
// finished. With r.mu held exclusively no new operation can route to m
// meanwhile, so m is then idle until r.mu is released.
func (m *member) quiesce() {
	m.gate.Lock()
	//lint:ignore SA2001 empty critical section is the barrier
	m.gate.Unlock()
}

// Router implements host.StreamHost over M member hosts. All methods
// are safe for concurrent use; Resize, Drain and Close serialize among
// themselves but run concurrently with serving traffic — only streams
// actually being moved block, one at a time, for the duration of their
// move.
type Router struct {
	grow func(i int) (Member, error)

	// mu guards the routing state: members, pins, closed. Read-locked on
	// every route resolution, write-locked only by membership changes and
	// pin updates.
	mu      sync.RWMutex
	members []*member
	pins    map[string]string // stream id → member name, overriding rendezvous
	closed  bool

	// version counts placement-table generations; it bumps on every
	// membership change.
	version atomic.Uint64

	// adminMu serializes Resize, Drain, and Close.
	adminMu  sync.Mutex
	nextGrow int // next index handed to grow; monotonic, never reused

	latches *latchSet

	lookups        atomic.Int64
	migrations     atomic.Int64
	migrationBytes atomic.Int64
	migrationFails atomic.Int64
}

// New builds a Router over the configured members and reconciles
// placement with what the members already hold: a stream found on a
// member other than its rendezvous owner (state from a previous member
// set, or from an interrupted move) is pinned where it lives, so it
// keeps serving correctly and the next Resize or Drain migrates it home.
func New(cfg Config) (*Router, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("router: at least one member required")
	}
	seen := make(map[string]struct{}, len(cfg.Members))
	r := &Router{
		grow:     cfg.Grow,
		pins:     make(map[string]string),
		nextGrow: len(cfg.Members),
		latches:  newLatchSet(),
	}
	for _, m := range cfg.Members {
		if m.Name == "" {
			return nil, errors.New("router: member with empty name")
		}
		if m.Host == nil {
			return nil, fmt.Errorf("router: member %q has no host", m.Name)
		}
		if _, dup := seen[m.Name]; dup {
			return nil, fmt.Errorf("router: duplicate member name %q", m.Name)
		}
		seen[m.Name] = struct{}{}
		r.members = append(r.members, &member{name: m.Name, h: m.Host})
	}
	r.version.Store(1)
	r.reconcile()
	return r, nil
}

// hrwWeight is the rendezvous weight of (member, id): FNV-1a 64 over the
// member name, a zero separator byte, and the stream id, passed through
// a 64-bit avalanche finalizer. The finalizer matters: raw FNV of
// near-identical inputs (sequential stream ids) is biased enough that
// taking the per-member maximum skews placement by several x; the mix
// restores uniformity. The highest weight wins.
func hrwWeight(memberName, id string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(memberName); i++ {
		h ^= uint64(memberName[i])
		h *= prime
	}
	h *= prime // separator byte 0x00: XOR with zero, then mix
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ownerIndexLocked returns the index of id's rendezvous owner among the
// non-draining members, or -1 when every member is draining. Ties break
// to the lower index. Callers hold r.mu.
func (r *Router) ownerIndexLocked(id string) int {
	best, bestW := -1, uint64(0)
	for i, m := range r.members {
		if m.draining {
			continue
		}
		w := hrwWeight(m.name, id)
		if best == -1 || w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// homeLocked resolves the member serving id right now: its pin if one
// exists, its rendezvous owner otherwise. Callers hold r.mu.
func (r *Router) homeLocked(id string) (*member, error) {
	if r.closed {
		return nil, manager.ErrManagerClosed
	}
	if name, ok := r.pins[id]; ok {
		for _, m := range r.members {
			if m.name == name {
				return m, nil
			}
		}
		// A pin to a vanished member cannot happen through the public
		// surface (members are only removed once empty), but fail loud
		// rather than silently rerouting if it ever does.
		return nil, fmt.Errorf("%w: pinned member %q", ErrUnknownMember, name)
	}
	if i := r.ownerIndexLocked(id); i >= 0 {
		return r.members[i], nil
	}
	return nil, ErrNoMembers
}

// route resolves id's serving member, counting the lookup and entering
// the member's gate; the caller must release the gate (m.gate.RUnlock)
// when its operation on the member finishes.
func (r *Router) route(id string) (*member, error) {
	r.lookups.Add(1)
	r.mu.RLock()
	m, err := r.homeLocked(id)
	if err == nil {
		m.gate.RLock()
	}
	r.mu.RUnlock()
	return m, err
}

// withStream runs fn against id's serving host under the stream's shared
// latch: operations on different streams proceed concurrently, while a
// migration of this stream (which holds the latch exclusively) quiesces
// them until the stream is resumed on its new home — where this very
// call then lands, because owner resolution happens inside the latch.
// The member's gate is held shared throughout fn, so membership changes
// can wait out calls routed under the table they replaced.
func (r *Router) withStream(id string, fn func(h host.MigratableHost) error) error {
	l := r.latches.acquire(id)
	l.RLock()
	defer func() {
		l.RUnlock()
		r.latches.release(id, l)
	}()
	m, err := r.route(id)
	if err != nil {
		return err
	}
	defer m.gate.RUnlock()
	return fn(m.h)
}

// reconcile pins every stream that is not on its rendezvous owner to the
// member actually holding it. When duplicates exist (a crash between a
// migration's commit and its source release), the rendezvous owner wins
// if it holds a copy; otherwise the first holder does — the losers'
// state is shadowed and cleaned up by the next migration of that id.
func (r *Router) reconcile() {
	r.mu.Lock()
	defer r.mu.Unlock()
	holders := make(map[string][]int)
	for i, m := range r.members {
		for _, id := range m.h.StreamIDs() {
			holders[id] = append(holders[id], i)
		}
	}
	for id, hs := range holders {
		owner := r.ownerIndexLocked(id)
		onOwner := false
		for _, i := range hs {
			if i == owner {
				onOwner = true
				break
			}
		}
		if onOwner {
			continue
		}
		r.pins[id] = r.members[hs[0]].name
	}
}

// OpenStream creates the stream on its placed member if it does not exist
// yet, with per-stream setting overrides; idempotent for equal effective
// settings. The pinned settings migrate with the stream.
func (r *Router) OpenStream(id string, ov manager.Overrides) error {
	return r.withStream(id, func(h host.MigratableHost) error { return h.OpenStream(id, ov) })
}

// PushBatchN appends the points, in order, on the stream's placed member,
// reporting how many were accepted before any error.
func (r *Router) PushBatchN(id string, xs []float64) (n int, err error) {
	err = r.withStream(id, func(h host.MigratableHost) error {
		n, err = h.PushBatchN(id, xs)
		return err
	})
	return n, err
}

// Anomalies returns the stream's current top-K ranking from its placed
// member.
func (r *Router) Anomalies(id string) (evs []stream.Event, err error) {
	err = r.withStream(id, func(h host.MigratableHost) error {
		evs, err = h.Anomalies(id)
		return err
	})
	return evs, err
}

// Subscribe registers for confirmed events — one stream's, or all
// streams with id "". The member managers share one event broker (the
// router's builder wires manager.Config.Events), so subscribing through
// any member observes every member's events; delegating to the first
// also keeps per-stream order across migrations, because a moving
// stream's source events are delivered into subscriber channels before
// the target publishes its first.
func (r *Router) Subscribe(id string, buf int) (<-chan manager.Event, func()) {
	r.mu.RLock()
	m := r.members[0]
	r.mu.RUnlock()
	return m.h.Subscribe(id, buf)
}

// StreamStats snapshots one live stream, naming its serving shard.
func (r *Router) StreamStats(id string) (st manager.StreamStats, err error) {
	err = r.withStream(id, func(h host.MigratableHost) error {
		st, err = h.StreamStats(id)
		return err
	})
	if err == nil {
		st.Shard = r.shardOf(id)
	}
	return st, err
}

// shardOf names the member currently serving id ("" when the router is
// closed mid-call).
func (r *Router) shardOf(id string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, err := r.homeLocked(id)
	if err != nil {
		return ""
	}
	return m.name
}

// CloseStream terminally closes the stream on its placed member and
// drops any pin it held.
func (r *Router) CloseStream(id string) (manager.StreamStats, error) {
	l := r.latches.acquire(id)
	l.RLock()
	defer func() {
		l.RUnlock()
		r.latches.release(id, l)
	}()
	m, err := r.route(id)
	if err != nil {
		return manager.StreamStats{}, err
	}
	st, err := m.h.CloseStream(id)
	// Release the member gate before taking r.mu: route takes the gate
	// while holding r.mu, so r.mu taken under the gate deadlocks against
	// a quiesce waiting on that gate. The stream latch is still held.
	m.gate.RUnlock()
	if err == nil {
		r.mu.Lock()
		delete(r.pins, id)
		r.mu.Unlock()
	}
	return st, err
}

// SnapshotStream forces a durability checkpoint of the stream on its
// placed member.
func (r *Router) SnapshotStream(id string) error {
	return r.withStream(id, func(h host.MigratableHost) error { return h.SnapshotStream(id) })
}

// ReplayStream re-derives the stream's events from its placed member's
// persisted state.
func (r *Router) ReplayStream(id string, fn func(hop int, ev stream.Event) error) (n int, err error) {
	err = r.withStream(id, func(h host.MigratableHost) error {
		n, err = h.ReplayStream(id, fn)
		return err
	})
	return n, err
}

// Stats merges every member's snapshot, naming each stream's shard; the
// combined listing is sorted by id.
func (r *Router) Stats() manager.Stats {
	var out manager.Stats
	for _, m := range r.membersNow() {
		s := m.h.Stats()
		for i := range s.Streams {
			s.Streams[i].Shard = m.name
		}
		out.Streams = append(out.Streams, s.Streams...)
		out.TotalBytes += s.TotalBytes
		out.Evicted += s.Evicted
		out.Degraded += s.Degraded
		out.Quarantined += s.Quarantined
	}
	sort.Slice(out.Streams, func(i, j int) bool { return out.Streams[i].ID < out.Streams[j].ID })
	return out
}

// EvictIdle sweeps every member, returning the evicted streams' final
// stats sorted by id, each naming the shard it was evicted from.
func (r *Router) EvictIdle() []manager.StreamStats {
	var out []manager.StreamStats
	for _, m := range r.membersNow() {
		evicted := m.h.EvictIdle()
		for i := range evicted {
			evicted[i].Shard = m.name
		}
		out = append(out, evicted...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RecoveryFailures merges every member's startup-recovery failures,
// sorted by stream id.
func (r *Router) RecoveryFailures() []manager.RecoveryFailure {
	var out []manager.RecoveryFailure
	for _, m := range r.membersNow() {
		out = append(out, m.h.RecoveryFailures()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out
}

// StreamIDs lists every stream across members, sorted and deduplicated.
func (r *Router) StreamIDs() []string {
	seen := make(map[string]struct{})
	for _, m := range r.membersNow() {
		for _, id := range m.h.StreamIDs() {
			seen[id] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// TotalBytes sums the members' rolled-up memory footprints.
func (r *Router) TotalBytes() int64 {
	var total int64
	for _, m := range r.membersNow() {
		total += m.h.TotalBytes()
	}
	return total
}

// Len sums the members' live stream counts.
func (r *Router) Len() int {
	total := 0
	for _, m := range r.membersNow() {
		total += m.h.Len()
	}
	return total
}

// membersNow snapshots the member slice under the read lock.
func (r *Router) membersNow() []*member {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*member, len(r.members))
	copy(out, r.members)
	return out
}

// Close shuts every member down. Idempotent; later operations fail with
// manager.ErrManagerClosed.
func (r *Router) Close() error {
	r.adminMu.Lock()
	defer r.adminMu.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	members := make([]*member, len(r.members))
	copy(members, r.members)
	r.mu.Unlock()
	var errs []error
	for _, m := range members {
		if err := m.h.Close(); err != nil {
			errs = append(errs, fmt.Errorf("router: closing member %q: %w", m.name, err))
		}
	}
	return errors.Join(errs...)
}

var _ host.StreamHost = (*Router)(nil)
