// Package host defines the serving-tier seam: StreamHost is the
// interface a stream-serving node exposes — everything internal/manager
// provides to the public API and the HTTP server — so callers can run
// against one Manager or a whole routed fleet of them without knowing
// which. Ingest crosses the seam through exactly two methods: OpenStream
// (create, optionally with per-stream overrides) and PushBatchN (append a
// batch, reporting the accepted prefix); a single point is a batch of
// one, and conveniences such as egi.Manager.Push live above the seam.
// internal/router implements StreamHost over many member hosts;
// MigratableHost is the extra surface (export / import / release) a
// member must provide for the router to move streams between members
// live.
package host

import (
	"egi/internal/manager"
	"egi/internal/stream"
)

// StreamHost is the serving surface of a stream-hosting node: ingest,
// queries, events, stats, durability operations, and lifecycle. Both
// *manager.Manager and *router.Router implement it; everything above the
// serving tier (the public egi API, egiserve, the quality and chaos
// harnesses) programs against this interface.
type StreamHost interface {
	// OpenStream creates the stream if it does not exist yet, with
	// per-stream setting overrides (zero Overrides: the template).
	// Idempotent for equal effective settings; fails with
	// manager.ErrStreamConfig when the stream exists with different ones.
	OpenStream(id string, ov manager.Overrides) error
	// PushBatchN appends the points, in order, creating the stream on
	// first use, and reports how many were accepted before any error. A
	// single point is a batch of one.
	PushBatchN(id string, xs []float64) (int, error)
	// Anomalies returns the stream's current top-K ranking.
	Anomalies(id string) ([]stream.Event, error)
	// Subscribe registers for confirmed events of one stream ("" for
	// all); the cancel deregisters.
	Subscribe(id string, buf int) (<-chan manager.Event, func())
	// Stats snapshots every live stream plus rolled-up accounting.
	Stats() manager.Stats
	// StreamStats snapshots one live stream.
	StreamStats(id string) (manager.StreamStats, error)
	// CloseStream terminally closes the stream and returns its final
	// stats.
	CloseStream(id string) (manager.StreamStats, error)
	// EvictIdle evicts every stream idle past the configured horizon.
	EvictIdle() []manager.StreamStats
	// SnapshotStream forces a durability checkpoint of the stream now.
	SnapshotStream(id string) error
	// ReplayStream re-derives a stream's events from persisted state.
	ReplayStream(id string, fn func(hop int, ev stream.Event) error) (int, error)
	// RecoveryFailures lists streams quarantined by startup recovery.
	RecoveryFailures() []manager.RecoveryFailure
	// StreamIDs lists every held stream (live or hibernated), sorted.
	StreamIDs() []string
	// TotalBytes is the rolled-up memory footprint.
	TotalBytes() int64
	// Len is the number of live streams.
	Len() int
	// Close shuts the host down.
	Close() error
}

// MigratableHost is a StreamHost whose streams can be moved to another
// host: the router requires it of members so Resize and Drain can
// export a stream's versioned state, import it elsewhere, and release
// the source copy.
type MigratableHost interface {
	StreamHost
	// ExportStream captures the stream's complete portable state without
	// disturbing it.
	ExportStream(id string) (manager.StreamState, error)
	// ImportStream resumes exported state on this host; its durable
	// checkpoint is the migration commit point.
	ImportStream(st manager.StreamState) error
	// ReleaseStream discards this host's copy after a committed move.
	ReleaseStream(id string) error
}

var _ MigratableHost = (*manager.Manager)(nil)
