package manager

// Per-stream configuration overrides: a stream may be created with a
// subset of the manager's stream template pinned to different values
// (window scale, buffer, hop, threshold, rebase schedule). The pinned
// settings are normalized to their effective values at create time,
// persisted in the stream's snapshot meta, and travel with the stream
// when it migrates between shards — so a migrated or restarted stream
// always restores under exactly the configuration it was created with,
// which is what keeps its snapshot fingerprint valid. Opening a stream
// that already exists with different effective settings is rejected with
// ErrStreamConfig; serving layers surface that as HTTP 409.

import (
	"errors"
	"fmt"

	"egi/internal/stream"
)

// ErrStreamConfig rejects opening (or pushing with overrides to) a
// stream that already exists with different effective settings. The
// existing stream is untouched; close it first if the new settings are
// intended.
var ErrStreamConfig = errors.New("manager: stream exists with different settings")

// Overrides pins per-stream detector settings at create time, overriding
// the manager's stream template for that stream only. Zero fields
// inherit the template; only positive values override (the streaming
// knobs have no meaningful zero settings). The zero Overrides value
// means "template settings" everywhere it is accepted.
type Overrides struct {
	// Window overrides the sliding window length (anomaly scale).
	Window int
	// BufLen overrides the ring buffer capacity.
	BufLen int
	// Hop overrides the points between ensemble re-inductions.
	Hop int
	// Threshold overrides the fixed event threshold in (0, 1].
	Threshold float64
	// RebaseEvery overrides the grammar rebase schedule (K runs).
	RebaseEvery int
}

// IsZero reports whether no field is set, i.e. the stream runs purely on
// the template.
func (o Overrides) IsZero() bool { return o == Overrides{} }

// apply lays the set fields over cfg and returns the result.
func (o Overrides) apply(cfg stream.Config) stream.Config {
	if o.Window > 0 {
		cfg.Window = o.Window
	}
	if o.BufLen > 0 {
		cfg.BufLen = o.BufLen
	}
	if o.Hop > 0 {
		cfg.Hop = o.Hop
	}
	if o.Threshold > 0 {
		cfg.Threshold = o.Threshold
	}
	if o.RebaseEvery > 0 {
		cfg.RebaseEvery = o.RebaseEvery
	}
	return cfg
}

// applyEffective writes effective (fully normalized) settings into cfg
// unconditionally. Only valid on an effective Overrides value, where
// every field holds the concrete setting the stream runs with
// (RebaseEvery 0 is the adaptive schedule and is concrete).
func (o Overrides) applyEffective(cfg *stream.Config) {
	cfg.Window = o.Window
	cfg.BufLen = o.BufLen
	cfg.Hop = o.Hop
	cfg.Threshold = o.Threshold
	cfg.RebaseEvery = o.RebaseEvery
}

// effectiveOverrides resolves a requested override set against the
// manager's template into the effective settings a stream created with
// it would run with: defaults filled, knobs validated. Two override
// requests denote the same stream configuration exactly when their
// effective forms are equal, which is the equality ErrStreamConfig is
// decided on — requesting the template's own values explicitly is not a
// conflict.
func (m *Manager) effectiveOverrides(ov Overrides) (Overrides, error) {
	if ov.IsZero() {
		return m.templateOv, nil
	}
	cfg := ov.apply(m.cfg.Stream)
	cfg.OnEvent = nil
	n, err := cfg.Normalized()
	if err != nil {
		return Overrides{}, fmt.Errorf("manager: stream overrides: %w", err)
	}
	return Overrides{Window: n.Window, BufLen: n.BufLen, Hop: n.Hop, Threshold: n.Threshold, RebaseEvery: n.RebaseEvery}, nil
}

// checkOverrides rejects a lookup that requests settings different from
// the ones the live entry runs with. A zero request never conflicts (it
// means "whatever the stream has"), and quarantined tombstones are
// exempt — the quarantine error, raised at use, is the meaningful one.
func (m *Manager) checkOverrides(e *entry, ov Overrides) error {
	if ov.IsZero() || e.quarantined.Load() {
		return nil
	}
	want, err := m.effectiveOverrides(ov)
	if err != nil {
		return err
	}
	if want != e.overrides {
		return overridesConflict(e.id, want, e.overrides)
	}
	return nil
}

// overridesConflict formats the ErrStreamConfig for a settings mismatch,
// naming both sides so the 409 body is actionable.
func overridesConflict(id string, want, have Overrides) error {
	return fmt.Errorf("%w: %q runs with window=%d buflen=%d hop=%d threshold=%v rebase_every=%d; requested window=%d buflen=%d hop=%d threshold=%v rebase_every=%d",
		ErrStreamConfig, id,
		have.Window, have.BufLen, have.Hop, have.Threshold, have.RebaseEvery,
		want.Window, want.BufLen, want.Hop, want.Threshold, want.RebaseEvery)
}

// OpenStream creates the stream if it does not exist yet, applying the
// MaxStreams limit (evicting an idle stream if necessary). It runs with
// the template plus the set override fields — a zero Overrides is the
// template — and the effective settings are pinned: they survive
// hibernation, restarts, and migration between shards (persisted in the
// snapshot meta). Opening an existing stream with the same effective
// settings is an idempotent no-op; opening one whose settings differ
// fails with ErrStreamConfig and leaves the stream untouched.
func (m *Manager) OpenStream(id string, ov Overrides) error {
	_, evicted, err := m.get(id, true, ov)
	m.retire(evicted)
	return err
}
