package manager

import (
	"errors"
	"testing"
)

// TestStatsSortedByID: the rendered stream listing is sorted by id no
// matter the creation or push order, so operators and diffing tools see
// a stable view.
func TestStatsSortedByID(t *testing.T) {
	m, err := New(Config{Stream: testStreamConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, id := range []string{"c", "a", "delta", "b"} {
		if err := m.OpenStream(id, Overrides{}); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if len(st.Streams) != 4 {
		t.Fatalf("%d streams, want 4", len(st.Streams))
	}
	for i := 1; i < len(st.Streams); i++ {
		if st.Streams[i-1].ID >= st.Streams[i].ID {
			t.Fatalf("streams out of order: %q before %q", st.Streams[i-1].ID, st.Streams[i].ID)
		}
	}
}

// TestOpenStreamOverrides: per-stream overrides pin effective settings
// at create; re-opening with the same effective settings is idempotent,
// different settings are an ErrStreamConfig conflict, and explicitly
// requesting the template's own values never conflicts.
func TestOpenStreamOverrides(t *testing.T) {
	m, err := New(Config{Stream: testStreamConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if err := m.OpenStream("s", Overrides{Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := m.OpenStream("s", Overrides{Threshold: 0.5}); err != nil {
		t.Fatalf("idempotent reopen: %v", err)
	}
	if err := m.OpenStream("s", Overrides{}); err != nil {
		t.Fatalf("zero-override open of an overridden stream: %v", err)
	}
	if err := m.OpenStream("s", Overrides{Threshold: 0.4}); !errors.Is(err, ErrStreamConfig) {
		t.Fatalf("conflicting reopen: err = %v, want ErrStreamConfig", err)
	}
	if _, err := m.PushBatchN("s", []float64{1, 2, 3}); err != nil {
		t.Fatalf("push after rejected reopen: %v", err)
	}

	// A template-created stream accepts an explicit spelling of the
	// template's effective settings: equality is on effective values.
	if err := m.OpenStream("t", Overrides{}); err != nil {
		t.Fatal(err)
	}
	cfg, err := testStreamConfig().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	explicit := Overrides{Window: cfg.Window, BufLen: cfg.BufLen, Hop: cfg.Hop, Threshold: cfg.Threshold, RebaseEvery: cfg.RebaseEvery}
	if err := m.OpenStream("t", explicit); err != nil {
		t.Fatalf("explicit template settings conflict: %v", err)
	}

	// Invalid overrides are rejected up front, not silently normalized
	// into something else.
	if err := m.OpenStream("u", Overrides{Threshold: 3}); err == nil {
		t.Fatal("threshold 3 accepted")
	}
}

// TestOverridesPersistAcrossRestart: pinned settings live in the
// snapshot meta — after a restart the conflict check still has them,
// live or hibernated.
func TestOverridesPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	m, _ := openDurable(t, dir, 200)
	ov := Overrides{Window: 20, Threshold: 0.5}
	if err := m.OpenStream("s", ov); err != nil {
		t.Fatal(err)
	}
	pushChunks(t, m, "s", sineSeries(600, 20, 5, 300), 100)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, _ := openDurable(t, dir, 200)
	defer m2.Close()
	if fails := m2.RecoveryFailures(); len(fails) != 0 {
		t.Fatalf("recovery failures: %v", fails)
	}
	if err := m2.OpenStream("s", ov); err != nil {
		t.Fatalf("reopening with the pinned settings after restart: %v", err)
	}
	if err := m2.OpenStream("s", Overrides{Threshold: 0.4}); !errors.Is(err, ErrStreamConfig) {
		t.Fatalf("conflicting reopen after restart: err = %v, want ErrStreamConfig", err)
	}
	pushChunks(t, m2, "s", sineSeries(100, 20, 6), 100)
	st, err := m2.StreamStats("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 700 {
		t.Fatalf("points after restart = %d, want 700", st.Points)
	}
}

// TestExportImportRoundTrip: a stream exported from one manager and
// imported into another continues exactly — accounting intact, source
// fully released, further pushes served by the target.
func TestExportImportRoundTrip(t *testing.T) {
	src, _ := openDurable(t, t.TempDir(), 200)
	defer src.Close()
	dst, _ := openDurable(t, t.TempDir(), 200)
	defer dst.Close()

	full := sineSeries(1200, 40, 9, 500)
	pushChunks(t, src, "s", full[:800], 100)

	st, err := src.ExportStream("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.WalPos != 800 {
		t.Fatalf("export WalPos = %d, want 800", st.WalPos)
	}
	if st.Bytes() <= 0 {
		t.Fatal("export reports no bytes")
	}
	if err := dst.ImportStream(st); err != nil {
		t.Fatal(err)
	}
	// Importing over a live copy must be refused.
	if err := dst.ImportStream(st); err == nil {
		t.Fatal("double import succeeded")
	}
	if err := src.ReleaseStream("s"); err != nil {
		t.Fatal(err)
	}
	if ids := src.StreamIDs(); len(ids) != 0 {
		t.Fatalf("source still holds %v after release", ids)
	}
	got, err := dst.StreamStats("s")
	if err != nil {
		t.Fatal(err)
	}
	if got.Points != 800 {
		t.Fatalf("imported points = %d, want 800", got.Points)
	}
	pushChunks(t, dst, "s", full[800:], 100)
	if got, _ = dst.StreamStats("s"); got.Points != int64(len(full)) {
		t.Fatalf("points after continued ingest = %d, want %d", got.Points, len(full))
	}

	// The export source must fail cleanly on unknown streams.
	if _, err := src.ExportStream("nope"); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("exporting unknown stream: err = %v, want ErrUnknownStream", err)
	}
}

// TestNonDurableExportTracksWalPos: a memory-only manager still tracks
// the consumed-input coordinate, so its exports resume at the right
// position on a durable target.
func TestNonDurableExportTracksWalPos(t *testing.T) {
	m, err := New(Config{Stream: testStreamConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	pushChunks(t, m, "s", sineSeries(500, 40, 13), 100)

	st, err := m.ExportStream("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.WalPos != 500 {
		t.Fatalf("non-durable export WalPos = %d, want 500", st.WalPos)
	}
	if st.Snapshot == nil || len(st.Tail) != 0 {
		t.Fatalf("non-durable export shape: snapshot=%d bytes tail=%d", len(st.Snapshot), len(st.Tail))
	}

	// Round-trip into a durable manager: the coordinate carries over.
	dst, _ := openDurable(t, t.TempDir(), 200)
	defer dst.Close()
	if err := dst.ImportStream(st); err != nil {
		t.Fatal(err)
	}
	got, err := dst.StreamStats("s")
	if err != nil {
		t.Fatal(err)
	}
	if got.Points != 500 {
		t.Fatalf("imported points = %d, want 500", got.Points)
	}
}
