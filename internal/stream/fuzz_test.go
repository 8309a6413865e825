package stream

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzConfig is the fixed configuration FuzzRestoreStream restores under.
// Restore refuses payloads fingerprinted for any other configuration, so
// the interesting mutation space is the state that follows the
// fingerprint; keeping the configuration constant points the fuzzer at it.
func fuzzConfig() Config {
	return Config{Window: 30, BufLen: 150, Hop: 60, EnsembleSize: 4, Seed: 5}
}

// fuzzConfigs are the configurations FuzzRestoreStream restores every
// payload under: fuzzConfig, and fuzzConfig at the default hop, where each
// hop run releases its members' grammars and a snapshot holds members with
// no fed words. A payload fingerprinted for neither is rejected at once.
func fuzzConfigs() []Config {
	defaultHop := fuzzConfig()
	defaultHop.Hop = 0
	return []Config{fuzzConfig(), defaultHop}
}

// releasedSnapshot is a default-hop detector's snapshot after two hop
// runs: every member it has drawn is released, so every induction state
// in it is empty. The checked-in corpus file
// testdata/fuzz/FuzzRestoreStream/snapshot-released holds the payload this
// produced when it was added.
func releasedSnapshot(t testing.TB) []byte {
	t.Helper()
	d, err := New(fuzzConfigs()[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range sineSeries(300, 30, 9, 200) {
		if err := d.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	return d.Snapshot()
}

// fuzzSnapshots produces real snapshot payloads at structurally distinct
// stream stages: empty, pre-first-run, mid-stream with completed hop runs,
// and flushed. These seed the fuzz corpus so mutations start from inputs
// that reach the deep decode paths, and give the determinism tests a
// stable set of valid payloads.
func fuzzSnapshots(t testing.TB) [][]byte {
	t.Helper()
	cfg := fuzzConfig()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := sineSeries(400, 30, 9, 200)
	snaps := [][]byte{d.Snapshot()}
	for i, x := range series {
		if err := d.Push(x); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 100, 199, 350: // pre-first-run, at a run boundary, mid-stream
			snaps = append(snaps, d.Snapshot())
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	return append(snaps, d.Snapshot())
}

// FuzzRestoreStream pins the Restore robustness contract: for an arbitrary
// payload — truncated, bit-flipped, or wholly synthetic — Restore either
// returns an error or produces a detector that keeps working; it never
// panics and never trusts a decoded length or offset enough to allocate or
// index unboundedly. The seed corpus (testdata/fuzz/FuzzRestoreStream)
// holds real snapshots from fuzzSnapshots plus truncated and corrupted
// variants, and a default-hop snapshot from releasedSnapshot; the mutator
// works outward from those.
func FuzzRestoreStream(f *testing.F) {
	for _, snap := range fuzzSnapshots(f) {
		f.Add(snap)
		f.Add(snap[:len(snap)/2])
		flipped := append([]byte(nil), snap...)
		flipped[len(flipped)*3/4] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("EGISNAP1"))
	f.Add(releasedSnapshot(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range fuzzConfigs() {
			d, err := Restore(cfg, data)
			if err != nil {
				if d != nil {
					t.Fatal("Restore returned a detector alongside an error")
				}
				continue
			}
			// A payload that decodes cleanly must yield a usable detector:
			// pushing and flushing may reject the stream with an error (the
			// engine re-checks spans), but must not panic.
			for i := 0; i < 2*cfg.Window; i++ {
				if err := d.Push(float64(i % 7)); err != nil {
					break
				}
			}
			_ = d.Flush()
		}
	})
}

// TestReleasedSnapshotSeed: the checked-in snapshot-released seed is a
// default-hop snapshot whose members all have empty fed words, it restores
// cleanly, and the restored detector runs on: its next hop run rebases
// every member it draws.
func TestReleasedSnapshotSeed(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRestoreStream", "snapshot-released"))
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(body, ")") {
		t.Fatalf("seed is not a one-[]byte fuzz corpus file: %q", raw)
	}
	snap, err := strconv.Unquote(strings.TrimSuffix(body, ")"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fuzzConfigs()[1]
	d, err := Restore(cfg, []byte(snap))
	if err != nil {
		t.Fatal(err)
	}
	if d.runIdx < 2 {
		t.Fatalf("seed taken after %d hop runs, want >= 2", d.runIdx)
	}
	st := d.eng.State()
	if len(st.Induct) == 0 {
		t.Fatal("seed holds no induction states")
	}
	for _, is := range st.Induct {
		if len(is.Words) != 0 || len(is.Pos) != 0 {
			t.Fatalf("member %v holds %d fed words", is.Params, len(is.Words))
		}
	}
	runs := d.runIdx
	for _, x := range sineSeries(3*cfg.BufLen, 30, 10) {
		if err := d.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.runIdx < runs+2 {
		t.Fatalf("restored detector made %d more hop runs", d.runIdx-runs)
	}
}

// TestRestoreFuzzSeeds replays the checked-in property directly so the
// ordinary test run (no -fuzz flag) covers the seed corpus shapes: every
// real snapshot restores, and single-bit corruption anywhere in the
// payload either errors or restores into a detector that survives further
// pushes.
func TestRestoreFuzzSeeds(t *testing.T) {
	cfg := fuzzConfig()
	for si, snap := range fuzzSnapshots(t) {
		if _, err := Restore(cfg, snap); err != nil {
			t.Fatalf("snapshot %d: clean restore failed: %v", si, err)
		}
		for pos := 0; pos < len(snap); pos += 13 {
			bad := append([]byte(nil), snap...)
			bad[pos] ^= 1 << (pos % 8)
			if bytes.Equal(bad, snap) {
				continue
			}
			d, err := Restore(cfg, bad)
			if err != nil {
				continue
			}
			for i := 0; i < cfg.Window; i++ {
				if err := d.Push(float64(i)); err != nil {
					break
				}
			}
			_ = d.Flush()
		}
		for cut := 0; cut < len(snap); cut += 7 {
			if _, err := Restore(cfg, snap[:cut]); err == nil {
				t.Fatalf("snapshot %d: truncation to %d bytes restored cleanly", si, cut)
			}
		}
	}
}
