package stream

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// TestSnapshotRestoreBitIdentical is the durability acceptance property at
// the detector level: cut a stream at an arbitrary point, serialize,
// restore into a fresh detector, push the remainder — the restored stream's
// events and final curve are bit-identical to a detector that never
// stopped. Exercised across random hops, ensemble sizes, rebase schedules
// and both threshold modes, with up to two chained snapshot cuts.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		period := 30 + rng.Intn(40)
		bufLen := period * (4 + rng.Intn(6))
		hop := 1 + rng.Intn(bufLen-period+1)
		cfg := Config{
			Window:       period,
			BufLen:       bufLen,
			Hop:          hop,
			RebaseEvery:  rng.Intn(4), // 0 = adaptive default
			EnsembleSize: 6 + rng.Intn(10),
			Seed:         rng.Int63(),
		}
		if trial%3 == 0 {
			cfg.AdaptiveQuantile = 0.05
		}
		if trial%4 == 1 {
			// Words longer than 12 symbols take the string-keyed
			// dictionary path.
			cfg.WMax = 14
		}
		series := sineSeries(bufLen*3+rng.Intn(bufLen), period, rng.Int63(),
			bufLen/2, bufLen+bufLen/3, 2*bufLen+period)

		// Reference: never interrupted.
		var refEvents []Event
		refCfg := cfg
		refCfg.OnEvent = func(ev Event) { refEvents = append(refEvents, ev) }
		ref, err := New(refCfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, x := range series {
			if err := ref.Push(x); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.Flush(); err != nil {
			t.Fatal(err)
		}

		// Subject: snapshot/restore at 1-2 random cuts.
		var gotEvents []Event
		subCfg := cfg
		subCfg.OnEvent = func(ev Event) { gotEvents = append(gotEvents, ev) }
		sub, err := New(subCfg)
		if err != nil {
			t.Fatal(err)
		}
		cuts := []int{rng.Intn(len(series) + 1)}
		if trial%2 == 0 {
			cuts = append(cuts, cuts[0]+rng.Intn(len(series)-cuts[0]+1))
		}
		next := 0
		for _, cut := range cuts {
			for ; next < cut; next++ {
				if err := sub.Push(series[next]); err != nil {
					t.Fatal(err)
				}
			}
			snap := sub.Snapshot()
			sub, err = Restore(subCfg, snap)
			if err != nil {
				t.Fatalf("trial %d: restore at %d: %v", trial, cut, err)
			}
			if sub.Total() != cut {
				t.Fatalf("trial %d: restored Total = %d, want %d", trial, sub.Total(), cut)
			}
		}
		for ; next < len(series); next++ {
			if err := sub.Push(series[next]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sub.Flush(); err != nil {
			t.Fatal(err)
		}

		if len(gotEvents) != len(refEvents) {
			t.Fatalf("trial %d (cuts %v): %d events, reference %d",
				trial, cuts, len(gotEvents), len(refEvents))
		}
		for i := range refEvents {
			if gotEvents[i] != refEvents[i] {
				t.Fatalf("trial %d (cuts %v): event[%d] = %+v, reference %+v",
					trial, cuts, i, gotEvents[i], refEvents[i])
			}
		}
		refStart, refCurve := ref.Curve()
		gotStart, gotCurve := sub.Curve()
		if gotStart != refStart || len(gotCurve) != len(refCurve) {
			t.Fatalf("trial %d: curve shape (%d,%d), reference (%d,%d)",
				trial, gotStart, len(gotCurve), refStart, len(refCurve))
		}
		for i := range refCurve {
			if gotCurve[i] != refCurve[i] {
				t.Fatalf("trial %d: curve[%d] = %v, reference %v",
					trial, i, gotCurve[i], refCurve[i])
			}
		}
	}
}

// TestRestoreRejectsConfigMismatch: a snapshot only restores under the
// configuration it was taken with.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	cfg := Config{Window: 40, BufLen: 400, EnsembleSize: 8, Seed: 1}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range sineSeries(600, 40, 3) {
		if err := d.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.Snapshot()

	if _, err := Restore(cfg, snap); err != nil {
		t.Fatalf("same config: %v", err)
	}
	for _, bad := range []Config{
		{Window: 50, BufLen: 400, EnsembleSize: 8, Seed: 1},
		{Window: 40, BufLen: 440, EnsembleSize: 8, Seed: 1},
		{Window: 40, BufLen: 400, EnsembleSize: 9, Seed: 1},
		{Window: 40, BufLen: 400, EnsembleSize: 8, Seed: 2},
		{Window: 40, BufLen: 400, EnsembleSize: 8, Seed: 1, AdaptiveQuantile: 0.05},
	} {
		if _, err := Restore(bad, snap); err == nil {
			t.Fatalf("config %+v: restore accepted a mismatched snapshot", bad)
		}
	}
}

// TestRestoreRejectsCorruption: truncations and bit flips are detected,
// not silently restored.
func TestRestoreRejectsCorruption(t *testing.T) {
	cfg := Config{Window: 30, BufLen: 300, EnsembleSize: 6, Seed: 5}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range sineSeries(500, 30, 9) {
		if err := d.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.Snapshot()

	if _, err := Restore(cfg, nil); err == nil {
		t.Fatal("restore accepted an empty payload")
	}
	if _, err := Restore(cfg, snap[:len(snap)/2]); err == nil {
		t.Fatal("restore accepted a truncated payload")
	}
	if _, err := Restore(cfg, append(append([]byte(nil), snap...), 0xff)); err == nil {
		t.Fatal("restore accepted trailing garbage")
	}
	bad := append([]byte(nil), snap...)
	bad[3] ^= 0x40 // corrupt the magic
	if _, err := Restore(cfg, bad); err == nil {
		t.Fatal("restore accepted a corrupted magic")
	}
}

// TestLongWordsSnapshotBytes covers words longer than sax.MaxPackedW (the
// string-keyed dictionary path) at the stream level: with WMax 14 and the
// ensemble drawing the whole (w, a) grid, so w = 13 and 14 run in every
// span, a restored detector re-snapshots to the same bytes, and one
// snapshotted, restored and fed the remainder ends in the same bytes and
// events as one never interrupted — which in turn equals a detector that
// re-discretizes every span from scratch. At an overlapping hop and at the
// default hop.
func TestLongWordsSnapshotBytes(t *testing.T) {
	series := sineSeries(900, 30, 23, 400)
	for _, hop := range []int{17, 0} {
		// (WMax-1) × (AMax-1) = 39 members: the whole grid.
		cfg := Config{Window: 30, BufLen: 240, Hop: hop, WMax: 14, AMax: 4, EnsembleSize: 39, Seed: 6}
		var refEvents []Event
		refCfg := cfg
		refCfg.OnEvent = func(ev Event) { refEvents = append(refEvents, ev) }
		ref, err := New(refCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.PushBatch(series); err != nil {
			t.Fatal(err)
		}
		refSnap := ref.Snapshot()
		if err := ref.Flush(); err != nil {
			t.Fatal(err)
		}
		scratch := cfg
		scratch.fromScratch = true
		scratchEvents, _, _ := runStream(t, scratch, series)
		if !reflect.DeepEqual(scratchEvents, refEvents) {
			t.Fatalf("hop %d: from-scratch events differ from incremental", hop)
		}

		for _, cut := range []int{250, 517, 700} {
			var gotEvents []Event
			subCfg := cfg
			subCfg.OnEvent = func(ev Event) { gotEvents = append(gotEvents, ev) }
			sub, err := New(subCfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sub.PushBatch(series[:cut]); err != nil {
				t.Fatal(err)
			}
			snap := sub.Snapshot()
			if sub, err = Restore(subCfg, snap); err != nil {
				t.Fatalf("hop %d cut %d: %v", hop, cut, err)
			}
			if again := sub.Snapshot(); !bytes.Equal(again, snap) {
				t.Fatalf("hop %d cut %d: restored detector snapshots to different bytes", hop, cut)
			}
			if err := sub.PushBatch(series[cut:]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sub.Snapshot(), refSnap) {
				t.Fatalf("hop %d cut %d: final snapshot differs from the uninterrupted detector's", hop, cut)
			}
			if err := sub.Flush(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotEvents, refEvents) {
				t.Fatalf("hop %d cut %d: events differ from the uninterrupted detector's", hop, cut)
			}
		}
	}
}
