package engine

import (
	"math/rand"
	"testing"

	"egi/internal/timeseries"
)

// TestAmortizedMatchesRebuildEachRun is the amortized-induction property
// pin, the induction analogue of TestIncrementalMatchesFromScratch: across
// random hop sizes, buffer lengths, member counts, seeds and rebase
// intervals (adaptive and every-K), an engine that appends each span's new
// tokens to its members' resumable grammars must produce, span for span,
// exactly the result of an engine that rebuilds every member's grammar
// from scratch over the same epoch token range on every run — bit for bit.
// A third engine re-discretizing from scratch (FromScratch) must agree
// too, which exercises the numerosity seam between a reset pipeline and a
// resumed grammar feed.
func TestAmortizedMatchesRebuildEachRun(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		window := 10 + rng.Intn(30)
		bufLen := 4*window + rng.Intn(8*window)
		hop := 1 + rng.Intn(bufLen-window+1)
		size := 3 + rng.Intn(18)
		rebaseEvery := rng.Intn(5) // 0 = adaptive, else every K runs
		length := bufLen + hop*(2+rng.Intn(6)) + rng.Intn(window)
		seed := rng.Int63n(1 << 30)

		series := genSeries(length, window, seed)
		f, err := timeseries.NewFeatures(series)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Window: window, Size: size, Seed: seed, RebaseEvery: rebaseEvery}
		amortized, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rebuildCfg := cfg
		rebuildCfg.RebuildEachRun = true
		rebuilt, err := New(rebuildCfg)
		if err != nil {
			t.Fatal(err)
		}
		scratchCfg := cfg
		scratchCfg.FromScratch = true
		scratch, err := New(scratchCfg)
		if err != nil {
			t.Fatal(err)
		}

		runIdx := 0
		for start := 0; start+window <= length; start += hop {
			end := start + bufLen
			if end > length {
				end = length
			}
			if end-start < window {
				break
			}
			spanSeed := seed + int64(runIdx)*SeedStride
			// The amortized engine alone is told where the next span
			// starts, so it trims its pipelines and releases grammars; the
			// references are promised nothing.
			a, errA := amortized.DetectSpan(f, start, end, start+hop, spanSeed)
			b, errB := rebuilt.DetectSpan(f, start, end, 0, spanSeed)
			c, errC := scratch.DetectSpan(f, start, end, 0, spanSeed)
			if (errA == nil) != (errB == nil) || (errA == nil) != (errC == nil) {
				t.Fatalf("trial %d (hop=%d buf=%d K=%d) span [%d,%d): errors differ: %v vs %v vs %v",
					trial, hop, bufLen, rebaseEvery, start, end, errA, errB, errC)
			}
			if errA != nil {
				if errA != ErrNoUsableCurves {
					t.Fatalf("trial %d span [%d,%d): %v", trial, start, end, errA)
				}
				continue
			}
			resultsEqual(t, "amortized-vs-rebuilt", a, b)
			resultsEqual(t, "amortized-vs-fromscratch", a, c)
			runIdx++
		}
	}
}

// TestRebaseEveryOneMatchesPerSpan: RebaseEvery=1 is the pre-amortization
// semantics — every span induces over exactly its own tokens — so at any
// hop it must agree bit-for-bit with the adaptive engine at the default
// (non-overlapping) hop grid, where the adaptive schedule also rebases
// every span.
func TestRebaseEveryOneMatchesPerSpan(t *testing.T) {
	const (
		window = 25
		bufLen = 160
		length = 900
	)
	hop := bufLen - window + 1 // default grid: spans share no windows
	series := genSeries(length, window, 23)
	f, err := timeseries.NewFeatures(series)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := New(Config{Window: window, Size: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	perSpan, err := New(Config{Window: window, Size: 8, Seed: 4, RebaseEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	runIdx := 0
	for start := 0; start+window <= length; start += hop {
		end := start + bufLen
		if end > length {
			end = length
		}
		if end-start < window {
			break
		}
		spanSeed := int64(runIdx) * SeedStride
		a, errA := adaptive.DetectSpan(f, start, end, start+hop, spanSeed)
		b, errB := perSpan.DetectSpan(f, start, end, start+hop, spanSeed)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("span [%d,%d): errors differ: %v vs %v", start, end, errA, errB)
		}
		if errA == nil {
			resultsEqual(t, "adaptive-vs-K1", a, b)
		}
		runIdx++
	}
}

// TestFootprintCountsInductionState: the engine's footprint accounting
// includes the retained resumable-induction state (builder arenas/tables
// and fed-position records), so serving-layer byte budgets see it.
func TestFootprintCountsInductionState(t *testing.T) {
	series := genSeries(800, 25, 31)
	f, err := timeseries.NewFeatures(series)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Window: 25, Size: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DetectSpan(f, 0, len(series), 0, 0); err != nil {
		t.Fatal(err)
	}
	var induction int64
	for _, st := range e.induct {
		induction += st.b.MemoryBytes() + int64(cap(st.pos))*8
	}
	if induction <= 0 {
		t.Fatal("no induction state retained after a span")
	}
	total := e.MemoryFootprint()
	var pipes int64
	for _, seq := range e.pipes {
		pipes += seq.MemoryBytes()
	}
	if total < pipes+induction {
		t.Fatalf("footprint %d smaller than pipelines %d + induction state %d", total, pipes, induction)
	}
}

// TestMemoizedFootprintMatchesRecompute: the memoized MemoryFootprint the
// serving layers read after every push equals a fresh walk of the retained
// buffers after every push of a stream-shaped schedule — hop runs at an
// overlapping hop (member draws change every run) that trim to the next
// hop position, a snapshot
// restored into a fresh engine over a restored ring (what a migration
// does), a rebind to another source and back, and a rejected span — so
// byte budgets evict exactly as they would without the memo.
func TestMemoizedFootprintMatchesRecompute(t *testing.T) {
	const (
		window = 20
		bufLen = 160
		hop    = 13
		length = 1200
	)
	series := genSeries(length, window, 41)
	other, err := timeseries.NewFeatures(genSeries(3*window, window, 42))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := timeseries.NewRingFeatures(bufLen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Window: window, Size: 9, Seed: 5, Parallelism: 2}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(ctx string, i int) {
		t.Helper()
		if got, want := e.MemoryFootprint(), e.computeFootprint(); got != want {
			t.Fatalf("%s after push %d: memoized footprint %d, recomputed %d", ctx, i, got, want)
		}
	}
	runIdx := 0
	for i, x := range series {
		if err := ring.Append(x); err != nil {
			t.Fatal(err)
		}
		check("push", i)
		total := i + 1
		if total < bufLen || (total-bufLen)%hop != 0 {
			continue
		}
		start := total - bufLen
		if _, err := e.DetectSpan(ring, start, total, start+hop, int64(runIdx)*SeedStride); err != nil {
			t.Fatal(err)
		}
		check("hop run", i)
		runIdx++
		switch runIdx {
		case 20:
			// Migration: snapshot the engine and the ring, restore both.
			st := e.State()
			if ring, err = timeseries.RestoreRing(ring.State()); err != nil {
				t.Fatal(err)
			}
			if e, err = New(cfg); err != nil {
				t.Fatal(err)
			}
			check("fresh engine", i)
			if err := e.RestoreState(ring, st); err != nil {
				t.Fatal(err)
			}
			check("restore", i)
		case 40:
			// Rebinding to another source drops every pipeline; the next
			// hop run rebinds to the ring and rebuilds them.
			if _, err := e.MemberCurves(other, 0, other.SeriesLen(), 0, 1); err != nil {
				t.Fatal(err)
			}
			check("rebind", i)
			if _, err := e.DetectSpan(ring, 0, total, 0, 0); err == nil {
				t.Fatal("span outside the retained ring should be rejected")
			}
			check("rejected span", i)
		}
	}
	if runIdx < 50 {
		t.Fatalf("only %d hop runs", runIdx)
	}
}

// TestRebaseConfigValidation: negative intervals and the incompatible
// RebuildEachRun+FromScratch pairing are rejected at construction.
func TestRebaseConfigValidation(t *testing.T) {
	if _, err := New(Config{Window: 20, RebaseEvery: -1}); err == nil {
		t.Error("negative RebaseEvery should be rejected")
	}
	if _, err := New(Config{Window: 20, RebuildEachRun: true, FromScratch: true}); err == nil {
		t.Error("RebuildEachRun+FromScratch should be rejected")
	}
}
