package engine

import (
	"fmt"
	"testing"

	"egi/internal/timeseries"
)

// TestEpochReleaseBitIdentical: telling the engine where the next span
// starts only frees memory. An engine given each span's true next (it
// trims its pipelines there and releases every grammar no later span can
// extend) returns, span for span, exactly what an engine promised nothing
// returns, across hop sizes from 1 to the default, rebase schedules,
// Parallelism 1–4 and both discretization modes. Halfway through, the
// bounded engine is captured with State and replaced by a fresh engine
// restored from it, which carries on bit for bit: a released member is
// captured with no fed words and rebases at its next run.
func TestEpochReleaseBitIdentical(t *testing.T) {
	const (
		window = 16
		bufLen = 96
	)
	defaultHop := bufLen - window + 1
	// defaultHop-1 is the largest hop whose spans overlap: the next span
	// starts at the last window fed, the edge of the release test.
	for _, hop := range []int{1, 37, bufLen / 2, defaultHop - 1, defaultHop} {
		for _, rebaseEvery := range []int{0, 1, 3} {
			for _, par := range []int{1, 2, 4} {
				for _, fromScratch := range []bool{false, true} {
					name := fmt.Sprintf("hop=%d/K=%d/par=%d/scratch=%v", hop, rebaseEvery, par, fromScratch)
					t.Run(name, func(t *testing.T) {
						cfg := Config{Window: window, Size: 8, Seed: int64(hop), RebaseEvery: rebaseEvery,
							Parallelism: par, FromScratch: fromScratch}
						checkReleaseBitIdentical(t, cfg, bufLen, hop)
					})
				}
			}
		}
	}
}

func checkReleaseBitIdentical(t *testing.T, cfg Config, bufLen, hop int) {
	spans := 12
	length := bufLen + hop*(spans-1)
	f, err := timeseries.NewFeatures(genSeries(length, cfg.Window, cfg.Seed+11))
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	released := 0
	for k := 0; k < spans; k++ {
		start := k * hop
		end := start + bufLen
		spanSeed := cfg.Seed + int64(k)*SeedStride
		want, errW := unbounded.DetectSpan(f, start, end, 0, spanSeed)
		got, errG := bounded.DetectSpan(f, start, end, start+hop, spanSeed)
		if errW != errG {
			t.Fatalf("span %d: errors %v vs %v", k, errW, errG)
		}
		resultsEqual(t, fmt.Sprintf("span %d", k), got, want)
		if cfg.RebaseEvery == 0 && want != nil {
			// Promised nothing, an adaptive engine keeps every grammar.
			for _, m := range want.Members {
				if unbounded.induct[m.Params].b == nil {
					t.Fatalf("span %d: member %v released without a promise", k, m.Params)
				}
			}
		}
		for _, st := range bounded.induct {
			if st.b == nil {
				released++
			}
		}
		if k == spans/2 {
			restored, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.RestoreState(f, bounded.State()); err != nil {
				t.Fatal(err)
			}
			bounded = restored
		}
	}
	// Non-overlapping spans rebase every member at every run (under
	// adaptive or K = 1), so their grammars must actually be released.
	if hop == bufLen-cfg.Window+1 && cfg.RebaseEvery <= 1 && released == 0 {
		t.Fatal("no member was ever released at the default hop")
	}
}

// heldBuilders counts the members still holding a builder or fed
// positions, and checks the free list against its cap.
func heldBuilders(t *testing.T, e *Engine, ctx string) int {
	t.Helper()
	if len(e.spares) > e.cfg.Parallelism {
		t.Fatalf("%s: %d pooled builders, cap %d", ctx, len(e.spares), e.cfg.Parallelism)
	}
	held := 0
	for _, st := range e.induct {
		if st.b != nil || len(st.pos) > 0 {
			held++
		}
	}
	return held
}

// TestReleasedMembersHoldNoBuilders: at the default hop every run rebases
// every member it draws, so after each run no member holds a builder and
// the engine keeps at most Parallelism pooled ones. At an overlapping hop
// members keep their grammars between runs, and a final run told that no
// span follows (next = end, a stream's flush) releases every member it
// draws while the free list stays capped.
func TestReleasedMembersHoldNoBuilders(t *testing.T) {
	const (
		window = 20
		bufLen = 160
		length = 1000
	)
	f, err := timeseries.NewFeatures(genSeries(length, window, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 3} {
		for _, hop := range []int{bufLen - window + 1, 40} {
			e, err := New(Config{Window: window, Size: 12, Seed: 9, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			runs, start := 0, 0
			for ; start+bufLen <= length; start += hop {
				if _, err := e.DetectSpan(f, start, start+bufLen, start+hop, int64(runs)*SeedStride); err != nil {
					t.Fatal(err)
				}
				runs++
				ctx := fmt.Sprintf("par=%d hop=%d run %d", par, hop, runs)
				held := heldBuilders(t, e, ctx)
				if hop == bufLen-window+1 && held != 0 {
					t.Fatalf("%s: %d members hold a builder", ctx, held)
				}
			}
			if runs < 3 {
				t.Fatalf("only %d runs", runs)
			}
			if hop != bufLen-window+1 && heldBuilders(t, e, "before flush") == 0 {
				t.Fatalf("hop %d: no member kept its grammar between overlapping spans", hop)
			}
			res, err := e.DetectSpan(f, start, length, length, int64(runs)*SeedStride)
			if err != nil {
				t.Fatal(err)
			}
			heldBuilders(t, e, "flush")
			for _, m := range res.Members {
				if st := e.induct[m.Params]; st.b != nil || len(st.pos) > 0 {
					t.Fatalf("par=%d hop=%d: member %v holds a builder after the final run", par, hop, m.Params)
				}
			}
			if len(e.spares) == 0 {
				t.Fatalf("par=%d hop=%d: no builder pooled after the final run", par, hop)
			}
			if got, want := e.MemoryFootprint(), e.computeFootprint(); got != want {
				t.Fatalf("memoized footprint %d, recomputed %d", got, want)
			}
		}
	}
}

// TestSpanBeforePromisedNextStartsOver: a span that starts before the
// previous call's next breaks the promise the engine trimmed and released
// by, so the engine serves it from scratch, exactly as a fresh engine.
func TestSpanBeforePromisedNextStartsOver(t *testing.T) {
	f, err := timeseries.NewFeatures(genSeries(600, 20, 5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Window: 20, Size: 10, Seed: 2}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DetectSpan(f, 0, 300, 250, 1); err != nil {
		t.Fatal(err)
	}
	got, err := e.DetectSpan(f, 100, 400, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.DetectSpan(f, 100, 400, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "span before the promised next", got, want)
}
