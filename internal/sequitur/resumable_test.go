package sequitur

import (
	"math/rand"
	"sort"
	"testing"
)

// randTokens draws length tokens from a small alphabet, with enough
// repetition structure for Sequitur to build non-trivial rules.
func randTokens(rng *rand.Rand, length, alphabet int) []string {
	words := make([]string, alphabet)
	for i := range words {
		words[i] = string(rune('a' + i))
	}
	out := make([]string, 0, length)
	for len(out) < length {
		if len(out) > 4 && rng.Intn(3) == 0 {
			// Repeat a recent chunk to force digram collisions.
			n := 2 + rng.Intn(4)
			at := rng.Intn(len(out) - n + 1)
			out = append(out, out[at:at+n]...)
		} else {
			out = append(out, words[rng.Intn(alphabet)])
		}
	}
	return out[:length]
}

// occSpan is one rule occurrence's token span.
type occSpan struct{ s, e int }

func collectSpans(visit func(fn func(rule, s, e int))) []occSpan {
	var out []occSpan
	visit(func(_, s, e int) { out = append(out, occSpan{s, e}) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].s != out[j].s {
			return out[i].s < out[j].s
		}
		return out[i].e < out[j].e
	})
	return out
}

// TestResumableEqualsInduce is the resumable-induction pin: a Builder fed a
// token sequence in random-sized batches — interleaved with freezes, and
// reused across Resets — holds exactly the grammar Induce over the same
// sequence returns. Rendered rules (terminals resolved) must match string
// for string, and so must every rule occurrence span.
func TestResumableEqualsInduce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder() // reused across trials: each trial exercises Reset
	for trial := 0; trial < 60; trial++ {
		tokens := randTokens(rng, 1+rng.Intn(400), 2+rng.Intn(5))
		b.Reset()
		for at := 0; at < len(tokens); {
			n := 1 + rng.Intn(len(tokens)-at)
			for _, tok := range tokens[at : at+n] {
				b.Push(tok)
			}
			at += n
			if rng.Intn(3) == 0 {
				// Freezing mid-stream must not disturb the live state.
				if _, err := b.Grammar(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if b.Len() != len(tokens) {
			t.Fatalf("trial %d: Len = %d, want %d", trial, b.Len(), len(tokens))
		}
		got, err := b.Grammar()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Induce(tokens)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRules() != want.NumRules() {
			t.Fatalf("trial %d: %d rules resumable, %d from scratch\nresumable:\n%s\nscratch:\n%s",
				trial, got.NumRules(), want.NumRules(), got, want)
		}
		for id := 0; id < want.NumRules(); id++ {
			if g, w := got.RuleString(id), want.RuleString(id); g != w {
				t.Fatalf("trial %d rule %d: %q resumable, %q from scratch", trial, id, g, w)
			}
		}
		gotSpans := collectSpans(func(fn func(rule, s, e int)) { b.VisitOccurrencesAfter(0, fn) })
		wantSpans := collectSpans(want.VisitOccurrences)
		if len(gotSpans) != len(wantSpans) {
			t.Fatalf("trial %d: %d occurrence spans live, %d frozen", trial, len(gotSpans), len(wantSpans))
		}
		for i := range gotSpans {
			if gotSpans[i] != wantSpans[i] {
				t.Fatalf("trial %d span %d: %+v live, %+v frozen", trial, i, gotSpans[i], wantSpans[i])
			}
		}
	}
}

// TestVisitOccurrencesAfterPrunes: the cutoff variant reports exactly the
// occurrences whose span extends past the cutoff, on both the live builder
// and the frozen grammar.
func TestVisitOccurrencesAfterPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		tokens := randTokens(rng, 40+rng.Intn(200), 3)
		b := NewBuilder()
		for _, tok := range tokens {
			b.Push(tok)
		}
		g, err := b.Grammar()
		if err != nil {
			t.Fatal(err)
		}
		all := collectSpans(g.VisitOccurrences)
		for _, cutoff := range []int{0, 1, len(tokens) / 2, len(tokens) - 1, len(tokens)} {
			var want []occSpan
			for _, o := range all {
				if o.e > cutoff {
					want = append(want, o)
				}
			}
			for name, spans := range map[string][]occSpan{
				"live":   collectSpans(func(fn func(rule, s, e int)) { b.VisitOccurrencesAfter(cutoff, fn) }),
				"frozen": collectSpans(func(fn func(rule, s, e int)) { g.VisitOccurrencesAfter(cutoff, fn) }),
			} {
				if len(spans) != len(want) {
					t.Fatalf("trial %d cutoff %d (%s): %d spans, want %d", trial, cutoff, name, len(spans), len(want))
				}
				for i := range spans {
					if spans[i] != want[i] {
						t.Fatalf("trial %d cutoff %d (%s) span %d: %+v, want %+v",
							trial, cutoff, name, i, spans[i], want[i])
					}
				}
			}
		}
	}
}

// TestBuilderMemoryBytes: the accounting is positive once tokens are
// pushed, grows with more retained state, and does not grow across Resets
// that reuse the warm storage at the same scale.
func TestBuilderMemoryBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder()
	empty := b.MemoryBytes()
	if empty < 0 {
		t.Fatalf("empty builder accounting = %d", empty)
	}
	tokens := randTokens(rng, 500, 4)
	for _, tok := range tokens {
		b.Push(tok)
	}
	small := b.MemoryBytes()
	if small <= empty {
		t.Fatalf("accounting did not grow with tokens: %d -> %d", empty, small)
	}
	for _, tok := range randTokens(rng, 2000, 4) {
		b.Push(tok)
	}
	large := b.MemoryBytes()
	if large <= small {
		t.Fatalf("accounting did not grow with more tokens: %d -> %d", small, large)
	}
	// Warm reuse at the same scale: the plateau the engine's footprint
	// accounting depends on.
	peak := large
	for cycle := 0; cycle < 5; cycle++ {
		b.Reset()
		for _, tok := range randTokens(rng, 2000, 4) {
			b.Push(tok)
		}
		if got := b.MemoryBytes(); got > peak+peak/10 {
			t.Fatalf("cycle %d: accounting %d exceeds warm plateau %d", cycle, got, peak)
		}
	}
	// A fresh vocabulary every epoch must not accumulate: the intern table
	// is epoch-local, so retained bytes plateau even when no word ever
	// recurs across resets — the non-stationary-stream guarantee. The first
	// fresh-vocabulary epoch sets the plateau; each later one interns as
	// many new words, so an accumulating table would add its whole size
	// again every cycle.
	var vocabPeak int64
	for cycle := 0; cycle < 8; cycle++ {
		b.Reset()
		for i := 0; i < 2000; i++ {
			// Unique-per-cycle words: "<cycle><i%26><(i/26)%26>".
			b.Push(string(rune('A'+cycle)) + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)))
		}
		got := b.MemoryBytes()
		if cycle == 0 {
			vocabPeak = got
			continue
		}
		if got > vocabPeak+vocabPeak/10 {
			t.Fatalf("cycle %d: accounting %d exceeds the first fresh-vocabulary epoch's %d by more than 10%% — intern table accumulating across resets", cycle, got, vocabPeak)
		}
	}

	// LastID reflects the latest push and clears on Reset.
	b.Reset()
	b.PushID(7)
	if id, ok := b.LastID(); !ok || id != 7 {
		t.Fatalf("LastID after pushes = %d, %v", id, ok)
	}
	b.Reset()
	if _, ok := b.LastID(); ok {
		t.Fatal("LastID should report no tokens after Reset")
	}
	if _, err := b.Grammar(); err != ErrEmptyInput {
		t.Fatalf("Grammar on empty builder: %v, want ErrEmptyInput", err)
	}
}
