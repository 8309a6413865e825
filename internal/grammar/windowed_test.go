package grammar

import (
	"math/rand"
	"testing"

	"egi/internal/sequitur"
)

// randWords draws a token-position sequence the way a numerosity-reduced
// discretization would emit it: strictly ascending positions starting at
// startWin, adjacent words always distinct.
func randWords(rng *rand.Rand, startWin, count, alphabet int) ([]string, []int) {
	words := make([]string, 0, count)
	pos := make([]int, 0, count)
	p := startWin
	prev := -1
	for len(words) < count {
		w := rng.Intn(alphabet)
		for w == prev {
			w = rng.Intn(alphabet)
		}
		prev = w
		words = append(words, string(rune('a'+w)))
		pos = append(pos, p)
		p += 1 + rng.Intn(3)
	}
	return words, pos
}

// TestWindowedDensityAnchoredEqualsDensityCurve: with the history anchored
// exactly at the span, WindowedDensityInto over the live builder
// reproduces the curve over the frozen grammar of the same words, bit for
// bit — the identity the engine's per-span (rebased) runs rely on, and the
// single-run detectors' whole-series case.
func TestWindowedDensityAnchoredEqualsDensityCurve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(20)
		start := rng.Intn(500)
		words, pos := randWords(rng, start, 2+rng.Intn(200), 2+rng.Intn(4))
		end := pos[len(pos)-1] + n // span ends at the last window's end

		b := sequitur.NewBuilder()
		for _, w := range words {
			b.Push(w)
		}
		got, err := WindowedDensityInto(nil, b, pos, start, end, n)
		if err != nil {
			t.Fatal(err)
		}

		want, err := WindowedDensityInto(nil, induce(t, words), pos, start, end, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: curve lengths %d vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: curve[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestWindowedDensityRestrictsToSpan: with history extending before the
// span, the curve matches a brute-force accumulation over all occurrences
// clipped to the span, and equals the full-history curve's suffix only
// where no occurrence straddles the boundary — in particular, occurrences
// entirely before the span contribute nothing.
func TestWindowedDensityRestrictsToSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(15)
		base := rng.Intn(100)
		words, pos := randWords(rng, base, 30+rng.Intn(300), 2+rng.Intn(3))
		histEnd := pos[len(pos)-1] + n
		// Live span: a strict suffix of the history's coverage.
		start := base + 1 + rng.Intn(histEnd-base-n)
		end := histEnd

		b := sequitur.NewBuilder()
		for _, w := range words {
			b.Push(w)
		}
		got, err := WindowedDensityInto(nil, b, pos, start, end, n)
		if err != nil {
			t.Fatal(err)
		}

		// Brute force: enumerate every occurrence without a cutoff and
		// accumulate pointwise over the clipped global range.
		want := make([]float64, end-start)
		b.VisitOccurrencesAfter(0, func(_, s, e int) {
			lo, hi := pos[s], pos[e-1]+n
			for p := lo; p < hi; p++ {
				if p >= start && p < end {
					want[p-start]++
				}
			}
		})
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: curve[%d] = %v, brute force %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestWindowedDensityValidation: empty histories and malformed windows are
// rejected.
func TestWindowedDensityValidation(t *testing.T) {
	b := sequitur.NewBuilder()
	if _, err := WindowedDensityInto(nil, b, nil, 0, 100, 10); err == nil {
		t.Error("empty history should error")
	}
	b.Push("ab")
	if _, err := WindowedDensityInto(nil, b, []int{0}, 0, 5, 10); err == nil {
		t.Error("window longer than span should error")
	}
	if _, err := WindowedDensityInto(nil, b, []int{0}, 0, 5, 0); err == nil {
		t.Error("zero window should error")
	}
}
