package sax

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"egi/internal/timeseries"
)

// TestBreakpointTieRegression promotes the FuzzSAXDiscretize finding to a
// pinned regression: a 16-point window whose single w=1 PAA coefficient is
// analytically 0.0 — the middle breakpoint of every even alphabet. The
// fast path (prefix sums) computes the coefficient as exactly 0; the naive
// path (z-normalize, then average) accumulates in a different order and
// can come out a few ulps below 0, which used to encode one symbol lower.
// With the shared BoundaryTol tie-break both paths must agree.
func TestBreakpointTieRegression(t *testing.T) {
	// The fuzzer's input: bytes "0000101217100720" mapped by b/16 - 8.
	data := []byte("0000101217100720")
	series := make(timeseries.Series, len(data))
	for i, b := range data {
		series[i] = float64(b)/16 - 8
	}
	const n, w, a = 16, 1, 16

	f, err := timeseries.NewFeatures(series)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := NewMultiResolver(a)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := encodeSeries(f, n, Params{W: w, A: a}, mr)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NaiveDiscretize(series, n, Params{W: w, A: a})
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(naive) {
		t.Fatalf("token counts differ: fast %d, naive %d", len(fast), len(naive))
	}
	for i := range fast {
		if fast[i] != naive[i] {
			t.Fatalf("token %d: fast=%v naive=%v", i, fast[i], naive[i])
		}
	}
	// The case is only a regression test while the coefficient really is
	// on a breakpoint: the whole window's mean of its z-normalized self
	// is 0, the a=16 middle breakpoint.
	coeffs := make([]float64, w)
	if err := FastPAA(f, 0, n, w, coeffs); err != nil {
		t.Fatal(err)
	}
	if coeffs[0] != 0 {
		t.Fatalf("fast path coefficient = %v, expected exactly 0", coeffs[0])
	}
}

// TestSymbolForBoundaryTolerance: coefficients within BoundaryTol below a
// breakpoint are treated as on it (region above); coefficients clearly
// below stay below.
func TestSymbolForBoundaryTolerance(t *testing.T) {
	bps, err := Breakpoints(4) // {-0.6745, 0, 0.6745} approx
	if err != nil {
		t.Fatal(err)
	}
	mid := bps[1] // 0
	cases := []struct {
		c    float64
		want int
	}{
		{mid, 2},                     // exactly on: above
		{mid - BoundaryTol/2, 2},     // a hair below: treated as on
		{math.Nextafter(mid, -1), 2}, // one ulp below: treated as on
		{mid - 2*BoundaryTol, 1},     // clearly below: below
		{mid + BoundaryTol/2, 2},     // a hair above: above
	}
	for _, tc := range cases {
		if got := SymbolFor(tc.c, bps); got != tc.want {
			t.Errorf("SymbolFor(%v) = %d, want %d", tc.c, got, tc.want)
		}
	}
	// The multi-resolution path must agree everywhere near the breakpoint.
	mr, err := NewMultiResolver(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []int{2, 4, 6, 10} {
		bpsA, err := Breakpoints(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bpsA {
			for _, c := range []float64{b, b - BoundaryTol/2, b + BoundaryTol/2, math.Nextafter(b, -1), math.Nextafter(b, 1)} {
				sym, err := mr.Symbol(c, a)
				if err != nil {
					t.Fatal(err)
				}
				want := byte('a' + SymbolFor(c, bpsA))
				if sym != want {
					t.Errorf("a=%d c=%v: multires %q, direct %q", a, c, sym, want)
				}
			}
		}
	}
}

// TestIncrementalSeqMatchesDiscretize: extending a member pipeline through
// the shared Encoder span by span and slicing span tokens out of it
// reproduces, bit for bit, an unhinted from-scratch discretization of each
// span — across several span grids including single-point hops and a
// stale gap.
func TestIncrementalSeqMatchesDiscretize(t *testing.T) {
	series := make(timeseries.Series, 400)
	for i := range series {
		series[i] = math.Sin(float64(i)/7) + math.Cos(float64(i)/3)*0.4
	}
	f, err := timeseries.NewFeatures(series)
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	// W=14 exceeds the packed-code limit: its pipeline keys words by string.
	for _, p := range []Params{{W: 4, A: 5}, {W: 7, A: 3}, {W: 1, A: 2}, {W: 14, A: 4}} {
		mr, err := NewMultiResolver(p.A)
		if err != nil {
			t.Fatal(err)
		}
		for _, hop := range []int{1, 5, 37, 100} {
			seq := NewIncrementalSeq(p, 0)
			enc, err := NewEncoder(mr, n, p.W)
			if err != nil {
				t.Fatal(err)
			}
			var span []Token
			for start := 0; start+120 <= len(series); start += hop {
				end := start + 120
				// Extend the pipeline to the span's last window.
				if err := enc.Encode(f, []*IncrementalSeq{seq}, end-n); err != nil {
					t.Fatal(err)
				}
				span, err = spanTokens(span[:0], seq, start, end-n)
				if err != nil {
					t.Fatal(err)
				}
				// From-scratch reference over the same global positions.
				want, err := discretizeSpan(f, start, end, n, p, mr)
				if err != nil {
					t.Fatal(err)
				}
				if len(span) != len(want) {
					t.Fatalf("p=%v hop=%d span %d: %d tokens, want %d", p, hop, start, len(span), len(want))
				}
				for i := range span {
					if span[i] != want[i] {
						t.Fatalf("p=%v hop=%d span %d token %d: %v, want %v", p, hop, start, i, span[i], want[i])
					}
				}
				seq.TrimBefore(start + hop)
			}
		}
	}
}

// spanTokens re-bases the covering tokens of the windows [startWin, endWin]
// to span-local positions, the first one re-anchored to the span start —
// the form a from-scratch discretization of the span produces.
func spanTokens(dst []Token, seq *IncrementalSeq, startWin, endWin int) ([]Token, error) {
	toks, err := seq.Covering(startWin, endWin)
	if err != nil {
		return dst, err
	}
	ids := make([]int32, len(toks))
	for i, t := range toks {
		ids[i] = t.ID
	}
	words := seq.Words(ids)
	dst = append(dst, Token{Word: words[0], Pos: 0})
	for i, t := range toks[1:] {
		dst = append(dst, Token{Word: words[i+1], Pos: t.Pos - startWin})
	}
	return dst, nil
}

// discretizeSpan is the from-scratch reference: one word per window of the
// global span, numerosity-reduced, with span-local positions. It uses the
// same global-coordinate FastPAAFrom the pipeline uses, so any divergence
// is in the incremental bookkeeping, not the arithmetic.
func discretizeSpan(f *timeseries.Features, start, end, n int, p Params, mr *MultiResolver) ([]Token, error) {
	coeffs := make([]float64, p.W)
	word := make([]byte, p.W)
	var out []Token
	prev := ""
	for win := start; win <= end-n; win++ {
		if err := FastPAAFrom(f, win, n, p.W, coeffs); err != nil {
			return nil, err
		}
		if err := mr.EncodeWord(coeffs, p.A, word); err != nil {
			return nil, err
		}
		if win == start || string(word) != prev {
			out = append(out, Token{Word: string(word), Pos: win - start})
			prev = string(word)
		}
	}
	return out, nil
}

// TestIncrementalSeqReset: a reset pipeline restarts cleanly mid-stream.
func TestIncrementalSeqReset(t *testing.T) {
	p := Params{W: 2, A: 3}
	seq := NewIncrementalSeq(p, 0)
	seq.Append([]byte("ab"))
	seq.Append([]byte("ab"))
	seq.Append([]byte("ba"))
	if seq.Len() != 2 || seq.NextWin() != 3 {
		t.Fatalf("len=%d next=%d, want 2, 3", seq.Len(), seq.NextWin())
	}
	seq.Reset(10)
	if seq.Len() != 0 || seq.NextWin() != 10 {
		t.Fatalf("after reset: len=%d next=%d, want 0, 10", seq.Len(), seq.NextWin())
	}
	// First append after reset always emits, even for a word equal to the
	// pre-reset tail.
	seq.Append([]byte("ba"))
	if seq.Len() != 1 {
		t.Fatalf("after reset+append: len=%d, want 1", seq.Len())
	}
	toks, err := seq.Covering(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || seq.Words([]int32{toks[0].ID})[0] != "ba" || toks[0].Pos != 10 {
		t.Fatalf("covering tokens %v", toks)
	}
	// Asking for a span the sequence does not cover errors.
	if _, err := seq.Covering(10, 11); err == nil {
		t.Fatal("uncovered span should error")
	}
	if _, err := seq.Covering(9, 10); err == nil {
		t.Fatal("span before first token should error")
	}
}

// TestIncrementalSeqCompact: compaction keeps every retained token's word
// and the run head, drops the words only trimmed tokens used, and leaves a
// pipeline that keeps numerosity-reducing correctly — for packed-code and
// string-keyed dictionaries alike.
func TestIncrementalSeqCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range []Params{{W: 3, A: 4}, {W: 13, A: 3}} {
		seq := NewIncrementalSeq(p, 0)
		word := make([]byte, p.W)
		draw := func() {
			for i := range word {
				word[i] = byte('a' + rng.Intn(p.A))
			}
		}
		for i := 0; i < 400; i++ {
			if i%3 != 0 { // every third window repeats its predecessor
				draw()
			}
			seq.Append(word)
		}
		seq.TrimBefore(300)
		before := seq.State()
		distinct := map[string]bool{before.Prev: true}
		for _, tk := range before.Tokens {
			distinct[tk.Word] = true
		}
		seq.Compact()
		if got := seq.State(); !reflect.DeepEqual(got, before) {
			t.Fatalf("%v: state changed across Compact", p)
		}
		if seq.VocabLen() != len(distinct) {
			t.Fatalf("%v: vocabulary %d after Compact, want %d", p, seq.VocabLen(), len(distinct))
		}
		// The run head survives renumbering: repeating the last word
		// emits nothing, a new word one token.
		n := seq.Len()
		seq.Append(word)
		if seq.Len() != n {
			t.Fatalf("%v: repeated run head emitted a token after Compact", p)
		}
		if word[0] == 'a' {
			word[0] = 'b'
		} else {
			word[0] = 'a'
		}
		seq.Append(word)
		toks, err := seq.Covering(seq.NextWin()-1, seq.NextWin()-1)
		if err != nil {
			t.Fatal(err)
		}
		if got := seq.Words([]int32{toks[0].ID})[0]; seq.Len() != n+1 || got != string(word) {
			t.Fatalf("%v: new word after Compact: len %d, word %q, want %d, %q", p, seq.Len(), got, n+1, word)
		}
	}
}
