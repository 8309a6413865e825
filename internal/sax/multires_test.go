package sax

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestMultiResolverFigure6(t *testing.T) {
	// Figure 6 of the paper: with alphabets 2..4 the summary line has the
	// distinct breakpoints of a=2 {0}, a=3 {-0.43,0.43}, a=4 {-0.67,0,0.67},
	// i.e. 5 points and 6 intervals, and the quoted coefficients map to the
	// symbol sequences aaa, abb and bcd (rows a=2,3,4).
	mr, err := NewMultiResolver(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.merged) != 5 {
		t.Fatalf("merged breakpoints = %v, want 5 points", mr.merged)
	}
	cases := []struct {
		coeff float64
		want  string // symbols for a=2,3,4 concatenated
	}{
		{-1.0, "aaa"}, // (-inf, -0.67)
		{-0.2, "abb"}, // [-0.43, 0)
		{1.0, "bcd"},  // [0.67, +inf)
		{-0.5, "aab"}, // [-0.67, -0.43)
		{0.2, "bbc"},  // [0, 0.43)
		{0.5, "bcc"},  // [0.43, 0.67)
	}
	for _, c := range cases {
		got := make([]byte, 3)
		for a := 2; a <= 4; a++ {
			sym, err := mr.Symbol(c.coeff, a)
			if err != nil {
				t.Fatal(err)
			}
			got[a-2] = sym
		}
		if string(got) != c.want {
			t.Errorf("coeff %v -> %q, want %q", c.coeff, got, c.want)
		}
	}
}

func TestMultiResolverMatchesDirectSAX(t *testing.T) {
	mr, err := NewMultiResolver(20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		c := rng.NormFloat64() * 1.5
		a := 2 + rng.Intn(19)
		bps, _ := Breakpoints(a)
		want := byte('a' + SymbolFor(c, bps))
		got, err := mr.Symbol(c, a)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("coeff=%v a=%d: multires %q, direct %q", c, a, got, want)
		}
	}
}

func TestMultiResolverExactBreakpoints(t *testing.T) {
	// A coefficient exactly on a breakpoint belongs to the region above it
	// under both the direct and the multi-resolution path.
	mr, _ := NewMultiResolver(10)
	for a := 2; a <= 10; a++ {
		bps, _ := Breakpoints(a)
		for _, b := range bps {
			want := byte('a' + SymbolFor(b, bps))
			got, err := mr.Symbol(b, a)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("a=%d breakpoint %v: multires %q, direct %q", a, b, got, want)
			}
		}
	}
}

func TestWordMatrix(t *testing.T) {
	mr, _ := NewMultiResolver(4)
	coeffs := []float64{-1.0, -0.2, 1.0}
	matrix := mr.WordMatrix(coeffs)
	// Rows correspond to a=2,3,4; columns to the coefficients. Transposing
	// the Figure 6 case table gives these rows.
	want := []string{"aab", "abc", "abd"}
	if len(matrix) != 3 {
		t.Fatalf("matrix has %d rows, want 3", len(matrix))
	}
	for i := range want {
		if matrix[i] != want[i] {
			t.Errorf("matrix row %d = %q, want %q", i, matrix[i], want[i])
		}
	}
}

func TestWordMatrixAgreesWithEncodeWord(t *testing.T) {
	mr, _ := NewMultiResolver(12)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		w := 1 + rng.Intn(10)
		coeffs := make([]float64, w)
		for i := range coeffs {
			coeffs[i] = rng.NormFloat64()
		}
		matrix := mr.WordMatrix(coeffs)
		for a := 2; a <= 12; a++ {
			dst := make([]byte, w)
			if err := mr.EncodeWord(coeffs, a, dst); err != nil {
				t.Fatal(err)
			}
			if matrix[a-2] != string(dst) {
				t.Fatalf("a=%d: matrix %q vs EncodeWord %q", a, matrix[a-2], dst)
			}
		}
	}
}

func TestMultiResolverErrors(t *testing.T) {
	if _, err := NewMultiResolver(1); err == nil {
		t.Error("amax=1 should error")
	}
	if _, err := NewMultiResolver(27); err == nil {
		t.Error("amax=27 should error")
	}
	mr, _ := NewMultiResolver(5)
	if _, err := mr.Symbol(0, 1); err == nil {
		t.Error("a=1 should error")
	}
	if _, err := mr.Symbol(0, 6); err == nil {
		t.Error("a beyond amax should error")
	}
	if err := mr.EncodeWord([]float64{0, 0}, 3, make([]byte, 3)); err == nil {
		t.Error("mismatched dst should error")
	}
	if err := mr.EncodeWord([]float64{0}, 9, make([]byte, 1)); err == nil {
		t.Error("a beyond amax should error in EncodeWord")
	}
}

func TestMergedBreakpointsSortedDistinct(t *testing.T) {
	for amax := 2; amax <= 26; amax++ {
		mr, err := NewMultiResolver(amax)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(mr.merged); i++ {
			if mr.merged[i]-mr.merged[i-1] <= mergeTolerance {
				t.Fatalf("amax=%d: merged breakpoints not distinct ascending: %v",
					amax, mr.merged)
			}
		}
		// Symbols must be monotonically non-decreasing along the summary
		// line for every alphabet size.
		for a := 2; a <= amax; a++ {
			prev := byte(0)
			for k := 0; k <= len(mr.merged); k++ {
				s := mr.symbol(k, a)
				if s < prev {
					t.Fatalf("amax=%d a=%d: symbols not monotone", amax, a)
				}
				prev = s
			}
			first := mr.symbol(0, a)
			last := mr.symbol(len(mr.merged), a)
			if first != 'a' {
				t.Fatalf("amax=%d a=%d: leftmost interval symbol %q, want 'a'", amax, a, first)
			}
			if int(last-'a') != a-1 {
				t.Fatalf("amax=%d a=%d: rightmost interval symbol %q, want %q",
					amax, a, last, byte('a'+a-1))
			}
		}
	}
	_ = math.Pi
}

// probeCoefficients returns coefficients around every merged breakpoint of
// mr — on it, at ±BoundaryTol (where the tie-break flips), and at the next
// float64 either side of each — plus extremes and random values.
func probeCoefficients(mr *MultiResolver, rng *rand.Rand) []float64 {
	cs := []float64{0, 1e300, -1e300, math.Inf(1), math.Inf(-1)}
	for _, b := range mr.merged {
		for _, c := range []float64{b, b - BoundaryTol, b + BoundaryTol} {
			cs = append(cs, c, math.Nextafter(c, math.Inf(1)), math.Nextafter(c, math.Inf(-1)))
		}
	}
	for i := 0; i < 200; i++ {
		cs = append(cs, rng.NormFloat64()*2)
	}
	return cs
}

// TestHintedIntervalsMatchInterval: whatever dst holds on entry — every
// interval index, the ones just outside the valid range, or a stale index
// from another coefficient — Intervals writes exactly Interval(c), and
// reports a move exactly when it changed an entry.
func TestHintedIntervalsMatchInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, amax := range []int{2, 3, 10, 26} {
		mr, err := NewMultiResolver(amax)
		if err != nil {
			t.Fatal(err)
		}
		cs := append(probeCoefficients(mr, rng), math.NaN())
		dst := make([]int, 1)
		for _, c := range cs {
			want := mr.Interval(c)
			for hint := -1; hint <= len(mr.merged)+1; hint++ {
				dst[0] = hint
				moved, err := mr.Intervals([]float64{c}, dst)
				if err != nil {
					t.Fatal(err)
				}
				if dst[0] != want || moved != (hint != want) {
					t.Fatalf("amax=%d c=%v hint %d: interval %d, want %d", amax, c, hint, dst[0], want)
				}
			}
		}
		// Whole words with the previous word's intervals as hints, the
		// encoder's sliding-window use.
		word := make([]float64, 8)
		hints := make([]int, len(word))
		for trial := 0; trial < 500; trial++ {
			if trial%3 != 0 { // every third window repeats the previous one
				for i := range word {
					word[i] = cs[rng.Intn(len(cs))]
				}
			}
			before := append([]int(nil), hints...)
			moved, err := mr.Intervals(word, hints)
			if err != nil {
				t.Fatal(err)
			}
			if same := slices.Equal(before, hints); moved == same {
				t.Fatalf("amax=%d trial %d: moved=%v with intervals %v -> %v", amax, trial, moved, before, hints)
			}
			for i, c := range word {
				if hints[i] != mr.Interval(c) {
					t.Fatalf("amax=%d trial %d: coefficient %d interval %d, want %d", amax, trial, i, hints[i], mr.Interval(c))
				}
			}
		}
	}
}

// TestSymbolsMatchBreakpointTables: Symbol and EncodeWord agree with the
// plain breakpoint table of every alphabet size, for every resolver size,
// at the breakpoints, either side of the tie-break and at the extremes.
func TestSymbolsMatchBreakpointTables(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for amax := 2; amax <= MaxAlphabet; amax++ {
		mr, err := NewMultiResolver(amax)
		if err != nil {
			t.Fatal(err)
		}
		cs := probeCoefficients(mr, rng)
		word := make([]byte, len(cs))
		for a := 2; a <= amax; a++ {
			bps, _ := Breakpoints(a)
			if err := mr.EncodeWord(cs, a, word); err != nil {
				t.Fatal(err)
			}
			for i, c := range cs {
				want := byte('a' + SymbolFor(c, bps))
				got, err := mr.Symbol(c, a)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || word[i] != want {
					t.Fatalf("amax=%d a=%d c=%v: Symbol %q, EncodeWord %q, table %q", amax, a, c, got, word[i], want)
				}
			}
		}
	}
}

// TestCodeAtMatchesWordAt: the packed code CodeAt folds from intervals is
// the code of the word WordAt renders from them, for every alphabet size
// and every word length up to MaxPackedW.
func TestCodeAtMatchesWordAt(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, amax := range []int{2, 5, 10, 26} {
		mr, err := NewMultiResolver(amax)
		if err != nil {
			t.Fatal(err)
		}
		for w := 1; w <= MaxPackedW; w++ {
			iv := make([]int, w)
			word := make([]byte, w)
			for trial := 0; trial < 50; trial++ {
				for i := range iv {
					iv[i] = rng.Intn(len(mr.merged) + 1)
				}
				if trial == 0 { // the extreme intervals
					for i := range iv {
						iv[i] = (i % 2) * len(mr.merged)
					}
				}
				for a := 2; a <= amax; a++ {
					if err := mr.WordAt(iv, a, word); err != nil {
						t.Fatal(err)
					}
					if got, want := mr.CodeAt(iv, a), pack(word); got != want {
						t.Fatalf("amax=%d a=%d intervals %v: CodeAt %#x, packed WordAt %q = %#x", amax, a, iv, got, word, want)
					}
				}
			}
		}
	}
}
