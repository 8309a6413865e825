package sax

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"egi/internal/stat"
	"egi/internal/timeseries"
)

func randomSeries(n int, seed int64) timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	s := make(timeseries.Series, n)
	v := 0.0
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v + 2*math.Sin(float64(i)/7)
	}
	return s
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p  Params
		n  int
		ok bool
	}{
		{Params{4, 4}, 16, true},
		{Params{1, 2}, 4, true},
		{Params{0, 4}, 16, false},
		{Params{17, 4}, 16, false},
		{Params{4, 1}, 16, false},
		{Params{4, 27}, 16, false},
	}
	for _, c := range cases {
		err := c.p.Validate(c.n)
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v, n=%d) error=%v, want ok=%v", c.p, c.n, err, c.ok)
		}
	}
}

func TestBreakpointsCachedAndCorrect(t *testing.T) {
	b3, err := Breakpoints(3)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3: a=3 breakpoints are approximately -0.43 and 0.43.
	if math.Abs(b3[0]+0.43) > 0.005 || math.Abs(b3[1]-0.43) > 0.005 {
		t.Errorf("a=3 breakpoints = %v", b3)
	}
	b3again, _ := Breakpoints(3)
	if &b3[0] != &b3again[0] {
		t.Error("breakpoints not cached")
	}
	if _, err := Breakpoints(1); err == nil {
		t.Error("a=1 should error")
	}
	if _, err := Breakpoints(27); err == nil {
		t.Error("a=27 should error")
	}
}

func TestSymbolForBoundaries(t *testing.T) {
	bps := []float64{-0.43, 0.43}
	cases := []struct {
		c    float64
		want int
	}{
		{-1, 0}, {-0.43, 1}, {0, 1}, {0.43, 2}, {1, 2},
	}
	for _, c := range cases {
		if got := SymbolFor(c.c, bps); got != c.want {
			t.Errorf("SymbolFor(%v) = %d, want %d", c.c, got, c.want)
		}
	}
}

func TestPAASimple(t *testing.T) {
	z := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	got, err := PAA(z, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PAA = %v, want %v", got, want)
		}
	}
	// w == n is the identity.
	id, _ := PAA(z, 8)
	for i := range z {
		if id[i] != z[i] {
			t.Fatalf("PAA w=n not identity: %v", id)
		}
	}
	if _, err := PAA(z, 0); err == nil {
		t.Error("w=0 should error")
	}
	if _, err := PAA(z, 9); err == nil {
		t.Error("w>n should error")
	}
}

func TestPAAUnevenSegments(t *testing.T) {
	// n=5, w=2: segments [0,2) and [2,5).
	z := []float64{2, 4, 3, 3, 3}
	got, err := PAA(z, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 3 {
		t.Errorf("PAA = %v, want [3 3]", got)
	}
}

func TestEncodeKnownWord(t *testing.T) {
	// A clean V-shape: high, low, low, high quarters under a=3 must give
	// symbols c,a,a,c (outer quarters above 0.43, inner below -0.43).
	sub := []float64{2, 2, -2, -2, -2, -2, 2, 2}
	word, err := EncodeSubsequence(sub, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if word != "caac" {
		t.Errorf("word = %q, want %q", word, "caac")
	}
}

func TestEncodeFlatWindow(t *testing.T) {
	word, err := EncodeSubsequence([]float64{5, 5, 5, 5}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Flat window z-normalizes to zeros; 0 falls in region [0, 0.67) of the
	// a=4 table, i.e. symbol index 2 = 'c'.
	if word != "cc" {
		t.Errorf("flat word = %q, want cc", word)
	}
}

func TestFastPAAMatchesNaive(t *testing.T) {
	s := randomSeries(500, 3)
	f, err := timeseries.NewFeatures(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 8 + rng.Intn(100)
		p := rng.Intn(len(s) - n)
		w := 1 + rng.Intn(n)
		fast := make([]float64, w)
		if err := FastPAA(f, p, n, w, fast); err != nil {
			t.Fatal(err)
		}
		z := stat.ZNormalize(s[p:p+n], Eps)
		naive, err := PAA(z, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range naive {
			if math.Abs(fast[i]-naive[i]) > 1e-8 {
				t.Fatalf("trial %d (p=%d n=%d w=%d): fast[%d]=%v naive=%v",
					trial, p, n, w, i, fast[i], naive[i])
			}
		}
	}
}

func TestFastPAAFlatWindow(t *testing.T) {
	s := timeseries.Series{3, 3, 3, 3, 3, 3, 1, 2}
	f, _ := timeseries.NewFeatures(s)
	dst := make([]float64, 3)
	if err := FastPAA(f, 0, 6, 3, dst); err != nil {
		t.Fatal(err)
	}
	for _, v := range dst {
		if v != 0 {
			t.Errorf("flat window PAA = %v, want zeros", dst)
		}
	}
}

func TestFastPAAErrors(t *testing.T) {
	s := randomSeries(50, 1)
	f, _ := timeseries.NewFeatures(s)
	if err := FastPAA(f, -1, 10, 2, make([]float64, 2)); err == nil {
		t.Error("negative p should error")
	}
	if err := FastPAA(f, 45, 10, 2, make([]float64, 2)); err == nil {
		t.Error("window past end should error")
	}
	if err := FastPAA(f, 0, 10, 11, make([]float64, 11)); err == nil {
		t.Error("w>n should error")
	}
	if err := FastPAA(f, 0, 10, 2, make([]float64, 3)); err == nil {
		t.Error("wrong dst length should error")
	}
}

func TestNumerosityReducePaperExample(t *testing.T) {
	// Eq. (2) -> Eq. (3), zero-based offsets: ba@0, dc@3, aa@5, ac@6.
	words := []string{"ba", "ba", "ba", "dc", "dc", "aa", "ac", "ac"}
	got := NumerosityReduce(words)
	want := []Token{{"ba", 0}, {"dc", 3}, {"aa", 5}, {"ac", 6}}
	if len(got) != len(want) {
		t.Fatalf("NumerosityReduce = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NumerosityReduce[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNumerosityRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alphabet := []string{"aa", "ab", "ba", "bb"}
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		words := make([]string, n)
		for i := range words {
			words[i] = alphabet[rng.Intn(len(alphabet))]
		}
		tokens := NumerosityReduce(words)
		back, err := ExpandNumerosity(tokens, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range words {
			if back[i] != words[i] {
				t.Fatalf("round trip mismatch at %d: %v vs %v", i, back, words)
			}
		}
		// No two consecutive tokens share a word.
		for i := 1; i < len(tokens); i++ {
			if tokens[i].Word == tokens[i-1].Word {
				t.Fatalf("consecutive duplicate tokens: %v", tokens)
			}
		}
	}
}

func TestExpandNumerosityErrors(t *testing.T) {
	if _, err := ExpandNumerosity([]Token{{"a", 0}}, -1); err == nil {
		t.Error("negative window count should error")
	}
	if _, err := ExpandNumerosity([]Token{{"a", 5}}, 3); err == nil {
		t.Error("out-of-range token position should error")
	}
	if _, err := ExpandNumerosity([]Token{{"a", 2}, {"b", 1}}, 5); err == nil {
		t.Error("non-monotonic positions should error")
	}
}

// encodeSeries runs the shared Encoder over every window of the series
// for one fresh pipeline of p and renders the pipeline's tokens.
func encodeSeries(f *timeseries.Features, n int, p Params, mr *MultiResolver) ([]Token, error) {
	enc, err := NewEncoder(mr, n, p.W)
	if err != nil {
		return nil, err
	}
	seq := NewIncrementalSeq(p, 0)
	if err := enc.Encode(f, []*IncrementalSeq{seq}, f.SeriesLen()-n); err != nil {
		return nil, err
	}
	return seq.State().Tokens, nil
}

func TestDiscretizeMatchesNaive(t *testing.T) {
	s := randomSeries(300, 9)
	f, _ := timeseries.NewFeatures(s)
	mr, err := NewMultiResolver(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{{2, 2}, {4, 4}, {5, 3}, {8, 10}, {3, 7}, {13, 6}, {14, 10}} {
		fast, err := encodeSeries(f, 40, p, mr)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		naive, err := NaiveDiscretize(s, 40, p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if len(fast) != len(naive) {
			t.Fatalf("%v: %d tokens fast vs %d naive", p, len(fast), len(naive))
		}
		for i := range fast {
			if fast[i] != naive[i] {
				t.Fatalf("%v token %d: fast=%v naive=%v", p, i, fast[i], naive[i])
			}
		}
	}
}

// TestDiscretizeManyMatchesSingle: one encoder walk shared by every
// pipeline of a PAA size gives each pipeline the tokens of its own walk
// and of the naive reference.
func TestDiscretizeManyMatchesSingle(t *testing.T) {
	s := randomSeries(400, 21)
	f, _ := timeseries.NewFeatures(s)
	mr, _ := NewMultiResolver(12)
	params := []Params{{3, 5}, {7, 2}, {3, 12}, {10, 7}, {7, 7}, {14, 3}, {14, 12}}
	many, err := DiscretizeMany(f, 60, params, mr)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != len(params) {
		t.Fatalf("got %d sequences, want %d", len(many), len(params))
	}
	for i, p := range params {
		single, err := encodeSeries(f, 60, p, mr)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveDiscretize(s, 60, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(many[i], single) || !reflect.DeepEqual(many[i], naive) {
			t.Fatalf("param %v: shared walk, single walk and naive reference disagree", p)
		}
	}
}

func TestDiscretizeErrors(t *testing.T) {
	s := randomSeries(100, 2)
	f, _ := timeseries.NewFeatures(s)
	mr, _ := NewMultiResolver(5)
	if _, err := encodeSeries(f, 0, Params{2, 3}, mr); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := encodeSeries(f, 101, Params{2, 3}, mr); !errors.Is(err, ErrBadWindow) {
		t.Errorf("n>len: err %v, want ErrBadWindow", err)
	}
	if _, err := encodeSeries(f, 20, Params{2, 8}, mr); !errors.Is(err, ErrBadAlphabet) {
		t.Errorf("a beyond resolver amax: err %v, want ErrBadAlphabet", err)
	}
	if _, err := encodeSeries(f, 20, Params{2, 8}, nil); !errors.Is(err, ErrBadAlphabet) {
		t.Errorf("nil resolver: err %v, want ErrBadAlphabet", err)
	}
	if _, err := encodeSeries(f, 20, Params{21, 3}, mr); !errors.Is(err, ErrBadPAASize) {
		t.Errorf("w>n: err %v, want ErrBadPAASize", err)
	}
	if _, err := encodeSeries(f, 20, Params{2, 1}, mr); !errors.Is(err, ErrBadAlphabet) {
		t.Errorf("a=1: err %v, want ErrBadAlphabet", err)
	}
	enc, err := NewEncoder(mr, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(f, []*IncrementalSeq{NewIncrementalSeq(Params{4, 3}, 0)}, 50); !errors.Is(err, ErrBadPAASize) {
		t.Errorf("pipeline of another PAA size: err %v, want ErrBadPAASize", err)
	}
	seq := NewIncrementalSeq(Params{3, 3}, 0)
	if err := enc.Encode(f, []*IncrementalSeq{seq}, -1); !errors.Is(err, ErrBadWindow) || seq.NextWin() != 0 {
		t.Errorf("windows before the source: err %v, next window %d", err, seq.NextWin())
	}
	if _, err := DiscretizeMany(f, 20, nil, mr); err == nil {
		t.Error("no params should error")
	}
	if _, err := NaiveDiscretize(timeseries.Series{}, 5, Params{2, 3}); err == nil {
		t.Error("empty series should error")
	}
}

func TestDiscretizeTokenInvariants(t *testing.T) {
	s := randomSeries(250, 13)
	f, _ := timeseries.NewFeatures(s)
	mr, _ := NewMultiResolver(8)
	p := Params{5, 6}
	tokens, err := encodeSeries(f, 30, p, mr)
	if err != nil {
		t.Fatal(err)
	}
	if len(tokens) == 0 || tokens[0].Pos != 0 {
		t.Fatalf("first token must start at window 0: %v", tokens[:1])
	}
	numWin := len(s) - 30 + 1
	for i, tok := range tokens {
		if len(tok.Word) != p.W {
			t.Fatalf("token %d word %q has length %d, want %d", i, tok.Word, len(tok.Word), p.W)
		}
		for _, ch := range tok.Word {
			if ch < 'a' || int(ch-'a') >= p.A {
				t.Fatalf("token %d word %q has symbol outside alphabet %d", i, tok.Word, p.A)
			}
		}
		if tok.Pos < 0 || tok.Pos >= numWin {
			t.Fatalf("token %d position %d outside [0,%d)", i, tok.Pos, numWin)
		}
		if i > 0 && tok.Pos <= tokens[i-1].Pos {
			t.Fatalf("token positions not strictly increasing: %v", tokens)
		}
	}
}

func TestWordLengthsAcrossParams(t *testing.T) {
	// Tokens of a single discretization all share one word length; two
	// members with different w can never collide on a word.
	s := randomSeries(150, 77)
	f, _ := timeseries.NewFeatures(s)
	mr, _ := NewMultiResolver(6)
	t1, _ := encodeSeries(f, 25, Params{3, 4}, mr)
	t2, _ := encodeSeries(f, 25, Params{6, 4}, mr)
	set := map[string]bool{}
	for _, tok := range t1 {
		set[tok.Word] = true
	}
	for _, tok := range t2 {
		if set[tok.Word] {
			t.Fatalf("word %q appears under both w=3 and w=6", tok.Word)
		}
	}
	_ = strings.Repeat // keep strings import if unused elsewhere
}
