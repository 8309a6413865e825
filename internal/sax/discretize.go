package sax

import (
	"fmt"

	"egi/internal/stat"
	"egi/internal/timeseries"
)

// Token is one entry of a numerosity-reduced token sequence: a SAX word and
// the start offset, in the original time series, of the first sliding
// window that produced it (the subscripts of Eq. (3) in the paper).
type Token struct {
	Word string
	Pos  int
}

// NumerosityReduce compresses a raw word-per-window sequence by keeping
// only the first of each run of consecutive identical words, together with
// its window offset (§4.2). The result is lossless given the total window
// count: the run for token i extends to the position of token i+1.
func NumerosityReduce(words []string) []Token {
	out := make([]Token, 0, len(words))
	prev := ""
	for i, w := range words {
		if i == 0 || w != prev {
			out = append(out, Token{Word: w, Pos: i})
			prev = w
		}
	}
	return out
}

// ExpandNumerosity reconstructs the raw word-per-window sequence from a
// numerosity-reduced token sequence and the total number of windows. It is
// the inverse of NumerosityReduce and exists chiefly to state (and test)
// the losslessness property.
func ExpandNumerosity(tokens []Token, numWindows int) ([]string, error) {
	if numWindows < 0 {
		return nil, fmt.Errorf("sax: negative window count %d", numWindows)
	}
	out := make([]string, numWindows)
	for i, tok := range tokens {
		end := numWindows
		if i+1 < len(tokens) {
			end = tokens[i+1].Pos
		}
		if tok.Pos < 0 || tok.Pos >= end || end > numWindows {
			return nil, fmt.Errorf("sax: token %d has inconsistent position %d", i, tok.Pos)
		}
		for j := tok.Pos; j < end; j++ {
			out[j] = tok.Word
		}
	}
	return out, nil
}

// WindowSource is what an Encoder walks: constant-time range sums over the
// retained positions [First(), End()) of a series, in its own coordinates.
// timeseries.Features (a whole series) and timeseries.RingFeatures (the
// rolling window of a stream) both implement it.
type WindowSource interface {
	FeatureSource
	// First is the earliest retained (queryable) position.
	First() int
	// End is the exclusive end of the retained positions.
	End() int
}

// Encoder is the library's one sliding-window walk: it turns each window
// of n points into its SAX word at one PAA size w and appends the word to
// every member pipeline of that size — the §6.2 multi-resolution fast
// path, restated incrementally. Per window it computes the mean and
// standard deviation once (timeseries.MeanStd), the PAA coefficients once
// (FastPAAWith) and their breakpoint intervals once (MultiResolver.
// Intervals, hinted with the previous window's intervals); each pipeline
// then encodes only its own alphabet from the intervals, as a packed code
// (CodeAt, AppendCode) for w up to MaxPackedW and as word bytes (WordAt,
// Append) above it. A window whose intervals all equal the previous
// window's repeats every word, so the pipelines that encoded that window
// just advance. Pipelines may resume at different windows; each joins the
// walk once it reaches its NextWin.
//
// The detection engine runs one Encoder per PAA size of a span's members,
// and the single-run detectors run one over a single fresh pipeline, so
// every path of the library discretizes through this walk. An Encoder
// reuses its scratch across calls and is not safe for concurrent use.
type Encoder struct {
	mr      *MultiResolver
	n       int
	coeffs  []float64         // PAA coefficients of the current window
	ivals   []int             // their breakpoint intervals, the next window's hints
	word    []byte            // one member's word, for sizes above MaxPackedW
	pending []*IncrementalSeq // the call's pipelines with windows to encode, by NextWin
}

// NewEncoder returns the encoder of windows of n points at PAA size w,
// resolving symbols through mr.
func NewEncoder(mr *MultiResolver, n, w int) (*Encoder, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadWindow, n)
	}
	if w < 1 || w > n {
		return nil, fmt.Errorf("%w: w=%d, n=%d", ErrBadPAASize, w, n)
	}
	if mr == nil {
		return nil, fmt.Errorf("%w: no resolver", ErrBadAlphabet)
	}
	e := &Encoder{mr: mr, n: n, coeffs: make([]float64, w), ivals: make([]int, w)}
	if w > MaxPackedW {
		e.word = make([]byte, w)
	}
	return e, nil
}

// MemoryBytes is the encoder's retained scratch, at capacity.
func (e *Encoder) MemoryBytes() int64 {
	return int64(cap(e.pending)+cap(e.coeffs)+cap(e.ivals))*8 + int64(cap(e.word))
}

// Encode appends to each pipeline every window from its NextWin up to
// lastWin. Every pipeline must have the encoder's PAA size and valid
// parameters for its window length, with an alphabet the resolver covers,
// and the windows must lie in the source's retained range; otherwise
// Encode appends nothing and returns an error.
func (e *Encoder) Encode(src WindowSource, pipes []*IncrementalSeq, lastWin int) error {
	n, w := e.n, len(e.coeffs)
	if lastWin < src.First() || lastWin+n > src.End() {
		return fmt.Errorf("%w: windows of %d points up to %d, retained [%d,%d)", ErrBadWindow, n, lastWin, src.First(), src.End())
	}
	pending := e.pending[:0]
	for _, s := range pipes {
		p := s.Params()
		if err := p.Validate(n); err != nil {
			return err
		}
		if p.W != w {
			return fmt.Errorf("%w: pipeline %v in an encoder of w=%d", ErrBadPAASize, p, w)
		}
		if p.A > e.mr.AMax() {
			return fmt.Errorf("%w: resolver too small for a=%d", ErrBadAlphabet, p.A)
		}
		if s.NextWin() < src.First() {
			return fmt.Errorf("%w: pipeline %v resumes at window %d, retained from %d", ErrBadWindow, p, s.NextWin(), src.First())
		}
		if s.NextWin() <= lastWin {
			// Insertion sort by next window: groups hold a handful of members.
			k := len(pending)
			pending = append(pending, s)
			for ; k > 0 && pending[k-1].NextWin() > s.NextWin(); k-- {
				pending[k] = pending[k-1]
			}
			pending[k] = s
		}
	}
	e.pending = pending
	if len(pending) == 0 {
		return nil
	}
	sums := FeatureSource(src) // converted once, not twice per window
	packed := w <= MaxPackedW
	active := 0
	for win := pending[0].NextWin(); win <= lastWin; win++ {
		walking := active // pipelines that encoded the previous window
		for active < len(pending) && pending[active].NextWin() == win {
			active++
		}
		mu, sigma := timeseries.MeanStd(sums, win, win+n)
		if err := FastPAAWith(sums, win, n, w, mu, sigma, e.coeffs); err != nil {
			return err
		}
		// Breakpoint intervals depend on the coefficients alone, so the
		// pipelines share one resolution and encode only their alphabet's
		// symbols from it.
		moved, err := e.mr.Intervals(e.coeffs, e.ivals)
		if err != nil {
			return err
		}
		encode := pending[:active]
		if !moved {
			// Every alphabet's word is the previous window's, so each
			// pipeline that encoded that window would append the same word
			// again, which numerosity reduction makes a one-window advance.
			// Only pipelines joining here encode. On the call's first window
			// no pipeline is walking yet; its hints come from an earlier call.
			for _, s := range pending[:walking] {
				s.repeat()
			}
			encode = pending[walking:active]
		}
		for _, s := range encode {
			if packed {
				s.AppendCode(e.mr.CodeAt(e.ivals, s.Params().A))
				continue
			}
			if err := e.mr.WordAt(e.ivals, s.Params().A, e.word); err != nil {
				return err
			}
			s.Append(e.word)
		}
	}
	return nil
}

// DiscretizeMany produces one numerosity-reduced token sequence over the
// whole series per parameter combination: one Encoder per distinct PAA
// size walks the windows for fresh pipelines of all its combinations, and
// their tokens are rendered into words. The i-th returned sequence
// corresponds to params[i].
func DiscretizeMany(f *timeseries.Features, n int, params []Params, mr *MultiResolver) ([][]Token, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("sax: no parameter combinations")
	}
	seqs := make([]*IncrementalSeq, len(params))
	for i, p := range params {
		seqs[i] = NewIncrementalSeq(p, 0)
	}
	encoded := make(map[int]bool)
	for _, p := range params {
		if encoded[p.W] {
			continue
		}
		encoded[p.W] = true
		var group []*IncrementalSeq
		for _, s := range seqs {
			if s.Params().W == p.W {
				group = append(group, s)
			}
		}
		enc, err := NewEncoder(mr, n, p.W)
		if err != nil {
			return nil, err
		}
		if err := enc.Encode(f, group, f.SeriesLen()-n); err != nil {
			return nil, err
		}
	}
	out := make([][]Token, len(params))
	for i, s := range seqs {
		out[i] = s.State().Tokens
	}
	return out, nil
}

// NaiveDiscretize is the unaccelerated reference discretizer: it
// z-normalizes every window from scratch and encodes it with the plain
// breakpoint table. It exists to test the fast path against and to measure
// the §6.2.3 speedup in the ablation benchmarks.
func NaiveDiscretize(series timeseries.Series, n int, p Params) ([]Token, error) {
	if err := series.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 || n > len(series) {
		return nil, fmt.Errorf("%w: n=%d, len=%d", ErrBadWindow, n, len(series))
	}
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	numWin := len(series) - n + 1
	z := make([]float64, n)
	tokens := make([]Token, 0, numWin/4+1)
	prev := ""
	for i := 0; i < numWin; i++ {
		stat.ZNormalizeInto(z, series[i:i+n], Eps)
		word, err := Encode(z, p.W, p.A)
		if err != nil {
			return nil, err
		}
		if i == 0 || word != prev {
			tokens = append(tokens, Token{Word: word, Pos: i})
			prev = word
		}
	}
	return tokens, nil
}
