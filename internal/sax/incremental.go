package sax

import (
	"fmt"
	"sort"
)

// IncrementalSeq is a numerosity-reduced token sequence maintained
// incrementally over a growing stream of sliding windows, in *global*
// window coordinates: token Pos values are absolute window start positions,
// not span-relative ones. It is the per-member re-discretization state of
// the detection engine: when a hop shifts the analysis span by H points,
// the tokens for the overlapping region are kept and only the H new suffix
// windows are encoded, with the numerosity-reduction run state resumed at
// the seam.
//
// The incremental invariant (tested property): provided every window's word
// is computed from span-independent range sums (FastPAAFrom over a global-
// coordinate FeatureSource), Covering(start, ...) with its first token
// re-anchored to the span start is bit-identical to numerosity-reducing a
// from-scratch word-per-window pass over the span — the first retained
// token stands in for the run it was cut out of, exactly as Discretize
// would have emitted it.
type IncrementalSeq struct {
	params    Params
	tokens    []Token // ascending global Pos; tokens[i].Pos < next
	prev      string  // word of the last appended window (empty before any)
	next      int     // global index of the next window to encode
	empty     bool    // no windows appended since the last reset
	wordBytes int64   // total len(Word) over retained tokens
	trimmed   int     // positions below this may have incomplete history
}

// NewIncrementalSeq creates an empty sequence for one (w, a) member,
// positioned to encode global window startWin first.
func NewIncrementalSeq(p Params, startWin int) *IncrementalSeq {
	return &IncrementalSeq{params: p, next: startWin, empty: true, trimmed: startWin}
}

// Params returns the member's discretization parameters.
func (s *IncrementalSeq) Params() Params { return s.params }

// NextWin returns the global index of the next window to be appended.
func (s *IncrementalSeq) NextWin() int { return s.next }

// Len returns the number of retained tokens.
func (s *IncrementalSeq) Len() int { return len(s.tokens) }

// Reset discards all state and positions the sequence at global window
// startWin, as if freshly constructed. Used when the member fell so far
// behind the stream that the points needed to extend it are gone.
func (s *IncrementalSeq) Reset(startWin int) {
	s.tokens = s.tokens[:0]
	s.prev = ""
	s.next = startWin
	s.empty = true
	s.wordBytes = 0
	s.trimmed = startWin
}

// Append encodes the next window (global index NextWin) from its word
// bytes, advancing the sequence by one window and emitting a token only
// when the word differs from the previous window's — numerosity reduction
// with its run state carried across spans.
func (s *IncrementalSeq) Append(word []byte) {
	if s.empty || string(word) != s.prev {
		w := string(word)
		s.tokens = append(s.tokens, Token{Word: w, Pos: s.next})
		s.prev = w
		s.empty = false
		s.wordBytes += int64(len(w))
	}
	s.next++
}

// tokenSize is the in-memory size of one Token (string header + int),
// excluding the word bytes it points at.
const tokenSize = 24

// MemoryBytes is the sequence's retained-memory accounting: the token
// backing array (at capacity, since trimmed slices keep their storage) plus
// the word bytes the retained tokens own. Maintained incrementally, so the
// call is O(1).
func (s *IncrementalSeq) MemoryBytes() int64 {
	return int64(cap(s.tokens))*tokenSize + s.wordBytes
}

// TrimBefore drops tokens that can no longer be the covering token of any
// span starting at or after win: every leading token whose successor also
// starts at or before win. The last token at or before win is always kept —
// it carries the word of window win itself.
func (s *IncrementalSeq) TrimBefore(win int) {
	if win > s.trimmed {
		s.trimmed = win
	}
	k := 0
	for k+1 < len(s.tokens) && s.tokens[k+1].Pos <= win {
		s.wordBytes -= int64(len(s.tokens[k].Word))
		k++
	}
	if k > 0 {
		s.tokens = s.tokens[:copy(s.tokens, s.tokens[k:])]
	}
}

// TrimmedTo returns the trim watermark: every token with
// Pos >= TrimmedTo() is retained, plus the last token at or before it
// (the covering token TrimBefore always keeps), while other tokens below
// the watermark may have been dropped by TrimBefore or discarded by
// Reset. Consumers resuming an induction feed use it to detect that the
// tokens they still need are gone.
func (s *IncrementalSeq) TrimmedTo() int { return s.trimmed }

// Suffix returns the retained tokens with Pos in (afterWin, endWin], the
// incremental continuation of a feed that has consumed windows up to and
// including afterWin. The sequence must cover endWin (NextWin() > endWin)
// and the caller must have established afterWin >= TrimmedTo()-1, so that
// no token in the range has been trimmed away. The returned slice aliases
// the sequence's storage and is valid until the next Append or TrimBefore.
func (s *IncrementalSeq) Suffix(afterWin, endWin int) ([]Token, error) {
	if s.empty || s.next <= endWin {
		return nil, fmt.Errorf("sax: sequence %v covers windows up to %d, suffix needs %d", s.params, s.next-1, endWin)
	}
	i := sort.Search(len(s.tokens), func(i int) bool { return s.tokens[i].Pos > afterWin })
	j := i + sort.Search(len(s.tokens)-i, func(k int) bool { return s.tokens[i+k].Pos > endWin })
	return s.tokens[i:j], nil
}

// SeqState is the portable form of an IncrementalSeq: everything needed to
// reconstruct the pipeline bit-for-bit on another process — the retained
// numerosity-reduced tokens (global positions), the run word at the feed
// head, and the trim watermark. Produced by State, consumed by RestoreSeq;
// the durability layer serializes it into stream snapshots.
type SeqState struct {
	// Params is the member's (w, a) combination.
	Params Params
	// Next is the global index of the next window to encode.
	Next int
	// Prev is the word of the last appended window ("" before any).
	Prev string
	// Empty reports that no window has been appended since the last reset.
	Empty bool
	// Trimmed is the TrimBefore watermark.
	Trimmed int
	// Tokens are the retained tokens, ascending global Pos.
	Tokens []Token
}

// State captures the sequence for serialization. The returned state copies
// the token slice header into fresh storage so it stays valid across
// further Appends; the word strings are shared (immutable).
func (s *IncrementalSeq) State() SeqState {
	return SeqState{
		Params:  s.params,
		Next:    s.next,
		Prev:    s.prev,
		Empty:   s.empty,
		Trimmed: s.trimmed,
		Tokens:  append([]Token(nil), s.tokens...),
	}
}

// RestoreSeq reconstructs an IncrementalSeq from a captured state. The
// result is behaviorally identical to the pipeline the state was captured
// from: subsequent Appends, Suffix and Covering calls produce bit-equal
// output.
func RestoreSeq(st SeqState) *IncrementalSeq {
	s := &IncrementalSeq{
		params:  st.Params,
		tokens:  append([]Token(nil), st.Tokens...),
		prev:    st.Prev,
		next:    st.Next,
		empty:   st.Empty,
		trimmed: st.Trimmed,
	}
	for _, t := range s.tokens {
		s.wordBytes += int64(len(t.Word))
	}
	return s
}

// Covering returns the retained tokens that cover the span whose windows
// are [startWin, endWin] (global, inclusive): the last token at or before
// startWin, which carries the word of the span's first window, followed by
// every token with Pos in (startWin, endWin]. Re-anchoring the first
// token's Pos to startWin yields, in global coordinates, exactly the token
// sequence a from-scratch Discretize over the span would produce. The
// sequence must already cover the span: its first token at or before
// startWin, and NextWin() > endWin. The returned slice aliases the
// sequence's storage and is valid until the next Append or TrimBefore.
func (s *IncrementalSeq) Covering(startWin, endWin int) ([]Token, error) {
	if s.empty || s.next <= endWin {
		return nil, fmt.Errorf("sax: sequence %v covers windows up to %d, span needs %d", s.params, s.next-1, endWin)
	}
	if len(s.tokens) == 0 || s.tokens[0].Pos > startWin {
		return nil, fmt.Errorf("sax: sequence %v trimmed past span start window %d", s.params, startWin)
	}
	k := sort.Search(len(s.tokens), func(i int) bool { return s.tokens[i].Pos > startWin }) - 1
	j := k + sort.Search(len(s.tokens)-k, func(i int) bool { return s.tokens[k+i].Pos > endWin })
	return s.tokens[k:j], nil
}
