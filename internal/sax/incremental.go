package sax

import (
	"fmt"
	"sort"
)

// IncrementalSeq is a numerosity-reduced token sequence maintained
// incrementally over a growing stream of sliding windows, in *global*
// window coordinates: token Pos values are absolute window start positions,
// not span-relative ones. It is one ensemble member's discretization
// state, fed by the shared Encoder: the single-run detectors run a fresh
// one over a whole series, and the detection engine keeps one per member
// across spans, so when a hop shifts the analysis span by H points the
// tokens for the overlapping region are kept and only the H new suffix
// windows are encoded, with the numerosity-reduction run state resumed at
// the seam.
//
// The incremental invariant (tested property): provided every window's word
// is computed from span-independent range sums (FastPAAFrom over a global-
// coordinate FeatureSource), Covering(start, ...) with its first token
// re-anchored to the span start is bit-identical to numerosity-reducing a
// from-scratch word-per-window pass over the span — the first retained
// token stands in for the run it was cut out of, exactly as a fresh
// pipeline started at the span would have emitted it.
//
// Words are integers inside the pipeline: each distinct word gets a dense
// int32 id from a per-pipeline dictionary, and tokens carry ids (IDToken).
// Words of up to MaxPackedW symbols (every word of the paper's grid) are
// keyed by a packed integer code and stored as such. The encoder hands
// such a word over as its code (AppendCode, fed by MultiResolver.CodeAt),
// which is compared with the previous window's code and goes to the
// dictionary only when the word changes, so appending allocates nothing
// but token storage; Append takes the word's bytes, the path of longer
// words. Strings are rendered only where a word leaves the engine (State,
// Words). Ids only ever compare for equality, and an id stays valid until
// Compact renumbers the dictionary. Reset keeps the dictionary, because
// the consumer of the pipeline's ids (the member's grammar builder) may
// still hold them. The dictionary therefore grows by each induction
// epoch's new words until the consumer calls Compact, which it does right
// before it discards every id it holds (the detection engine: at each
// rebase, once the vocabulary exceeds twice the retained tokens plus 64).
type IncrementalSeq struct {
	params   Params
	tokens   []IDToken // ascending global Pos; tokens[i].Pos < next
	prev     int32     // id of the last appended window's word; -1 before any
	prevCode uint64    // prev's packed code, for a packed dictionary
	next     int       // global index of the next window to encode
	empty    bool      // no windows appended since the last reset
	trimmed  int       // positions below this may have incomplete history
	dict     wordDict
}

// IDToken is one numerosity-reduced token of an IncrementalSeq: the id of
// its word in the pipeline's dictionary (see IncrementalSeq.Words) and the
// global start position of the first window that produced it.
type IDToken struct {
	ID  int32
	Pos int
}

// NewIncrementalSeq creates an empty sequence for one (w, a) member,
// positioned to encode global window startWin first.
func NewIncrementalSeq(p Params, startWin int) *IncrementalSeq {
	return &IncrementalSeq{params: p, prev: -1, next: startWin, empty: true, trimmed: startWin, dict: newWordDict(p.W)}
}

// Params returns the member's discretization parameters.
func (s *IncrementalSeq) Params() Params { return s.params }

// NextWin returns the global index of the next window to be appended.
func (s *IncrementalSeq) NextWin() int { return s.next }

// Len returns the number of retained tokens.
func (s *IncrementalSeq) Len() int { return len(s.tokens) }

// VocabLen returns the number of words in the pipeline's dictionary.
func (s *IncrementalSeq) VocabLen() int { return s.dict.len() }

// Intern returns the id of word, which must be a word of the pipeline's
// parameters (ValidWord), adding it to the dictionary if it is new.
func (s *IncrementalSeq) Intern(word string) int32 { return s.dict.id([]byte(word)) }

// Reset discards the token state and positions the sequence at global
// window startWin, as if freshly constructed, but keeps the dictionary:
// ids handed out before the reset stay valid. Used when the member fell so
// far behind the stream that the points needed to extend it are gone.
func (s *IncrementalSeq) Reset(startWin int) {
	s.tokens = s.tokens[:0]
	s.prev = -1
	s.next = startWin
	s.empty = true
	s.trimmed = startWin
}

// Append encodes the next window (global index NextWin) from its word
// bytes, advancing the sequence by one window and emitting a token only
// when the word differs from the previous window's — numerosity reduction
// with its run state carried across spans. The steady state (a repeated
// word, or a word already in the dictionary) does not allocate.
func (s *IncrementalSeq) Append(word []byte) {
	if s.dict.packed() {
		s.AppendCode(pack(word))
		return
	}
	if s.empty || s.prev < 0 || s.dict.words[s.prev] != string(word) {
		s.emit(s.dict.id(word))
	}
	s.next++
}

// AppendCode is Append for a word given as its packed code (see
// MultiResolver.CodeAt); the pipeline's word length must be at most
// MaxPackedW. A code equal to the previous window's costs one comparison.
func (s *IncrementalSeq) AppendCode(code uint64) {
	if s.empty || s.prev < 0 || code != s.prevCode {
		s.emit(s.dict.idOfCode(code))
		s.prevCode = code
	}
	s.next++
}

// repeat advances the sequence by one window whose word is the previous
// window's: what Append and AppendCode do for a repeated word.
func (s *IncrementalSeq) repeat() { s.next++ }

// emit appends a token for word id at the next window and makes it the run
// head.
func (s *IncrementalSeq) emit(id int32) {
	s.tokens = append(s.tokens, IDToken{ID: id, Pos: s.next})
	s.prev = id
	s.empty = false
}

// Compact rebuilds the dictionary from the words the retained tokens and
// the run head still use, renumbering them in place; every id handed out
// before the call is invalid after it. The token slice keeps its storage,
// so slices returned by Covering and Suffix see the new ids.
func (s *IncrementalSeq) Compact() {
	old := s.dict
	s.dict = old.emptied()
	remap := make([]int32, old.len()) // old id -> new id + 1; 0 = not yet seen
	renum := func(id int32) int32 {
		if remap[id] == 0 {
			remap[id] = s.dict.copyFrom(&old, id) + 1
		}
		return remap[id] - 1
	}
	for i := range s.tokens {
		s.tokens[i].ID = renum(s.tokens[i].ID)
	}
	if s.prev >= 0 {
		s.prev = renum(s.prev)
	}
}

// idTokenSize is the in-memory size of one IDToken (int32, padding, int).
const idTokenSize = 16

// MemoryBytes is the sequence's retained-memory accounting: the token
// backing array (at capacity, since trimmed slices keep their storage) plus
// the dictionary, its word bytes included. O(1).
func (s *IncrementalSeq) MemoryBytes() int64 {
	return int64(cap(s.tokens))*idTokenSize + s.dict.memoryBytes()
}

// TrimBefore drops tokens that can no longer be the covering token of any
// span starting at or after win: every leading token whose successor also
// starts at or before win. The last token at or before win is always kept —
// it carries the word of window win itself.
func (s *IncrementalSeq) TrimBefore(win int) {
	if win > s.trimmed {
		s.trimmed = win
	}
	// Token positions ascend, so the last token at or before win is found
	// by bisection: a one-off run trims to its end, past every token.
	k := sort.Search(len(s.tokens), func(i int) bool { return s.tokens[i].Pos > win }) - 1
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
func (s *IncrementalSeq) Suffix(afterWin, endWin int) ([]IDToken, error) {
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

// State captures the sequence for serialization, rendering every id back
// into its word. The returned state owns fresh token storage, so it stays
// valid across further Appends; the word strings are shared (immutable).
func (s *IncrementalSeq) State() SeqState {
	st := SeqState{
		Params:  s.params,
		Next:    s.next,
		Empty:   s.empty,
		Trimmed: s.trimmed,
		Tokens:  make([]Token, len(s.tokens)),
	}
	word := s.renderer()
	if s.prev >= 0 {
		st.Prev = word(s.prev)
	}
	for i, t := range s.tokens {
		st.Tokens[i] = Token{Word: word(t.ID), Pos: t.Pos}
	}
	return st
}

// Words renders ids of this pipeline's dictionary into a fresh slice of
// their words.
func (s *IncrementalSeq) Words(ids []int32) []string {
	word := s.renderer()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = word(id)
	}
	return out
}

// renderer returns a function rendering ids to words that builds each
// distinct word's string once, so rendering a sequence allocates per
// distinct word, not per token.
func (s *IncrementalSeq) renderer() func(int32) string {
	names := make([]string, s.dict.len())
	return func(id int32) string {
		if names[id] == "" {
			names[id] = s.dict.word(id)
		}
		return names[id]
	}
}

// RestoreSeq reconstructs an IncrementalSeq from a captured state, whose
// words must all be valid for its parameters (ValidWord). The result is
// behaviorally identical to the pipeline the state was captured from:
// subsequent Appends, Suffix and Covering calls produce bit-equal output.
// Words are interned in token order, so equal states restore equal
// dictionaries.
func RestoreSeq(st SeqState) *IncrementalSeq {
	s := &IncrementalSeq{
		params:  st.Params,
		tokens:  make([]IDToken, len(st.Tokens)),
		prev:    -1,
		next:    st.Next,
		empty:   st.Empty,
		trimmed: st.Trimmed,
		dict:    newWordDict(st.Params.W),
	}
	for i, t := range st.Tokens {
		s.tokens[i] = IDToken{ID: s.Intern(t.Word), Pos: t.Pos}
	}
	if st.Prev != "" {
		s.prev = s.Intern(st.Prev)
		if s.dict.packed() {
			s.prevCode = s.dict.codes[s.prev]
		}
	}
	return s
}

// Covering returns the retained tokens that cover the span whose windows
// are [startWin, endWin] (global, inclusive): the last token at or before
// startWin, which carries the word of the span's first window, followed by
// every token with Pos in (startWin, endWin]. Re-anchoring the first
// token's Pos to startWin yields, in global coordinates, exactly the token
// sequence a fresh pipeline encoding the span would hold. The
// sequence must already cover the span: its first token at or before
// startWin, and NextWin() > endWin. The returned slice aliases the
// sequence's storage and is valid until the next Append or TrimBefore.
func (s *IncrementalSeq) Covering(startWin, endWin int) ([]IDToken, error) {
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
