package sax

import (
	"fmt"
	"math"
	"sort"
)

// IncrementalSeq is a numerosity-reduced token sequence maintained
// incrementally over a growing stream of sliding windows, in *global*
// window coordinates: token positions (Pos) are absolute window start
// positions, not span-relative ones. It is one ensemble member's discretization
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
// Words are integers inside the pipeline, and tokens carry them (IDToken).
// A word of up to MaxPackedW symbols whose alphabet size a keeps a^w within
// 2^31 (79 of the paper grid's 81 members) is its own id: its radix-a
// value, first symbol most significant, 'a' = 0. Such a direct pipeline
// keeps no dictionary. Every other pipeline gives each distinct word a
// dense int32 id from a per-pipeline dictionary, keyed by the word's packed
// integer code for up to MaxPackedW symbols and by its bytes above. The
// encoder hands a word of up to MaxPackedW symbols over as its code
// (AppendCode, fed by MultiResolver.CodeAt), which is compared with the
// previous window's code and turned into an id only when the word changes,
// so appending allocates nothing but token storage; Append takes the
// word's bytes, the path of longer words. Strings are rendered only where a
// word leaves the engine (State, Words). Ids only ever compare for
// equality, and an id stays valid until Compact renumbers the dictionary
// (a direct pipeline's ids never change). Reset keeps the dictionary,
// because the consumer of the pipeline's ids (the member's grammar
// builder) may still hold them. The dictionary therefore grows by each
// induction epoch's new words until the consumer calls Compact, which it
// does right before it discards every id it holds (the detection engine:
// at each rebase, once the vocabulary exceeds twice the retained tokens
// plus 64).
//
// A token stores its position as an int32 offset from a per-pipeline base
// (Pos converts it back), which Reset and TrimBefore move forward with the
// retained tokens, so a token takes 8 bytes however far the stream has run.
type IncrementalSeq struct {
	params   Params
	tokens   []IDToken // ascending positions, each below next
	base     int       // global position of tokens[0]; next after a reset
	prev     int32     // id of the last appended window's word; -1 before any
	prevCode uint64    // prev's packed code, for a packed word
	next     int       // global index of the next window to encode
	empty    bool      // no windows appended since the last reset
	trimmed  int       // positions below this may have incomplete history
	dict     wordDict
}

// IDToken is one numerosity-reduced token of an IncrementalSeq: the id of
// its word (see IncrementalSeq.Words) and the start position of the first
// window that produced it, as an offset from the pipeline's base
// (IncrementalSeq.Pos returns the global position).
type IDToken struct {
	ID  int32
	Off int32
}

// NewIncrementalSeq creates an empty sequence for one (w, a) member,
// positioned to encode global window startWin first.
func NewIncrementalSeq(p Params, startWin int) *IncrementalSeq {
	return &IncrementalSeq{params: p, base: startWin, prev: -1, next: startWin, empty: true, trimmed: startWin, dict: newWordDict(p)}
}

// Params returns the member's discretization parameters.
func (s *IncrementalSeq) Params() Params { return s.params }

// NextWin returns the global index of the next window to be appended.
func (s *IncrementalSeq) NextWin() int { return s.next }

// Len returns the number of retained tokens.
func (s *IncrementalSeq) Len() int { return len(s.tokens) }

// Pos returns the global window start position of one of the pipeline's
// tokens (from Covering or Suffix).
func (s *IncrementalSeq) Pos(t IDToken) int { return s.base + int(t.Off) }

// VocabLen returns the number of words in the pipeline's dictionary: 0 for
// a direct pipeline, which keeps none.
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
	s.base = startWin
	s.prev = -1
	s.next = startWin
	s.empty = true
	s.trimmed = startWin
}

// Append encodes the next window (global index NextWin) from its word
// bytes, advancing the sequence by one window and emitting a token only
// when the word differs from the previous window's — numerosity reduction
// with its run state carried across spans. The steady state (a repeated
// word, or a word already in the dictionary) does not allocate. It panics
// if the window is 2^31 or more windows past the oldest retained token.
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
// MaxPackedW. A code equal to the previous window's costs one comparison;
// only a changed code becomes an id (for a direct pipeline, its radix
// value, in w digit steps).
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
// head. It panics if the window lies 2^31 or more windows past the oldest
// retained token, which no int32 offset reaches (Encoder.Encode reports
// that as an error before it appends anything).
func (s *IncrementalSeq) emit(id int32) {
	if err := s.reach(s.next); err != nil {
		panic(err)
	}
	s.tokens = append(s.tokens, IDToken{ID: id, Off: int32(s.next - s.base)})
	s.prev = id
	s.empty = false
}

// reach fails if window win lies too far past the base, which is the
// oldest retained token's position, for an int32 offset: a run of one
// word longer than 2^31 windows.
func (s *IncrementalSeq) reach(win int) error {
	if win-s.base > math.MaxInt32 {
		return fmt.Errorf("%w: pipeline %v retains window %d, too far back to reach window %d", ErrBadWindow, s.params, s.base, win)
	}
	return nil
}

// Compact rebuilds the dictionary from the words the retained tokens and
// the run head still use, renumbering them in place; every id handed out
// before the call is invalid after it. The token slice keeps its storage,
// so slices returned by Covering and Suffix see the new ids. A direct
// pipeline has no dictionary, and Compact leaves it as it is.
func (s *IncrementalSeq) Compact() {
	if s.dict.direct {
		return
	}
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

// idTokenSize is the in-memory size of one IDToken (two int32s).
const idTokenSize = 8

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
	k := sort.Search(len(s.tokens), func(i int) bool { return s.Pos(s.tokens[i]) > win }) - 1
	if k > 0 {
		// Copy the kept tokens down and count their offsets from the new
		// oldest one, which becomes the base.
		kept := s.tokens[k:]
		d := kept[0].Off
		dst := s.tokens[:len(kept)]
		for i, t := range kept {
			dst[i] = IDToken{ID: t.ID, Off: t.Off - d}
		}
		s.tokens = dst
		s.base += int(d)
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
	i := sort.Search(len(s.tokens), func(i int) bool { return s.Pos(s.tokens[i]) > afterWin })
	j := i + sort.Search(len(s.tokens)-i, func(k int) bool { return s.Pos(s.tokens[i+k]) > endWin })
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
		st.Tokens[i] = Token{Word: word(t.ID), Pos: s.Pos(t)}
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
// distinct word, not per token. A direct pipeline's ids range over all
// a^w words, so its memo is a map of the ids seen, not a slice by id.
func (s *IncrementalSeq) renderer() func(int32) string {
	if s.dict.direct {
		names := make(map[int32]string)
		return func(id int32) string {
			w, ok := names[id]
			if !ok {
				w = s.dict.word(id)
				names[id] = w
			}
			return w
		}
	}
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
// dictionaries. The base is the first token's position (the next window,
// with no tokens); tokens too far apart for int32 offsets are an error.
func RestoreSeq(st SeqState) (*IncrementalSeq, error) {
	s := &IncrementalSeq{
		params:  st.Params,
		tokens:  make([]IDToken, len(st.Tokens)),
		base:    st.Next,
		prev:    -1,
		next:    st.Next,
		empty:   st.Empty,
		trimmed: st.Trimmed,
		dict:    newWordDict(st.Params),
	}
	if len(st.Tokens) > 0 {
		s.base = st.Tokens[0].Pos
	}
	for i, t := range st.Tokens {
		if off := t.Pos - s.base; off < 0 || off > math.MaxInt32 {
			return nil, fmt.Errorf("%w: pipeline %v token at window %d, first at %d", ErrBadWindow, st.Params, t.Pos, s.base)
		}
		s.tokens[i] = IDToken{ID: s.Intern(t.Word), Off: int32(t.Pos - s.base)}
	}
	if st.Prev != "" {
		s.prev = s.Intern(st.Prev)
		if s.dict.packed() {
			s.prevCode = s.dict.code(s.prev)
		}
	}
	return s, nil
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
	if len(s.tokens) == 0 || s.Pos(s.tokens[0]) > startWin {
		return nil, fmt.Errorf("sax: sequence %v trimmed past span start window %d", s.params, startWin)
	}
	k := sort.Search(len(s.tokens), func(i int) bool { return s.Pos(s.tokens[i]) > startWin }) - 1
	j := k + sort.Search(len(s.tokens)-k, func(i int) bool { return s.Pos(s.tokens[k+i]) > endWin })
	return s.tokens[k:j], nil
}
