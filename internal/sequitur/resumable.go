package sequitur

// This file exports the induction engine as a resumable Builder: greedy
// Sequitur construction with the mutable state kept alive between calls,
// so a caller can append tokens to a grammar it already holds instead of
// re-inducing the whole sequence. Sequitur is inherently online — one
// token push at a time — so a Builder fed the tokens t1..tk in any
// grouping holds exactly the grammar one pass over t1..tk induces (the
// resumable property tests pin this against a one-call oracle).
//
// Every detector induces through a Builder. The single-run detectors feed
// one a whole series' tokens and freeze it; the streaming engine uses one
// Builder per ensemble member: each hop
// appends only the hop's new tokens (amortized O(hop) instead of O(span)
// induction per run), and Reset rebases the grammar onto the live span
// every K hops so rules anchored in expired tokens don't accumulate. Reset
// keeps every allocation warm — the node arena, the rule slice, the digram
// and word-intern tables — so even a rebase allocates almost nothing in
// steady state. The engine feeds the builder word ids from its
// discretization pipeline (PushID), so the hot path never hashes a word.

// Builder is a resumable Sequitur induction engine. The zero value is not
// usable; construct with NewBuilder or NewBuilderSize. A Builder is fed
// either words (Push) or integer word ids (PushID), not both between two
// Resets. A Builder is not safe for concurrent use.
type Builder struct {
	b     *builder
	count int     // tokens pushed since the last Reset
	last  int32   // id of the most recently pushed token
	memo  []int32 // expansion-length scratch by live rule id; -1 = unset
}

// NewBuilder creates an empty resumable induction engine.
func NewBuilder() *Builder { return NewBuilderSize(64) }

// NewBuilderSize creates an empty resumable induction engine presized for
// about sizeHint tokens, so a caller that knows its first epoch's length
// does not grow the arena and digram index up from the default.
func NewBuilderSize(sizeHint int) *Builder {
	return &Builder{b: newBuilder(sizeHint)}
}

// Push appends one terminal token to the grammar and restores the Sequitur
// invariants. After pushing tokens t1..tk (across any number of calls since
// the last Reset) the builder holds exactly the grammar Sequitur induces
// from t1..tk.
func (r *Builder) Push(word string) {
	r.PushID(r.b.internWord(word))
}

// PushID appends one terminal token given as a word id (>= 0) and restores
// the Sequitur invariants. Ids only compare for equality: a builder fed the
// ids of t1..tk holds the grammar Sequitur induces from t1..tk, with each
// terminal's Term the pushed id instead of an index into Grammar.Words
// (which stays empty for the caller to fill from its own dictionary). The
// builder does no interning on this path.
func (r *Builder) PushID(id int32) {
	r.b.push(id)
	r.count++
	r.last = id
}

// Len returns the number of tokens pushed since the last Reset.
func (r *Builder) Len() int { return r.count }

// LastID returns the most recently pushed token's id (for Push, the
// builder's own intern id), and whether any token has been pushed since
// the last Reset. Streaming callers use it to resume numerosity reduction
// at a feed seam: a candidate token equal to the last pushed one is a
// re-emitted run head, not a new token.
func (r *Builder) LastID() (int32, bool) { return r.last, r.count > 0 }

// NumRules returns the number of live rules including the start rule.
func (r *Builder) NumRules() int { return r.b.live }

// Reset discards the grammar, re-anchoring the builder on an empty token
// sequence, while keeping its allocations (node arena, rule slice, hash
// tables, word intern storage) warm for reuse. The interned vocabulary of
// the Push path is cleared with the grammar — ids are epoch-local — so
// retained memory is bounded by one epoch's distinct words no matter how
// long the builder lives.
func (r *Builder) Reset() {
	r.b.reset()
	r.count = 0
	r.last = 0
}

// Grammar freezes the current state into an immutable Grammar: the
// grammar of the tokens pushed since the last Reset. The builder remains
// usable: freezing is non-destructive and further pushes continue the same
// grammar.
func (r *Builder) Grammar() (*Grammar, error) {
	if r.count == 0 {
		return nil, ErrEmptyInput
	}
	return r.b.freeze(), nil
}

// AppendIDs appends the exact token sequence pushed since the last Reset,
// as word ids, to dst and returns the extended slice: the start rule
// expanded terminal by terminal. A Sequitur grammar is a lossless encoding
// of its input, so a fresh Builder re-fed this sequence holds a grammar
// identical to this one (the resumable property) — which is how the
// durability layer serializes induction state without walking the graph:
// snapshot the sequence, restore by re-induction.
func (r *Builder) AppendIDs(dst []int32) []int32 {
	if r.count == 0 {
		return dst
	}
	return r.appendExpansion(dst, startRule)
}

// appendExpansion appends rule ru's terminal expansion, in order, to dst.
func (r *Builder) appendExpansion(dst []int32, ru int32) []int32 {
	nodes := r.b.nodes
	for n := r.b.first(ru); !nodes[n].guard; n = nodes[n].next {
		if v := nodes[n].val; v < 0 {
			dst = r.appendExpansion(dst, ruleOf(v))
		} else {
			dst = append(dst, v)
		}
	}
	return dst
}

// VisitOccurrencesAfter enumerates rule occurrences of the live grammar
// without freezing it: fn(ruleID, start, end) is called for every
// occurrence of every rule other than the start rule whose token span
// [start, end) extends past token index cutoff (end > cutoff), with nested
// occurrences reported per use of the enclosing rule — the same contract as
// Grammar.VisitOccurrencesAfter, minus the freeze. Rule ids are the live
// (non-dense) ids; occurrence spans are what density curves consume, and
// they are identical to the frozen grammar's. Subtrees entirely at or
// before the cutoff are pruned unwalked.
func (r *Builder) VisitOccurrencesAfter(cutoff int, fn func(ruleID, start, end int)) {
	if r.count == 0 {
		return
	}
	// Live rule ids are dense in [0, len(rules)) within an epoch; a flat
	// memo beats a map here because expLen is the visitation's inner
	// lookup.
	nr := len(r.b.rules)
	if cap(r.memo) < nr {
		r.memo = make([]int32, nr+nr/2+1)
	}
	r.memo = r.memo[:nr]
	for i := range r.memo {
		r.memo[i] = -1
	}
	r.visit(startRule, 0, cutoff, fn)
}

// expLen returns the number of terminals rule ru expands to, memoized in
// r.memo for the current visitation.
func (r *Builder) expLen(ru int32) int {
	if v := r.memo[ru]; v >= 0 {
		return int(v)
	}
	r.memo[ru] = 0 // cycle guard; a correct grammar never has one
	total := 0
	nodes := r.b.nodes
	for n := r.b.first(ru); !nodes[n].guard; n = nodes[n].next {
		if v := nodes[n].val; v < 0 {
			total += r.expLen(ruleOf(v))
		} else {
			total++
		}
	}
	r.memo[ru] = int32(total)
	return total
}

func (r *Builder) visit(ru int32, offset, cutoff int, fn func(ruleID, start, end int)) {
	nodes := r.b.nodes
	for n := r.b.first(ru); !nodes[n].guard; n = nodes[n].next {
		if v := nodes[n].val; v < 0 {
			sub := ruleOf(v)
			l := r.expLen(sub)
			if offset+l > cutoff {
				fn(int(sub), offset, offset+l)
				r.visit(sub, offset, cutoff, fn)
			}
			offset += l
		} else {
			offset++
		}
	}
}

// Per-entry accounting constants for MemoryBytes: the in-memory size of an
// arena node and of a rule slot, and an approximation for one word-intern
// entry (map header plus the []string slot), map overhead included.
const (
	nodeSize      = 16
	ruleSize      = 12
	wordEntrySize = 48
)

// MemoryBytes is the builder's retained-memory accounting: the node arena,
// rule slice and digram table at capacity, the word intern table including
// the interned bytes, and the visitation scratch.
// Like the rest of the library's footprint accounting it is a
// deterministic capacity-based bookkeeping of the structures the builder
// owns, not Go allocator truth, and it is O(1) per call.
func (r *Builder) MemoryBytes() int64 {
	return int64(cap(r.b.nodes))*nodeSize +
		int64(cap(r.b.rules))*ruleSize +
		r.b.digrams.MemoryBytes() +
		int64(len(r.b.words))*wordEntrySize +
		r.b.wordBytes +
		int64(cap(r.memo))*4
}
