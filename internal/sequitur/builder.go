package sequitur

// This file contains the mutable induction engine: one circular doubly-
// linked list per rule (with a guard node), and a digram index that maps a
// pair of adjacent symbol values to the leftmost live occurrence. The
// structure follows the reference Sequitur implementation; the triple
// fix-ups in join keep the digram index correct for runs like "aaa" where
// consecutive digrams overlap.
//
// The lists are an int32-linked arena: every node lives in one growable
// slice and links to its neighbours by index, and rules live in a slice
// indexed by rule id. The digram index is a flat open-addressing table
// (internal/idmap) keyed by the packed digram. None of them holds a
// pointer, so the garbage collector never scans the induction state, and a
// reset recycles all three whole.

import "egi/internal/idmap"

// nilNode is the link of a node not yet spliced into a list.
const nilNode int32 = -1

// node is one symbol in a rule's RHS during induction. val encodes the
// symbol identity: terminal word ids are >= 0, rule references are encoded
// as -(id+1) so that equal values mean equal symbols across the grammar. A
// guard node's val is the id of the rule it heads.
type node struct {
	prev, next int32
	val        int32
	guard      bool
}

// irule is a rule under construction.
type irule struct {
	guard int32 // guard node: its next is the first RHS symbol, its prev the last
	uses  int32
	live  bool // false once expand has inlined the rule
}

func ruleVal(id int32) int32 { return -(id + 1) }

// ruleOf returns the rule id a non-terminal's val refers to.
func ruleOf(val int32) int32 { return -val - 1 }

// packDigram packs a pair of adjacent symbol values into one index key.
// Symbol values are word ids (>= 0) or encoded rule ids (-(id+1)), each an
// int32, so each fits a uint32 half. The key is never idmap.Empty, which
// would take two symbols of value -1: a reference to the start rule, which
// nothing references.
func packDigram(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// startRule is the id of the start rule: reset creates it first.
const startRule int32 = 0

type builder struct {
	nodes   []node    // arena
	free    int32     // head of the dead-node list, linked through next
	rules   []irule   // by rule id; ids are never reused within an epoch
	live    int       // rules with live set
	digrams idmap.Map // packed digram -> node starting its indexed occurrence

	// Word intern table of the string-fed path (Push); the id-fed path
	// (PushID) leaves it empty.
	wordIDs   map[string]int32
	words     []string
	wordBytes int64 // total len over interned words (O(1) accounting)
}

// reset returns the builder to its freshly-constructed state while keeping
// every allocation warm: the arena and rule slices are truncated, and the
// digram and word-intern tables are cleared in place (keeping their slots
// and buckets). Word ids of the string-fed path are epoch-local — they
// only ever compare for equality, and clearing them keeps the retained
// vocabulary bounded by one epoch's distinct words instead of growing with
// every word ever seen on the stream.
func (b *builder) reset() {
	b.nodes = b.nodes[:0]
	b.free = nilNode
	b.rules = b.rules[:0]
	b.live = 0
	b.digrams.Clear()
	clear(b.wordIDs)
	b.words = b.words[:0]
	b.wordBytes = 0
	b.newRule()
}

// newBuilder creates an induction engine; sizeHint is the expected input
// length, used to presize the arena and the digram index.
func newBuilder(sizeHint int) *builder {
	b := &builder{
		nodes:   make([]node, 0, sizeHint/2+2),
		free:    nilNode,
		digrams: idmap.New(sizeHint),
		wordIDs: make(map[string]int32),
	}
	b.newRule()
	return b
}

// newNode returns the index of an unlinked node holding val: a recycled
// dead node if there is one, else a new one appended to the arena.
// Appending may move the arena, so callers re-read b.nodes afterwards.
func (b *builder) newNode(val int32) int32 {
	if n := b.free; n != nilNode {
		b.free = b.nodes[n].next
		b.nodes[n] = node{prev: nilNode, next: nilNode, val: val}
		return n
	}
	b.nodes = append(b.nodes, node{prev: nilNode, next: nilNode, val: val})
	return int32(len(b.nodes) - 1)
}

// release puts a node that no list or index entry refers to any more on
// the dead-node list — the points where the reference implementation
// deletes a symbol. Induction creates about two nodes per token but keeps
// only a fraction alive, so recycling keeps the arena near the live size.
func (b *builder) release(n int32) {
	b.nodes[n].next = b.free
	b.free = n
}

func (b *builder) newRule() int32 {
	id := int32(len(b.rules))
	g := b.newNode(id)
	b.nodes[g].guard = true
	b.nodes[g].prev, b.nodes[g].next = g, g
	b.rules = append(b.rules, irule{guard: g, live: true})
	b.live++
	return id
}

func (b *builder) first(r int32) int32 { return b.nodes[b.rules[r].guard].next }
func (b *builder) last(r int32) int32  { return b.nodes[b.rules[r].guard].prev }

func (b *builder) internWord(w string) int32 {
	if id, ok := b.wordIDs[w]; ok {
		return id
	}
	id := int32(len(b.words))
	b.words = append(b.words, w)
	b.wordIDs[w] = id
	b.wordBytes += int64(len(w))
	return id
}

// push appends one terminal token (a word id) to the start rule and
// restores the grammar invariants.
func (b *builder) push(id int32) {
	n := b.newNode(id)
	last := b.last(startRule)
	b.insertAfter(last, n)
	if !b.nodes[last].guard {
		b.check(last)
	}
}

// properDigram reports whether (a, a.next) is a digram of two real symbols.
func (b *builder) properDigram(a int32) bool {
	if a == nilNode || b.nodes[a].guard {
		return false
	}
	nx := b.nodes[a].next
	return nx != nilNode && !b.nodes[nx].guard
}

func (b *builder) keyOf(a int32) uint64 {
	return packDigram(b.nodes[a].val, b.nodes[b.nodes[a].next].val)
}

// deleteDigram removes the index entry for the digram starting at a, but
// only if the index currently points at a (the same key may have been
// re-registered by a different occurrence).
func (b *builder) deleteDigram(a int32) {
	if !b.properDigram(a) {
		return
	}
	b.digrams.DeleteIf(b.keyOf(a), a)
}

// triple reports whether x is the middle of three equal real symbols.
func (b *builder) triple(x int32) bool {
	n := &b.nodes[x]
	if n.guard || n.prev == nilNode || n.next == nilNode {
		return false
	}
	p, nx := &b.nodes[n.prev], &b.nodes[n.next]
	return !p.guard && !nx.guard && n.val == p.val && n.val == nx.val
}

// join links l -> r, keeping the digram index consistent. When l already
// had a successor, the digram starting at l dies; the triple fix-ups
// re-point the index for overlapping runs such as "aaa", where removing a
// middle symbol changes which occurrence of the (a,a) digram is canonical.
func (b *builder) join(l, r int32) {
	if b.nodes[l].next != nilNode {
		b.deleteDigram(l)
		if b.triple(r) {
			b.digrams.Set(b.keyOf(r), r)
		}
		if b.triple(l) {
			p := b.nodes[l].prev
			b.digrams.Set(b.keyOf(p), p)
		}
	}
	b.nodes[l].next = r
	b.nodes[r].prev = l
}

// insertAfter places n immediately after pos.
func (b *builder) insertAfter(pos, n int32) {
	b.join(n, b.nodes[pos].next)
	b.join(pos, n)
}

// unlink removes n from its list, cleaning up index entries for the two
// digrams that die with it and releasing its rule reference.
func (b *builder) unlink(n int32) {
	p, nx := b.nodes[n].prev, b.nodes[n].next
	b.join(p, nx)
	nd := b.nodes[n]
	if nd.guard {
		return
	}
	// The digram (n, old next) may still be indexed at n.
	if !b.nodes[nx].guard {
		b.digrams.DeleteIf(packDigram(nd.val, b.nodes[nx].val), n)
	}
	if nd.val < 0 {
		b.rules[ruleOf(nd.val)].uses--
	}
	b.release(n)
}

// check enforces digram uniqueness for the digram starting at n. It returns
// true when a substitution took place (and n is no longer live).
func (b *builder) check(n int32) bool {
	if !b.properDigram(n) {
		return false
	}
	m, ok := b.digrams.GetOrPut(b.keyOf(n), n)
	if !ok {
		return false
	}
	if m == n || b.nodes[m].next == n || b.nodes[n].next == m {
		// The same or an overlapping occurrence: nothing to do.
		return false
	}
	b.match(n, m)
	return true
}

// match resolves a repeated digram: n is the new occurrence, m the indexed
// one. Either the indexed occurrence is exactly the whole RHS of an
// existing rule (reuse it), or a fresh rule is created from the digram and
// both occurrences are substituted.
func (b *builder) match(n, m int32) {
	var r int32
	if mp, mn := b.nodes[m].prev, b.nodes[m].next; b.nodes[mp].guard && b.nodes[b.nodes[mn].next].guard {
		r = b.nodes[mp].val
		b.substitute(n, r)
	} else {
		r = b.newRule()
		// Build the rule body from copies of the matched digram.
		v1, v2 := b.nodes[m].val, b.nodes[mn].val
		c1 := b.newNode(v1)
		c2 := b.newNode(v2)
		if v1 < 0 {
			b.rules[ruleOf(v1)].uses++
		}
		if v2 < 0 {
			b.rules[ruleOf(v2)].uses++
		}
		b.insertAfter(b.rules[r].guard, c1)
		b.insertAfter(c1, c2)
		b.substitute(m, r)
		b.substitute(n, r)
		f := b.first(r)
		b.digrams.Set(b.keyOf(f), f)
	}
	// Rule utility: the two collapsed occurrences may leave a rule
	// referenced from the new rule's body with only one remaining use;
	// inline it. The reference implementation checks only the first
	// symbol; the last symbol is symmetric, so we check it as well.
	f := b.first(r)
	if b.inlinable(f) {
		b.expand(f)
	}
	if l := b.last(r); l != f && b.inlinable(l) {
		b.expand(l)
	}
}

// inlinable reports whether x references a rule other than the start rule
// that has a single remaining use.
func (b *builder) inlinable(x int32) bool {
	n := b.nodes[x]
	if n.guard || n.val >= 0 {
		return false
	}
	r := ruleOf(n.val)
	return r != startRule && b.rules[r].uses == 1
}

// substitute replaces the digram starting at n with a reference to rule r.
func (b *builder) substitute(n, r int32) {
	q := b.nodes[n].prev
	b.unlink(b.nodes[q].next) // n itself
	b.unlink(b.nodes[q].next) // what used to be n.next
	nt := b.newNode(ruleVal(r))
	b.rules[r].uses++
	b.insertAfter(q, nt)
	if !b.check(q) {
		b.check(nt)
	}
}

// expand inlines the rule referenced by n (which must have uses == 1) into
// n's position and deletes the rule — the rule-utility constraint.
func (b *builder) expand(n int32) {
	r := ruleOf(b.nodes[n].val)
	left, right := b.nodes[n].prev, b.nodes[n].next
	f, l := b.first(r), b.last(r)

	// Digrams (left, n) and (n, right) die with n.
	b.deleteDigram(left)
	b.deleteDigram(n)
	// Splice the rule body in place of n.
	b.nodes[left].next = f
	b.nodes[f].prev = left
	b.nodes[l].next = right
	b.nodes[right].prev = l
	// The junction digram (l, right) becomes live; register it. (left, f)
	// is registered by the caller's subsequent checks when applicable; the
	// reference implementation registers only the right junction here.
	if b.properDigram(l) {
		b.digrams.Set(b.keyOf(l), l)
	}
	b.rules[r].live = false
	b.live--
	b.release(n)
	b.release(b.rules[r].guard)
}

// freeze snapshots the mutable state into an immutable Grammar with dense
// rule ids (start rule first, then in ascending original id order), and
// computes expansion lengths.
func (b *builder) freeze() *Grammar {
	// Dense renumbering: live rules in ascending id order.
	remap := make([]int, len(b.rules))
	dense := 0
	for id := range b.rules {
		if b.rules[id].live {
			remap[id] = dense
			dense++
		}
	}

	g := &Grammar{Words: append([]string(nil), b.words...)}
	g.Rules = make([]Rule, 0, dense)
	for id := range b.rules {
		r := &b.rules[id]
		if !r.live {
			continue
		}
		var rhs []Symbol
		for n := b.first(int32(id)); !b.nodes[n].guard; n = b.nodes[n].next {
			if v := b.nodes[n].val; v < 0 {
				rhs = append(rhs, Symbol{Rule: remap[ruleOf(v)], Term: -1})
			} else {
				rhs = append(rhs, Symbol{Rule: -1, Term: int(v)})
			}
		}
		g.Rules = append(g.Rules, Rule{RHS: rhs, Uses: int(r.uses)})
	}
	// Expansion lengths bottom-up: referenced rules always have a higher
	// original id than... not guaranteed after reuse; do a memoized DFS.
	memo := make([]int, len(g.Rules))
	for i := range memo {
		memo[i] = -1
	}
	var expLen func(int) int
	expLen = func(id int) int {
		if memo[id] >= 0 {
			return memo[id]
		}
		memo[id] = 0 // guards against cycles, which a correct grammar never has
		total := 0
		for _, s := range g.Rules[id].RHS {
			if s.IsRule() {
				total += expLen(s.Rule)
			} else {
				total++
			}
		}
		memo[id] = total
		return total
	}
	for i := range g.Rules {
		g.Rules[i].expLen = expLen(i)
	}
	return g
}
