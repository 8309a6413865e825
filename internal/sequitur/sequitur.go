// Package sequitur implements the Sequitur grammar induction algorithm of
// Nevill-Manning & Witten (1997), as used in §5.1 of the paper: a greedy,
// linear-time construction of a context-free grammar from a token sequence,
// maintaining the two invariants
//
//   - digram uniqueness — no pair of adjacent symbols appears more than
//     once (without overlap) in the grammar, and
//   - rule utility — every rule other than the start rule is used at least
//     twice.
//
// The induction runs the reference implementation's algorithm — a doubly-
// linked list of symbols per rule plus a digram index — on an int32-linked
// arena: nodes and rules live in flat slices and link by index, and the
// digram index is a flat open-addressing table (internal/idmap) keyed by
// the packed symbol pair, so the state holds no pointers for the garbage
// collector to scan. The one front end is the resumable Builder: words
// enter as integer ids (Builder.PushID), the path of every detector, which
// feed it their SAX pipelines' dictionary ids, or as strings
// (Builder.Push). Builder.Grammar freezes the state into an immutable
// Grammar value that the rest of the library (rule density curves, motifs,
// RRA intervals) consumes.
package sequitur

import (
	"errors"
	"fmt"
	"strings"
)

// ErrEmptyInput is returned when a grammar is requested over no tokens.
var ErrEmptyInput = errors.New("sequitur: empty input sequence")

// Symbol is one entry on the right-hand side of a production. It is either
// a terminal (an index into Grammar.Words) or a reference to another rule.
type Symbol struct {
	Rule int // rule index when >= 0; -1 for a terminal
	Term int // index into Grammar.Words; valid only when Rule < 0
}

// IsRule reports whether the symbol references a rule.
func (s Symbol) IsRule() bool { return s.Rule >= 0 }

// Rule is one production of the induced grammar.
type Rule struct {
	// RHS is the right-hand side of the production.
	RHS []Symbol
	// Uses is the number of references to this rule from other rules'
	// right-hand sides. It is 0 for the start rule and >= 2 for all others
	// (the rule-utility invariant).
	Uses int
	// expLen caches the number of terminals this rule expands to.
	expLen int
}

// Grammar is the immutable result of grammar induction. Rules[0] is the
// start rule R0; its full expansion reproduces the input token sequence.
type Grammar struct {
	// Words maps terminal ids to the original token strings.
	Words []string
	// Rules holds the productions; Rules[0] is the start rule.
	Rules []Rule
}

// NumRules returns the number of rules including the start rule.
func (g *Grammar) NumRules() int { return len(g.Rules) }

// ExpansionLen returns the number of terminals rule id expands to.
func (g *Grammar) ExpansionLen(id int) int { return g.Rules[id].expLen }

// Expansion returns the full terminal expansion of the start rule, which
// equals the input token sequence.
func (g *Grammar) Expansion() []string {
	out := make([]string, 0, g.Rules[0].expLen)
	return g.appendExpansion(out, 0)
}

// ExpandRule returns the terminal expansion of rule id.
func (g *Grammar) ExpandRule(id int) []string {
	out := make([]string, 0, g.Rules[id].expLen)
	return g.appendExpansion(out, id)
}

func (g *Grammar) appendExpansion(out []string, id int) []string {
	for _, s := range g.Rules[id].RHS {
		if s.IsRule() {
			out = g.appendExpansion(out, s.Rule)
		} else {
			out = append(out, g.Words[s.Term])
		}
	}
	return out
}

// RuleString renders rule id in the paper's notation, e.g. "R1 -> ab bc".
func (g *Grammar) RuleString(id int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "R%d ->", id)
	for _, s := range g.Rules[id].RHS {
		if s.IsRule() {
			fmt.Fprintf(&b, " R%d", s.Rule)
		} else {
			fmt.Fprintf(&b, " %s", g.Words[s.Term])
		}
	}
	return b.String()
}

// String renders the whole grammar, one rule per line.
func (g *Grammar) String() string {
	var b strings.Builder
	for i := range g.Rules {
		b.WriteString(g.RuleString(i))
		b.WriteByte('\n')
	}
	return b.String()
}

// VisitOccurrences calls fn(ruleID, start, end) for every occurrence of
// every rule other than R0 in the full expansion of the grammar, where
// [start, end) is the token index span the occurrence covers (indices into
// the input token sequence). Nested occurrences are reported for every use
// of the enclosing rule, which is exactly what the rule density curve
// needs: each point's density counts all rules covering it.
func (g *Grammar) VisitOccurrences(fn func(ruleID, start, end int)) {
	g.visit(0, 0, 0, fn)
}

// VisitOccurrencesAfter is VisitOccurrences restricted to occurrences that
// extend past token index cutoff: every reported span satisfies end >
// cutoff. Subtrees that lie entirely at or before the cutoff are pruned
// without being walked, which is what lets a windowed density computation
// over a long retained token history skip its expired prefix.
func (g *Grammar) VisitOccurrencesAfter(cutoff int, fn func(ruleID, start, end int)) {
	g.visit(0, 0, cutoff, fn)
}

func (g *Grammar) visit(id, offset, cutoff int, fn func(ruleID, start, end int)) {
	for _, s := range g.Rules[id].RHS {
		if s.IsRule() {
			n := g.Rules[s.Rule].expLen
			if offset+n > cutoff {
				fn(s.Rule, offset, offset+n)
				g.visit(s.Rule, offset, cutoff, fn)
			}
			offset += n
		} else {
			offset++
		}
	}
}
