package grammar

import (
	"fmt"
	"sort"
)

// This file implements the windowed rule density curve used by the
// amortized streaming engine: the grammar is induced over a retained token
// history that may begin *before* the live analysis span (the resumable
// induction epoch), and the curve must cover only the live span, with rule
// occurrences clipped to it and occurrences lying entirely in the expired
// prefix excluded — without freezing or rebuilding the grammar.

// RuleVisitor enumerates rule occurrences over a token sequence: for every
// occurrence of every rule other than the start rule whose token span
// [s, e) extends past index cutoff (e > cutoff), fn(ruleID, s, e) is
// called, nested occurrences reported per use of the enclosing rule. Both
// the frozen sequitur.Grammar and the live sequitur.Builder implement it.
type RuleVisitor interface {
	VisitOccurrencesAfter(cutoff int, fn func(ruleID, s, e int))
}

// WindowedDensityInto computes the rule density curve over the live stream
// span [start, end) from a grammar induced over a retained token history
// that may extend earlier than start. pos[i] is the window-start position
// of token i of that history (ascending), in the coordinates of start and
// end: global positions, or offsets from any common base, which the
// engine's 4-byte position records use; n is the sliding window length. Each rule occurrence covering tokens [s, e) contributes one unit
// of density over the global range [pos[s], pos[e-1]+n) clipped to
// [start, end); occurrences whose range ends at or before start are
// excluded by visitation cutoff without being walked. The returned curve is
// span-local: curve[i] is the density at global position start+i.
//
// When the history is anchored exactly at the span (pos[0] maps the span's
// first window), the live builder and a grammar induced from scratch over
// the same tokens yield bit-identical curves — the identity that makes
// per-span induction a special case of the windowed computation. The
// single-run detectors take the anchored case over a whole series (start
// 0, end its length) as the rule density curve of §5. dst is grown as
// needed and returned re-sliced to end-start; pass a retained slice to
// amortize the allocation across runs. dst's previous contents are
// discarded.
func WindowedDensityInto[P int | int32](dst []float64, v RuleVisitor, pos []P, start, end, n int) ([]float64, error) {
	if len(pos) == 0 {
		return nil, ErrNoTokens
	}
	spanLen := end - start
	if n < 1 || n > spanLen {
		return nil, fmt.Errorf("%w: n=%d span=%d", ErrBadSeries, n, spanLen)
	}
	if cap(dst) < spanLen+1 {
		dst = make([]float64, spanLen+1)
	}
	diff := dst[:spanLen+1]
	for i := range diff {
		diff[i] = 0
	}
	// Tokens whose window range [pos[i], pos[i]+n) ends at or before the
	// span start can never contribute; occurrences ending at or before the
	// last such token are pruned inside the visitation.
	cutoff := sort.Search(len(pos), func(i int) bool { return int(pos[i])+n > start })
	var visitErr error
	v.VisitOccurrencesAfter(cutoff, func(rule, s, e int) {
		if visitErr != nil {
			return
		}
		if s < 0 || e > len(pos) || s >= e {
			visitErr = fmt.Errorf("%w: rule R%d tokens [%d,%d) of %d", ErrBadSpan, rule, s, e, len(pos))
			return
		}
		lo := int(pos[s]) - start
		if lo < 0 {
			lo = 0
		}
		hi := int(pos[e-1]) + n - start
		if hi > spanLen {
			hi = spanLen
		}
		if lo >= hi {
			return
		}
		diff[lo]++
		diff[hi]--
	})
	if visitErr != nil {
		return nil, visitErr
	}
	curve := diff[:spanLen]
	acc := 0.0
	for i := range curve {
		acc += diff[i]
		curve[i] = acc
	}
	return curve, nil
}
