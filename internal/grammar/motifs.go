package grammar

import (
	"fmt"
	"sort"

	"egi/internal/sax"
	"egi/internal/sequitur"
	"egi/internal/timeseries"
)

// Motif is a repeated pattern discovered through the induced grammar: a
// grammar rule together with the time series spans of all its occurrences.
// Grammar rules are repeating strings of SAX words, so their occurrences
// are (approximately) similar subsequences — the motif discovery view of
// GrammarViz that the anomaly detector inverts (§2 of the paper).
type Motif struct {
	// Rule is the grammar rule index the motif corresponds to.
	Rule int
	// RuleString renders the rule for display, e.g. "R2 -> ab bc aa".
	RuleString string
	// Occurrences holds the [start, end) spans in the original series.
	Occurrences [][2]int
}

// Count returns the number of occurrences.
func (m Motif) Count() int { return len(m.Occurrences) }

// MeanLength returns the average occurrence length in points.
func (m Motif) MeanLength() float64 {
	if len(m.Occurrences) == 0 {
		return 0
	}
	total := 0
	for _, o := range m.Occurrences {
		total += o[1] - o[0]
	}
	return float64(total) / float64(len(m.Occurrences))
}

// TopMotifs extracts the k most frequent motifs from a grammar induced
// over a numerosity-reduced token sequence, pos[i] being the window start
// of token i. Ties on frequency are broken toward longer expansions (more
// specific patterns). Rules whose occurrences all overlap (trivial
// matches) are skipped.
func TopMotifs(g *sequitur.Grammar, pos []int, seriesLen, n, k int) ([]Motif, error) {
	if k < 1 {
		return nil, ErrBadTopK
	}
	if len(pos) == 0 {
		return nil, ErrNoTokens
	}
	if n < 1 || n > seriesLen {
		return nil, fmt.Errorf("%w: n=%d seriesLen=%d", ErrBadSeries, n, seriesLen)
	}
	occs := make(map[int][][2]int)
	var visitErr error
	g.VisitOccurrences(func(rule, s, e int) {
		if visitErr != nil {
			return
		}
		if s < 0 || e > len(pos) || s >= e {
			visitErr = fmt.Errorf("%w: rule R%d tokens [%d,%d)", ErrBadSpan, rule, s, e)
			return
		}
		lo := pos[s]
		hi := pos[e-1] + n
		if hi > seriesLen {
			hi = seriesLen
		}
		occs[rule] = append(occs[rule], [2]int{lo, hi})
	})
	if visitErr != nil {
		return nil, visitErr
	}

	type scored struct {
		rule   int
		spans  [][2]int
		expLen int
	}
	var all []scored
	for rule, spans := range occs {
		distinct := dedupeOverlaps(spans)
		if len(distinct) < 2 {
			continue // all occurrences overlap: a trivial match, not a motif
		}
		all = append(all, scored{rule: rule, spans: spans, expLen: g.ExpansionLen(rule)})
	}
	sort.SliceStable(all, func(i, j int) bool {
		if len(all[i].spans) != len(all[j].spans) {
			return len(all[i].spans) > len(all[j].spans)
		}
		if all[i].expLen != all[j].expLen {
			return all[i].expLen > all[j].expLen
		}
		return all[i].rule < all[j].rule
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]Motif, 0, k)
	for _, s := range all[:k] {
		sort.Slice(s.spans, func(a, b int) bool { return s.spans[a][0] < s.spans[b][0] })
		out = append(out, Motif{
			Rule:        s.rule,
			RuleString:  g.RuleString(s.rule),
			Occurrences: s.spans,
		})
	}
	return out, nil
}

// dedupeOverlaps greedily selects non-overlapping spans (earliest first).
func dedupeOverlaps(spans [][2]int) [][2]int {
	sorted := append([][2]int(nil), spans...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a][0] < sorted[b][0] })
	var out [][2]int
	lastEnd := -1
	for _, s := range sorted {
		if s[0] >= lastEnd {
			out = append(out, s)
			lastEnd = s[1]
		}
	}
	return out
}

// FindMotifs runs the full discovery pipeline: induce the grammar of the
// series with window n and parameters p (InduceMember) and return the
// top-k motifs.
func FindMotifs(series []float64, n int, p sax.Params, k int) ([]Motif, error) {
	f, err := timeseries.NewFeatures(series)
	if err != nil {
		return nil, err
	}
	g, pos, err := InduceMember(f, n, p, nil)
	if err != nil {
		return nil, err
	}
	return TopMotifs(g, pos, len(series), n, k)
}
