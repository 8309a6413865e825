// Package grammar implements the grammar-induction-based anomaly detection
// pipeline of §5 of the paper, one ensemble member's discretize → induce →
// density path: InduceMember runs a (w, a) member over a whole series
// through the shared SAX encoder (internal/sax) and a Sequitur builder
// (internal/sequitur); WindowedDensityInto turns the grammar into the rule
// density curve (the meta time series counting how many grammar rules
// cover each point) over any span; RankAnomalies extracts ranked
// candidates from the curve's minima.
//
// The detection engine (internal/engine) runs the same member path for
// every ensemble member over spans of a series, and Detect is the complete
// single-run detector: one member ranked on its own. The GI-Fix and
// GI-Random baselines of §7.1.3 are thin wrappers around Detect, and
// FindMotifs and internal/rra read the same member's grammar.
package grammar

import (
	"errors"
	"fmt"

	"egi/internal/sax"
	"egi/internal/sequitur"
	"egi/internal/timeseries"
)

// Errors reported by the pipeline.
var (
	ErrBadCurve   = errors.New("grammar: empty density curve")
	ErrBadTopK    = errors.New("grammar: topK must be >= 1")
	ErrBadSpan    = errors.New("grammar: rule occurrence outside series")
	ErrNoTokens   = errors.New("grammar: empty token sequence")
	ErrBadSeries  = errors.New("grammar: series shorter than window")
	ErrBadWindowN = errors.New("grammar: window length must be >= 2")
)

// Candidate is one ranked anomaly candidate: the start of a window of
// Length points whose rule density is locally minimal. Candidates returned
// together never overlap each other (§7.1.2's requirement on the top-3).
type Candidate struct {
	Pos     int     // start index of the anomalous subsequence
	Length  int     // subsequence length (the sliding window length)
	Density float64 // mean rule density over the window; lower = more anomalous
}

// WindowScores converts a pointwise density curve into per-window scores:
// score[p] is the mean density over [p, p+n). Ranking windows by their mean
// density rather than a single point makes the minima extraction robust to
// one-point dips. Computed with prefix sums in O(len).
func WindowScores(curve []float64, n int) ([]float64, error) {
	if len(curve) == 0 {
		return nil, ErrBadCurve
	}
	if n < 1 || n > len(curve) {
		return nil, fmt.Errorf("%w: n=%d len=%d", ErrBadSeries, n, len(curve))
	}
	prefix := make([]float64, len(curve)+1)
	for i, v := range curve {
		prefix[i+1] = prefix[i] + v
	}
	out := make([]float64, len(curve)-n+1)
	inv := 1 / float64(n)
	for p := range out {
		out[p] = (prefix[p+n] - prefix[p]) * inv
	}
	return out, nil
}

// RankAnomalies extracts up to topK non-overlapping anomaly candidates from
// a rule density curve: window start positions are ranked by ascending mean
// window density (ties broken toward the leftmost position), and a window
// is skipped if it overlaps an already selected candidate.
//
// The ranking is never sorted: pass j is one linear scan that picks the
// lowest score, leftmost on ties, among the windows no earlier pick
// overlaps, then masks the windows the pick overlaps. That is the window
// the greedy scan of the ascending order would accept next, so the cost is
// O(topK·len(curve)) instead of a sort of every window.
func RankAnomalies(curve []float64, n, topK int) ([]Candidate, error) {
	if topK < 1 {
		return nil, ErrBadTopK
	}
	scores, err := WindowScores(curve, n)
	if err != nil {
		return nil, err
	}
	blocked := make([]bool, len(scores))
	var out []Candidate
	for len(out) < topK {
		best := -1
		for p, s := range scores {
			if !blocked[p] && (best < 0 || s < scores[best]) {
				best = p
			}
		}
		if best < 0 {
			break
		}
		out = append(out, Candidate{Pos: best, Length: n, Density: scores[best]})
		for p := max(best-n+1, 0); p < min(best+n, len(scores)); p++ {
			blocked[p] = true
		}
	}
	return out, nil
}

// Result bundles everything a single grammar-induction run produces.
type Result struct {
	Params     sax.Params  // discretization parameters used
	Curve      []float64   // rule density curve, len == len(series)
	Candidates []Candidate // ranked anomaly candidates
	NumRules   int         // grammar size (including the start rule)
	NumTokens  int         // numerosity-reduced token count
}

// InduceMember runs one ensemble member — PAA size p.W, alphabet p.A,
// sliding window n — over the whole series exactly as the detection engine
// runs it: a fresh pipeline through the shared sax.Encoder, its word ids
// fed to a sequitur.Builder, and the grammar frozen with its terminals
// renumbered in first-occurrence order and rendered through the pipeline.
// It returns the grammar and the window start position of each of its
// input tokens. Sequitur compares ids only for equality, so the grammar is
// the one Sequitur induces from the token words. The resolver mr must
// cover p.A; pass nil to have one built on the fly.
func InduceMember(f *timeseries.Features, n int, p sax.Params, mr *sax.MultiResolver) (*sequitur.Grammar, []int, error) {
	b, seq, pos, err := induceLive(f, n, p, mr)
	if err != nil {
		return nil, nil, err
	}
	g, err := b.Grammar()
	if err != nil {
		return nil, nil, err
	}
	// Terminals carry the pipeline's word ids, which for most (w, a) are
	// the words' radix values; renumber them densely in order of first
	// occurrence, so Words lists each distinct word once, in token order.
	dense := make(map[int32]int)
	var ids []int32
	for _, id := range b.AppendIDs(nil) {
		if _, ok := dense[id]; !ok {
			dense[id] = len(ids)
			ids = append(ids, id)
		}
	}
	for _, r := range g.Rules {
		for i, sym := range r.RHS {
			if !sym.IsRule() {
				r.RHS[i].Term = dense[int32(sym.Term)]
			}
		}
	}
	g.Words = seq.Words(ids)
	return g, pos, nil
}

// induceLive is InduceMember up to the live builder: it returns the
// builder fed the member's word ids, the member's pipeline (whose
// dictionary renders those ids) and each token's window start position.
func induceLive(f *timeseries.Features, n int, p sax.Params, mr *sax.MultiResolver) (*sequitur.Builder, *sax.IncrementalSeq, []int, error) {
	if n < 2 {
		return nil, nil, nil, fmt.Errorf("%w: n=%d", ErrBadWindowN, n)
	}
	if n > f.SeriesLen() {
		return nil, nil, nil, fmt.Errorf("%w: n=%d len=%d", ErrBadSeries, n, f.SeriesLen())
	}
	if mr == nil {
		var err error
		if mr, err = sax.NewMultiResolver(p.A); err != nil {
			return nil, nil, nil, err
		}
	}
	enc, err := sax.NewEncoder(mr, n, p.W)
	if err != nil {
		return nil, nil, nil, err
	}
	seq := sax.NewIncrementalSeq(p, 0)
	lastWin := f.SeriesLen() - n
	if err := enc.Encode(f, []*sax.IncrementalSeq{seq}, lastWin); err != nil {
		return nil, nil, nil, err
	}
	toks, err := seq.Covering(0, lastWin)
	if err != nil {
		return nil, nil, nil, err
	}
	b := sequitur.NewBuilderSize(len(toks))
	pos := make([]int, len(toks))
	for i, tk := range toks {
		b.PushID(tk.ID)
		pos[i] = seq.Pos(tk)
	}
	return b, seq, pos, nil
}

// Detect runs the full single-parameter pipeline of §5 (the GrammarViz
// detector), which is one ensemble member of Algorithm 1 ranked on its
// own: induce the member's grammar over the series with sliding window n
// and parameters p as InduceMember does, build its rule density curve, and rank
// the topK anomaly candidates. Its curve is bit-identical to the raw curve
// the ensemble computes for the same member. The resolver mr must cover
// p.A; pass nil to have one built on the fly.
func Detect(series timeseries.Series, n int, p sax.Params, mr *sax.MultiResolver, topK int) (*Result, error) {
	f, err := timeseries.NewFeatures(series)
	if err != nil {
		return nil, err
	}
	return DetectWithFeatures(f, n, p, mr, topK)
}

// DetectWithFeatures is Detect for callers that already computed the
// prefix-sum features (the ensemble shares one Features across members).
// It scores the live builder, which serves rule occurrences and the rule
// count as they are, so the grammar is never frozen nor its words
// rendered; only FindMotifs and internal/rra need that form.
func DetectWithFeatures(f *timeseries.Features, n int, p sax.Params, mr *sax.MultiResolver, topK int) (*Result, error) {
	b, _, pos, err := induceLive(f, n, p, mr)
	if err != nil {
		return nil, err
	}
	curve, err := WindowedDensityInto(nil, b, pos, 0, f.SeriesLen(), n)
	if err != nil {
		return nil, err
	}
	cands, err := RankAnomalies(curve, n, topK)
	if err != nil {
		return nil, err
	}
	return &Result{
		Params:     p,
		Curve:      curve,
		Candidates: cands,
		NumRules:   b.NumRules(),
		NumTokens:  len(pos),
	}, nil
}
