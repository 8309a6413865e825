// Package grammar implements the grammar-induction-based anomaly detection
// pipeline of §5 of the paper: it turns a discretized, numerosity-reduced
// token sequence into a Sequitur grammar, computes the rule density curve
// (the meta time series counting how many grammar rules cover each point),
// and extracts ranked anomaly candidates from the curve's minima.
//
// This package is both a building block of the ensemble (internal/core) and
// a complete single-run detector — the GI-Fix and GI-Random baselines of
// §7.1.3 are thin wrappers around Detect.
package grammar

import (
	"errors"
	"fmt"

	"egi/internal/sax"
	"egi/internal/sequitur"
	"egi/internal/stat"
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

// DensityCurve computes the rule density curve for a grammar induced from
// the given numerosity-reduced token sequence. Each occurrence of each rule
// (except the start rule) covering tokens [s, e) is mapped back to the time
// span [tokens[s].Pos, tokens[e-1].Pos + n - 1] — the union of the sliding
// windows its tokens were produced from — and contributes one unit of
// density to every point of that span. It is WindowedDensityInto over the
// whole series [0, seriesLen), so cost is O(#occurrences + seriesLen).
func DensityCurve(g *sequitur.Grammar, tokens []sax.Token, seriesLen, n int) ([]float64, error) {
	pos := make([]int, len(tokens))
	for i, t := range tokens {
		pos[i] = t.Pos
	}
	return WindowedDensityInto(nil, g, pos, 0, seriesLen, n)
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
func RankAnomalies(curve []float64, n, topK int) ([]Candidate, error) {
	if topK < 1 {
		return nil, ErrBadTopK
	}
	scores, err := WindowScores(curve, n)
	if err != nil {
		return nil, err
	}
	order := stat.ArgSortAsc(scores)
	var out []Candidate
	for _, p := range order {
		if len(out) == topK {
			break
		}
		overlaps := false
		for _, c := range out {
			if p < c.Pos+c.Length && c.Pos < p+n {
				overlaps = true
				break
			}
		}
		if !overlaps {
			out = append(out, Candidate{Pos: p, Length: n, Density: scores[p]})
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

// newFeaturesChecked validates the window against the series and computes
// the prefix-sum features.
func newFeaturesChecked(series timeseries.Series, n int) (*timeseries.Features, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadWindowN, n)
	}
	if n > len(series) {
		return nil, fmt.Errorf("%w: n=%d len=%d", ErrBadSeries, n, len(series))
	}
	return timeseries.NewFeatures(series)
}

// Detect runs the full single-parameter pipeline of §5 (the GrammarViz
// detector): discretize with sliding window n and parameters p, induce a
// grammar, build the density curve, and rank the topK anomaly candidates.
// The resolver mr must cover p.A; pass nil to have one built on the fly.
func Detect(series timeseries.Series, n int, p sax.Params, mr *sax.MultiResolver, topK int) (*Result, error) {
	f, err := timeseries.NewFeatures(series)
	if err != nil {
		return nil, err
	}
	return DetectWithFeatures(f, n, p, mr, topK)
}

// DetectWithFeatures is Detect for callers that already computed the
// prefix-sum features (the ensemble shares one Features across members).
func DetectWithFeatures(f *timeseries.Features, n int, p sax.Params, mr *sax.MultiResolver, topK int) (*Result, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadWindowN, n)
	}
	if n > f.SeriesLen() {
		return nil, fmt.Errorf("%w: n=%d len=%d", ErrBadSeries, n, f.SeriesLen())
	}
	if mr == nil {
		var err error
		if mr, err = sax.NewMultiResolver(p.A); err != nil {
			return nil, err
		}
	}
	return detect(f, n, p, mr, topK)
}

// detect runs the pipeline once the arguments are checked: discretize,
// induce the grammar, build the density curve and rank the candidates.
func detect(f *timeseries.Features, n int, p sax.Params, mr *sax.MultiResolver, topK int) (*Result, error) {
	tokens, err := sax.Discretize(f, n, p, mr)
	if err != nil {
		return nil, err
	}
	words := make([]string, len(tokens))
	for i, t := range tokens {
		words[i] = t.Word
	}
	g, err := sequitur.Induce(words)
	if err != nil {
		return nil, err
	}
	curve, err := DensityCurve(g, tokens, f.SeriesLen(), n)
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
		NumRules:   g.NumRules(),
		NumTokens:  len(tokens),
	}, nil
}
