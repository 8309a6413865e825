// Package rra implements the Rare Rule Anomaly (RRA) algorithm of Senin et
// al., "Time series anomaly discovery with grammar-based compression"
// (EDBT 2015) — reference [18] of the paper and the immediate predecessor
// of its rule-density method. Where the rule density curve ranks *points*
// by how many grammar rules cover them, RRA ranks *grammar rule intervals*
// themselves: subsequences that correspond to rarely-used rules (and the
// stretches no rule covers) become variable-length discord candidates,
// which are then refined by an exact 1-NN distance search with early
// abandoning, visiting candidates in ascending rule-frequency order.
//
// RRA complements the ensemble detector: it reports anomalies with their
// natural variable lengths rather than a fixed window, at the cost of the
// distance-refinement step. It is included both for completeness of the
// GrammarViz framework this repository reproduces and as an additional
// baseline for the benchmark harness.
package rra

import (
	"errors"
	"math"
	"sort"

	"egi/internal/grammar"
	"egi/internal/sax"
	"egi/internal/sequitur"
	"egi/internal/stat"
	"egi/internal/timeseries"
)

// Anomaly is one RRA result: a variable-length interval and its exact
// z-normalized 1-NN distance among same-length subsequences (higher =
// more anomalous).
type Anomaly struct {
	Pos    int
	Length int
	// RuleFreq is the usage count of the grammar rule the interval came
	// from; 0 marks an interval covered by no rule at all.
	RuleFreq int
	// Dist is the interval's 1-NN distance after refinement.
	Dist float64
}

// Config tunes Detect. Zero values select sensible defaults.
type Config struct {
	// Window is the SAX sliding window length, at least 2 and at most the
	// series length. Required.
	Window int
	// Params are the discretization parameters (default w=4, a=4, the
	// GrammarViz generic choice).
	Params sax.Params
	// TopK is the number of anomalies to return (default 3).
	TopK int
	// MaxCandidates caps the number of rule intervals refined by the
	// exact distance search (default 200; rarest first).
	MaxCandidates int
}

func (c Config) normalized() (Config, error) {
	if c.Params.W == 0 {
		c.Params.W = 4
	}
	if c.Params.A == 0 {
		c.Params.A = 4
	}
	if c.TopK == 0 {
		c.TopK = 3
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 200
	}
	if c.TopK < 1 {
		return c, errors.New("rra: topK must be >= 1")
	}
	return c, nil
}

// interval is a discord candidate: a span with the frequency of the rule
// that produced it.
type interval struct {
	pos, length int
	freq        int
}

// Detect runs RRA on the series.
func Detect(series timeseries.Series, cfg Config) ([]Anomaly, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	f, err := timeseries.NewFeatures(series)
	if err != nil {
		return nil, err
	}
	g, pos, err := grammar.InduceMember(f, cfg.Window, cfg.Params, nil)
	if err != nil {
		return nil, err
	}
	density, err := grammar.WindowedDensityInto(nil, g, pos, 0, len(series), cfg.Window)
	if err != nil {
		return nil, err
	}

	cands := ruleIntervals(g, pos, density, cfg.Window)
	if len(cands) == 0 {
		return nil, errors.New("rra: no candidate intervals (series too uniform?)")
	}
	// Rarest-first visiting order (the RRA heuristic); cap the number of
	// candidates handed to the quadratic refinement.
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].freq != cands[j].freq {
			return cands[i].freq < cands[j].freq
		}
		return cands[i].pos < cands[j].pos
	})
	if len(cands) > cfg.MaxCandidates {
		cands = cands[:cfg.MaxCandidates]
	}

	refined := refine(series, cands)
	sort.SliceStable(refined, func(i, j int) bool { return refined[i].Dist > refined[j].Dist })
	var out []Anomaly
	for _, a := range refined {
		if len(out) == cfg.TopK {
			break
		}
		overlaps := false
		for _, b := range out {
			if a.Pos < b.Pos+b.Length && b.Pos < a.Pos+a.Length {
				overlaps = true
				break
			}
		}
		if !overlaps {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("rra: refinement produced no anomalies")
	}
	return out, nil
}

// ruleIntervals converts every rule occurrence into a candidate interval
// tagged with the rule's usage count, and adds zero-frequency intervals
// for maximal stretches covered by no rule (the incompressible parts,
// which are the strongest anomaly candidates): a point is covered exactly
// when its rule density is above zero. pos[i] is the window start of
// token i of the grammar's input.
func ruleIntervals(g *sequitur.Grammar, pos []int, density []float64, window int) []interval {
	seriesLen := len(density)
	var out []interval
	g.VisitOccurrences(func(rule, s, e int) {
		lo := pos[s]
		hi := pos[e-1] + window
		if hi > seriesLen {
			hi = seriesLen
		}
		out = append(out, interval{pos: lo, length: hi - lo, freq: g.Rules[rule].Uses})
	})
	// Maximal uncovered runs -> zero-frequency candidates. Extend short
	// runs to at least one window so the refinement has enough points.
	i := 0
	for i < seriesLen {
		if density[i] > 0 {
			i++
			continue
		}
		j := i
		for j < seriesLen && density[j] == 0 {
			j++
		}
		start, length := i, j-i
		if length < window {
			length = window
			if start+length > seriesLen {
				start = seriesLen - length
			}
		}
		out = append(out, interval{pos: start, length: length, freq: 0})
		i = j
	}
	return out
}

// refine computes, for each candidate interval, the exact z-normalized
// Euclidean distance to its nearest non-overlapping same-length
// subsequence, with early abandoning against the candidate's best-so-far.
func refine(series timeseries.Series, cands []interval) []Anomaly {
	out := make([]Anomaly, 0, len(cands))
	for _, c := range cands {
		if c.length < 2 || c.length > len(series) {
			continue
		}
		nn := nearestNeighborDist(series, c.pos, c.length)
		if math.IsInf(nn, 1) {
			continue // no valid non-self match exists
		}
		out = append(out, Anomaly{Pos: c.pos, Length: c.length, RuleFreq: c.freq, Dist: nn})
	}
	return out
}

// nearestNeighborDist is the exact 1-NN distance of the subsequence at
// [pos, pos+m) among all non-overlapping positions, with early abandon.
func nearestNeighborDist(series timeseries.Series, pos, m int) float64 {
	zq := stat.ZNormalize(series[pos:pos+m], sax.Eps)
	best := math.Inf(1)
	z := make([]float64, m)
	for q := 0; q+m <= len(series); q++ {
		if q < pos+m && pos < q+m { // overlap = trivial match
			continue
		}
		stat.ZNormalizeInto(z, series[q:q+m], sax.Eps)
		var acc float64
		abandoned := false
		for k := 0; k < m; k++ {
			d := zq[k] - z[k]
			acc += d * d
			if acc >= best*best {
				abandoned = true
				break
			}
		}
		if !abandoned {
			if d := math.Sqrt(acc); d < best {
				best = d
			}
		}
	}
	return best
}
