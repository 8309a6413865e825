// Package egi is ensemble grammar induction for time series anomaly
// detection — a Go implementation of Gao, Lin & Brif, "Ensemble Grammar
// Induction For Detecting Anomalies in Time Series" (EDBT 2020).
//
// The detector finds anomalous subsequences of a univariate time series
// without committing to a single discretization parameter choice: it runs
// the grammar-induction pipeline (SAX discretization → numerosity
// reduction → Sequitur → rule density curve) for many random parameter
// combinations, keeps the most informative rule density curves, and
// combines them into an ensemble curve whose minima are the anomalies.
// The method is linear in the series length.
//
// Quick start:
//
//	result, err := egi.Detect(series, egi.Options{Window: 100})
//	if err != nil { ... }
//	for _, a := range result.Anomalies {
//		fmt.Printf("anomaly at %d (len %d), density %.3f\n", a.Pos, a.Length, a.Density)
//	}
//
// Besides the ensemble detector, the package exposes the single-run
// grammar-induction detector (DetectSingle) and the distance-based discord
// baseline (Discords) the paper compares against.
package egi

import (
	"fmt"

	"egi/internal/core"
	"egi/internal/grammar"
	"egi/internal/matrixprofile"
	"egi/internal/rra"
	"egi/internal/sax"
	"egi/internal/stream"
	"egi/internal/timeseries"
)

// Anomaly is one detected anomalous subsequence.
type Anomaly struct {
	// Pos is the start index of the subsequence in the input series.
	Pos int
	// Length is the subsequence length (the sliding window length).
	Length int
	// Density is the mean ensemble rule density over the subsequence;
	// lower means more anomalous. For Discords this field instead holds
	// the 1-NN distance, where higher means more anomalous.
	Density float64
}

// Options configures Detect. Only Window is required; zero values select
// the paper's defaults (N=50 members, w,a ∈ [2,10], τ=40%, top 3).
type Options struct {
	// Window is the sliding window length n — roughly the scale of the
	// anomalies sought, e.g. one cycle of a periodic signal. Required.
	Window int
	// EnsembleSize is the number N of random (w,a) parameter combinations.
	EnsembleSize int
	// WMax and AMax bound the sampled PAA sizes and alphabet sizes.
	WMax, AMax int
	// Tau is the ensemble selectivity: the fraction of rule density
	// curves, ranked by descending standard deviation, kept (0 < τ <= 1).
	Tau float64
	// TopK is the number of ranked anomalies to return.
	TopK int
	// Seed makes detection deterministic; equal seeds, equal results.
	Seed int64
}

// Result is the outcome of an ensemble detection.
type Result struct {
	// Anomalies are the ranked candidates, most anomalous first. They
	// never overlap one another.
	Anomalies []Anomaly
	// Curve is the ensemble rule density curve, one value in [0,1] per
	// input point; anomalies live at its minima.
	Curve []float64
}

// Detect runs ensemble grammar induction (Algorithm 1 of the paper) on the
// series. It validates the input (non-empty, finite, longer than the
// window) and returns an error rather than panicking on degenerate input;
// a constant series yields ErrNoUsableCurves from the core package.
func Detect(series []float64, opts Options) (*Result, error) {
	res, err := core.Detect(timeseries.Series(series), opts.config())
	if err != nil {
		return nil, err
	}
	return &Result{
		Anomalies: fromCandidates(res.Candidates),
		Curve:     res.Curve,
	}, nil
}

// DetectSingle runs the single-parameter grammar-induction detector of
// GrammarViz (§5 of the paper) with PAA size w and alphabet size a. It is
// the building block the ensemble aggregates, exposed for comparison and
// for users who have tuned parameters.
func DetectSingle(series []float64, window, w, a, topK int) (*Result, error) {
	res, err := grammar.Detect(timeseries.Series(series), window, sax.Params{W: w, A: a}, nil, topK)
	if err != nil {
		return nil, err
	}
	return &Result{
		Anomalies: fromCandidates(res.Candidates),
		Curve:     res.Curve,
	}, nil
}

// Discords finds the top-k time series discords — subsequences with the
// largest 1-NN z-normalized distances — using the STOMP matrix profile,
// the quadratic-time baseline of the paper. In the returned anomalies,
// Density holds the 1-NN distance (higher = more anomalous).
func Discords(series []float64, window, k int) ([]Anomaly, error) {
	p, err := matrixprofile.STOMP(timeseries.Series(series), window, 0)
	if err != nil {
		return nil, err
	}
	ds := p.TopDiscords(k)
	out := make([]Anomaly, len(ds))
	for i, d := range ds {
		out[i] = Anomaly{Pos: d.Pos, Length: d.Length, Density: d.Dist}
	}
	return out, nil
}

// DetectChunked is Detect for very long series: the input is processed in
// overlapping chunks of chunkLen points (consecutive chunks share
// Window-1 points), and the per-chunk ensemble curves are averaged where
// they overlap before anomalies are ranked on the stitched curve. It
// pushes the series through one streaming detector whose buffer is one
// chunk, at the default hop, so what stays resident is that buffer, one
// chunk's working set and the returned curve. chunkLen must be at least
// 4x the window; with chunkLen >= len(series) it is identical to Detect.
func DetectChunked(series []float64, opts Options, chunkLen int) (*Result, error) {
	cfg, err := opts.config().Normalized()
	if err != nil {
		return nil, err
	}
	if err := timeseries.Series(series).Validate(); err != nil {
		return nil, err
	}
	if cfg.Window > len(series) {
		return nil, fmt.Errorf("egi: window %d exceeds series length %d", cfg.Window, len(series))
	}
	if chunkLen >= len(series) {
		return Detect(series, opts)
	}
	if chunkLen < 4*cfg.Window {
		return nil, fmt.Errorf("egi: chunk length %d too small; need at least 4x the window (%d)",
			chunkLen, 4*cfg.Window)
	}
	curve, err := stream.StitchedCurve(series, stream.Config{
		Window:       cfg.Window,
		BufLen:       chunkLen,
		EnsembleSize: cfg.Size,
		WMax:         cfg.WMax,
		AMax:         cfg.AMax,
		Tau:          cfg.Tau,
		TopK:         cfg.TopK,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	cands, err := grammar.RankAnomalies(curve, cfg.Window, cfg.TopK)
	if err != nil {
		return nil, err
	}
	return &Result{Anomalies: fromCandidates(cands), Curve: curve}, nil
}

// VariableLengthAnomalies runs the Rare Rule Anomaly (RRA) algorithm of
// Senin et al. (EDBT 2015), the paper's predecessor method: grammar rule
// intervals become variable-length discord candidates, refined by an exact
// 1-NN distance search. Unlike Detect, the returned anomalies have their
// natural lengths (not the window length); Density holds the refined 1-NN
// distance, where higher means more anomalous.
func VariableLengthAnomalies(series []float64, window, topK int) ([]Anomaly, error) {
	as, err := rra.Detect(timeseries.Series(series), rra.Config{Window: window, TopK: topK})
	if err != nil {
		return nil, err
	}
	out := make([]Anomaly, len(as))
	for i, a := range as {
		out[i] = Anomaly{Pos: a.Pos, Length: a.Length, Density: a.Dist}
	}
	return out, nil
}

// Motif is a repeated pattern: the time spans of all occurrences of one
// grammar rule. Grammar induction discovers motifs and anomalies from the
// same structure — rules that repeat are motifs, stretches covered by no
// rule are anomalies.
type Motif struct {
	// Rule renders the underlying grammar rule, e.g. "R2 -> ab bc aa".
	Rule string
	// Occurrences holds the [start, end) spans in the input series.
	Occurrences [][2]int
}

// Motifs discovers the top-k most frequent repeated patterns at scale
// window, using a single grammar-induction run with PAA size w and
// alphabet size a (the GrammarViz motif view the paper builds on).
func Motifs(series []float64, window, w, a, k int) ([]Motif, error) {
	ms, err := grammar.FindMotifs(series, window, sax.Params{W: w, A: a}, k)
	if err != nil {
		return nil, err
	}
	out := make([]Motif, len(ms))
	for i, m := range ms {
		out[i] = Motif{Rule: m.RuleString, Occurrences: m.Occurrences}
	}
	return out, nil
}

// config maps the public options onto the batch detector configuration.
func (opts Options) config() core.Config {
	return core.Config{
		Window: opts.Window,
		Size:   opts.EnsembleSize,
		WMax:   opts.WMax,
		AMax:   opts.AMax,
		Tau:    opts.Tau,
		TopK:   opts.TopK,
		Seed:   opts.Seed,
	}
}

func fromCandidates(cands []grammar.Candidate) []Anomaly {
	out := make([]Anomaly, len(cands))
	for i, c := range cands {
		out[i] = Anomaly{Pos: c.Pos, Length: c.Length, Density: c.Density}
	}
	return out
}
