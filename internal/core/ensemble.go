// Package core implements the paper's primary contribution: ensemble
// grammar induction for time series anomaly detection (Algorithm 1, §6.1).
//
// Instead of committing to one discretization parameter combination, the
// ensemble runs the grammar-induction pipeline for N randomly chosen
// (PAA size, alphabet size) combinations, discards the least informative
// rule density curves (those with the lowest standard deviation), rescales
// the survivors onto [0, 1] by dividing by their maximum (preserving the
// significance of exact-zero densities), and combines them with a
// pointwise median. Anomalies are then ranked on the combined curve
// exactly as in the single-run detector.
//
// Since the engine refactor the heavy lifting lives in internal/engine:
// core is the batch face of the shared detection engine (internal/stream
// is the online face), delegating member execution, discretization and
// curve combination to an engine.Engine and keeping only the batch-shaped
// entry points (whole series in, Result out). The chunk-and-stitch form
// for very long series lives with the stream's stitcher (egi.DetectChunked
// drives internal/stream).
package core

import (
	"fmt"
	"math/rand"

	"egi/internal/engine"
	"egi/internal/sax"
	"egi/internal/timeseries"
)

// Defaults used by the paper's experiments (§7, first paragraph).
const (
	DefaultEnsembleSize = engine.DefaultEnsembleSize
	DefaultWMax         = engine.DefaultWMax
	DefaultAMax         = engine.DefaultAMax
	DefaultTau          = engine.DefaultTau
	DefaultTopK         = engine.DefaultTopK
)

// Combiner selects how the surviving normalized curves are merged.
type Combiner = engine.Combiner

const (
	// CombineMedian is the paper's combiner: the pointwise median.
	CombineMedian = engine.CombineMedian
	// CombineMean is the ablation alternative: the pointwise mean.
	CombineMean = engine.CombineMean
)

// Normalizer selects how each surviving curve is rescaled before merging.
type Normalizer = engine.Normalizer

const (
	// NormalizeMax divides by the curve maximum (the paper's choice: zero
	// densities stay exactly zero).
	NormalizeMax = engine.NormalizeMax
	// NormalizeMinMax is the ablation alternative the paper argues
	// against: (x-min)/(max-min) moves nonzero minima to zero.
	NormalizeMinMax = engine.NormalizeMinMax
)

// Config parameterizes the ensemble detector. It is the engine's
// configuration re-exported under the batch detector's name; the zero
// value is not valid — use DefaultConfig or fill in Window and rely on
// Normalized() for the rest.
type Config = engine.Config

// DefaultConfig returns the paper's experimental configuration for a given
// sliding window length.
func DefaultConfig(window int) Config {
	return Config{
		Window: window,
		Size:   DefaultEnsembleSize,
		WMax:   DefaultWMax,
		AMax:   DefaultAMax,
		Tau:    DefaultTau,
		TopK:   DefaultTopK,
	}
}

// Member records one ensemble member's run.
type Member = engine.Member

// MemberCurve is one ensemble member's full output; see engine.MemberCurve.
type MemberCurve = engine.MemberCurve

// Result is the outcome of one ensemble detection.
type Result = engine.Result

// ErrNoUsableCurves is returned when every member produced a degenerate
// (zero-variance, zero-max) curve — e.g. on a constant series.
var ErrNoUsableCurves = engine.ErrNoUsableCurves

// GenerateParams draws size distinct (w, a) combinations uniformly from
// [2, wmax] × [min(2,..), amax], each combination used at most once (the
// constraint stated in Algorithm 1, line 5). If fewer than size distinct
// combinations exist, all of them are returned in random order. Window
// caps w: combinations with w > window are never usable.
//
// The engine draws its members with exactly this procedure (grid built in
// the same order, shuffled by the same seeded generator), which is what
// keeps pre- and post-refactor results bit-identical.
func GenerateParams(rng *rand.Rand, size, wmax, amax, window int) []sax.Params {
	if wmax > window {
		wmax = window
	}
	var all []sax.Params
	for w := 2; w <= wmax; w++ {
		for a := 2; a <= amax; a++ {
			all = append(all, sax.Params{W: w, A: a})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if size < len(all) {
		all = all[:size]
	}
	return all
}

// Detect runs Algorithm 1 on the series and returns the ensemble curve and
// ranked anomaly candidates.
func Detect(series timeseries.Series, cfg Config) (*Result, error) {
	f, err := timeseries.NewFeatures(series)
	if err != nil {
		return nil, err
	}
	return DetectWithFeatures(f, cfg)
}

// DetectWithFeatures is Detect for callers that already computed prefix-sum
// features (e.g. to run several configurations over one long series).
func DetectWithFeatures(f *timeseries.Features, cfg Config) (*Result, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	if cfg.Window > f.SeriesLen() {
		return nil, fmt.Errorf("core: window %d exceeds series length %d", cfg.Window, f.SeriesLen())
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	n := f.SeriesLen()
	return eng.DetectSpan(f, 0, n, n, cfg.Seed)
}

// ComputeMembers runs lines 4–8 of Algorithm 1: draw cfg.Size distinct
// (w,a) combinations, discretize all of them in one shared multi-resolution
// pass, and induce one rule density curve per member (concurrently). It is
// a thin layer over engine.Engine.MemberCurves.
func ComputeMembers(f *timeseries.Features, cfg Config) ([]MemberCurve, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	if cfg.Window > f.SeriesLen() {
		return nil, fmt.Errorf("core: window %d exceeds series length %d", cfg.Window, f.SeriesLen())
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	n := f.SeriesLen()
	return eng.MemberCurves(f, 0, n, n, cfg.Seed)
}

// CombineMembers performs lines 9–14 of Algorithm 1 on precomputed member
// curves: rank by standard deviation, keep the top tau fraction, normalize
// each survivor, merge, and rank anomalies on the combined curve. Only
// cfg.Tau, cfg.Window, cfg.TopK, cfg.Combine, cfg.Normalize and
// cfg.Parallelism are used, so callers can sweep the first five cheaply
// over one set of members. The input curves are not mutated.
func CombineMembers(memberCurves []MemberCurve, cfg Config) (*Result, error) {
	return engine.Combine(memberCurves, cfg)
}
