// Package sax implements Symbolic Aggregate approXimation (§4.1 of the
// paper): Piecewise Aggregate Approximation (PAA), the Gaussian breakpoint
// alphabet, the FastPAA algorithm (Algorithm 2) built on prefix sums, the
// multi-resolution SAX word computation of §6.2, and the numerosity
// reduction of §4.2. Encoder combines them into the library's one
// sliding-window walk, which feeds member pipelines (IncrementalSeq) for
// the ensemble engine and the single-run detectors alike; NaiveDiscretize
// is its unaccelerated reference.
//
// Conventions:
//
//   - A SAX word is a string of w bytes; symbol i is 'a'+i.
//   - Breakpoint regions are (-inf, b1), [b1, b2), ..., [b_{a-1}, +inf):
//     a coefficient equal to a breakpoint belongs to the region above it,
//     and "equal" is taken with tolerance BoundaryTol so that the two
//     coefficient computation orders in use (naive per-window summation and
//     the prefix-sum fast path) agree on which side of a breakpoint a
//     coefficient falls even when float rounding puts them an ulp apart.
//   - A window whose standard deviation is below Eps is treated as flat:
//     its z-normalized form is all zeros (and hence its word is uniform).
package sax

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"egi/internal/stat"
	"egi/internal/timeseries"
)

// Eps is the standard-deviation threshold below which a subsequence is
// considered constant for z-normalization purposes.
const Eps = 1e-9

// MaxAlphabet is the largest supported alphabet size. 26 keeps every symbol
// a lowercase letter; the paper never goes beyond 20.
const MaxAlphabet = 26

// BoundaryTol is the symbolization tie-break tolerance: a PAA coefficient
// within BoundaryTol below a breakpoint is treated as lying exactly on it
// and therefore maps to the region above. Gaussian breakpoints for the
// supported alphabets are separated by at least ~0.05, so the band only
// ever captures coefficients that are "on" a breakpoint up to float noise;
// without it, the naive and prefix-sum coefficient paths — whose results
// can differ in the last ulp — could encode such a coefficient one symbol
// apart (found by FuzzSAXDiscretize; see TestBreakpointTieRegression).
//
// The tolerance moves the decision boundary from b to b-1e-9 rather than
// removing it, but unlike b itself the shifted boundary is not an
// attractor: analytically clean inputs land their coefficients exactly on
// breakpoints (0 especially), never at an irrational offset 1e-9 below
// one, so the two paths would have to disagree about a value straddling
// b-1e-9 to ulp precision — which the fuzzer has not produced.
const BoundaryTol = 1e-9

// Errors reported by discretization.
var (
	ErrBadPAASize  = errors.New("sax: PAA size must be >= 1 and <= window length")
	ErrBadAlphabet = fmt.Errorf("sax: alphabet size must be in [2, %d]", MaxAlphabet)
	ErrBadWindow   = errors.New("sax: window length out of range")
)

// Params is one discretization parameter combination: PAA size w and
// alphabet size a. Ensemble members are identified by their Params.
type Params struct {
	W int // PAA size (word length)
	A int // alphabet size
}

// String renders the combination as "w=<w>,a=<a>".
func (p Params) String() string { return fmt.Sprintf("w=%d,a=%d", p.W, p.A) }

// Validate checks the combination against a window of length n.
func (p Params) Validate(n int) error {
	if p.W < 1 || p.W > n {
		return fmt.Errorf("%w: w=%d, n=%d", ErrBadPAASize, p.W, n)
	}
	if p.A < 2 || p.A > MaxAlphabet {
		return fmt.Errorf("%w: a=%d", ErrBadAlphabet, p.A)
	}
	return nil
}

// ValidWord reports whether word is a SAX word of the combination: w
// symbols, each one of the alphabet's first a letters.
func (p Params) ValidWord(word string) bool {
	if len(word) != p.W {
		return false
	}
	for i := 0; i < len(word); i++ {
		if word[i] < 'a' || int(word[i]-'a') >= p.A {
			return false
		}
	}
	return true
}

var breakpointCache sync.Map // int -> []float64

// Breakpoints returns the SAX breakpoint table row for alphabet size a:
// the a-1 values that split N(0,1) into equiprobable regions. Results are
// cached; callers must not modify the returned slice.
func Breakpoints(a int) ([]float64, error) {
	if a < 2 || a > MaxAlphabet {
		return nil, fmt.Errorf("%w: a=%d", ErrBadAlphabet, a)
	}
	if v, ok := breakpointCache.Load(a); ok {
		return v.([]float64), nil
	}
	bps, err := stat.GaussianBreakpoints(a)
	if err != nil {
		return nil, err
	}
	breakpointCache.Store(a, bps)
	return bps, nil
}

// SymbolFor maps a single z-normalized PAA coefficient to its symbol index
// under alphabet size a: the number of breakpoints <= c + BoundaryTol (the
// shared tie-break; see the package comment).
func SymbolFor(c float64, bps []float64) int {
	// sort.Search finds the first i with bps[i] > c+BoundaryTol, which
	// equals the count of breakpoints <= c+BoundaryTol and therefore the
	// region index.
	return sort.Search(len(bps), func(i int) bool { return bps[i] > c+BoundaryTol })
}

// PAA computes the Piecewise Aggregate Approximation of a z-normalized
// subsequence: w segment means over near-equal integer segments
// [i*n/w, (i+1)*n/w). The same integer segmentation is used by FastPAA so
// the two agree exactly.
func PAA(znormed []float64, w int) ([]float64, error) {
	n := len(znormed)
	if w < 1 || w > n {
		return nil, fmt.Errorf("%w: w=%d, n=%d", ErrBadPAASize, w, n)
	}
	out := make([]float64, w)
	for i := 0; i < w; i++ {
		lo := i * n / w
		hi := (i + 1) * n / w
		var s float64
		for _, v := range znormed[lo:hi] {
			s += v
		}
		out[i] = s / float64(hi-lo)
	}
	return out, nil
}

// Encode converts a z-normalized subsequence into a SAX word with PAA size
// w and alphabet size a, the naive (non-accelerated) path of §4.1. It is
// retained as the reference implementation and ablation baseline.
func Encode(znormed []float64, w, a int) (string, error) {
	coeffs, err := PAA(znormed, w)
	if err != nil {
		return "", err
	}
	bps, err := Breakpoints(a)
	if err != nil {
		return "", err
	}
	word := make([]byte, w)
	for i, c := range coeffs {
		word[i] = byte('a' + SymbolFor(c, bps))
	}
	return string(word), nil
}

// EncodeSubsequence z-normalizes raw and encodes it. Convenience wrapper
// used by tests and by HOTSAX.
func EncodeSubsequence(raw []float64, w, a int) (string, error) {
	z := stat.ZNormalize(raw, Eps)
	return Encode(z, w, a)
}

// FeatureSource is the prefix-sum view FastPAAFrom discretizes against: any
// store that can produce the sum and sum-of-squares of a position range in
// constant time. timeseries.Features (whole series in memory) and
// timeseries.RingFeatures (bounded rolling window of an unbounded stream)
// both satisfy it. Positions are in the coordinates of the source — global
// stream positions for a ring — which is what makes suffix/incremental
// discretization bit-identical to a from-scratch pass: the range sums for a
// given window are fixed floats no matter which span asks for them.
type FeatureSource = timeseries.SumSource

// FastPAA implements Algorithm 2 of the paper: the PAA coefficients of the
// z-normalized window [p, p+n) computed in O(w) from the prefix-sum
// features, instead of O(n) for the naive path. dst must have length w.
//
// For a (numerically) constant window all coefficients are zero, matching
// the z-normalization convention.
func FastPAA(f *timeseries.Features, p, n, w int, dst []float64) error {
	if n <= 0 || p < 0 || p+n > f.SeriesLen() {
		return fmt.Errorf("%w: p=%d n=%d len=%d", ErrBadWindow, p, n, f.SeriesLen())
	}
	return FastPAAFrom(f, p, n, w, dst)
}

// FastPAAFrom is FastPAA over any FeatureSource. The caller is responsible
// for p and p+n lying inside the source's retained range; mean and standard
// deviation come from the one shared timeseries.MeanStd implementation, so
// every entry point produces bit-equal coefficients.
func FastPAAFrom(src FeatureSource, p, n, w int, dst []float64) error {
	if n <= 0 {
		return fmt.Errorf("%w: p=%d n=%d", ErrBadWindow, p, n)
	}
	if w < 1 || w > n {
		return fmt.Errorf("%w: w=%d, n=%d", ErrBadPAASize, w, n)
	}
	if len(dst) != w {
		return fmt.Errorf("sax: dst length %d, want %d", len(dst), w)
	}
	mu, sigma := timeseries.MeanStd(src, p, p+n)
	return FastPAAWith(src, p, n, w, mu, sigma, dst)
}

// FastPAAWith is FastPAAFrom with the window's mean and standard deviation
// already computed by the caller: mu and sigma must be exactly
// timeseries.MeanStd(src, p, p+n). The engine's multi-resolution extension
// shares one MeanStd evaluation across every PAA size of the same window —
// the statistics depend on the window alone — instead of recomputing it
// per size group; the float arithmetic is identical either way, so words
// are bit-equal to FastPAAFrom's. Validation of p, n, w and dst matches
// FastPAAFrom (callers on the hot path have validated the span already).
func FastPAAWith(src FeatureSource, p, n, w int, mu, sigma float64, dst []float64) error {
	if n <= 0 {
		return fmt.Errorf("%w: p=%d n=%d", ErrBadWindow, p, n)
	}
	if w < 1 || w > n {
		return fmt.Errorf("%w: w=%d, n=%d", ErrBadPAASize, w, n)
	}
	if len(dst) != w {
		return fmt.Errorf("sax: dst length %d, want %d", len(dst), w)
	}
	if sigma < Eps {
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	inv := 1 / sigma
	for i := 0; i < w; i++ {
		lo := p + i*n/w
		hi := p + (i+1)*n/w
		segMean := src.RangeSum(lo, hi) / float64(hi-lo)
		dst[i] = (segMean - mu) * inv
	}
	return nil
}
