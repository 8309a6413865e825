// Package stat provides the small numerical and order-statistics helpers
// shared by the rest of the library: moments, medians, quantiles, argsort,
// and the equiprobable Gaussian breakpoints used by SAX discretization.
//
// All functions are pure and allocate only when they must return a new
// slice; callers on hot paths can use the *Into variants to reuse buffers.
package stat

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one observation.
var ErrEmpty = errors.New("stat: empty input")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Var returns the unbiased (n-1 denominator) sample variance of xs.
// It returns 0 when xs has fewer than two elements.
func Var(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Std returns the unbiased sample standard deviation of xs.
func Std(xs []float64) float64 {
	return math.Sqrt(Var(xs))
}

// PopStd returns the population (n denominator) standard deviation of xs.
// SAX z-normalization conventionally uses the population form.
func PopStd(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// MinMax returns the minimum and maximum of xs.
// It returns an error for an empty slice.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Max returns the maximum of xs, or negative infinity for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or positive infinity for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs without modifying it.
// It returns an error for an empty slice.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	tmp := append([]float64(nil), xs...)
	return medianInPlace(tmp), nil
}

// MedianInPlace returns the median of xs, reordering xs as a side effect.
// It returns an error for an empty slice.
func MedianInPlace(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return medianInPlace(xs), nil
}

func medianInPlace(xs []float64) float64 {
	sortFloats(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// insertionMax is the longest slice sortFloats orders by insertion sort:
// the combiner's columns (τ·N curves, 20 at the paper's defaults) are short
// enough that sort.Float64s' setup outweighs its asymptotics.
const insertionMax = 32

// sortFloats sorts xs ascending in sort.Float64s' order, NaNs first. Up to
// insertionMax values it insertion-sorts in place; the combiner calls it
// once per output point, on the serial phase after the member stage.
func sortFloats(xs []float64) {
	if len(xs) > insertionMax {
		sort.Float64s(xs)
		return
	}
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i
		for ; j > 0 && floatLess(x, xs[j-1]); j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = x
	}
}

// floatLess is sort.Float64s' order: x < y, with NaN below every number.
func floatLess(x, y float64) bool {
	return x < y || (x != x && y == y)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns an error for an empty
// slice or q outside [0, 1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stat: quantile out of range")
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	pos := q * float64(len(tmp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return tmp[lo], nil
	}
	frac := pos - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac, nil
}

// ArgSortDesc returns the indices of xs ordered so that
// xs[idx[0]] >= xs[idx[1]] >= ... The sort is stable, so ties keep their
// original relative order (this mirrors Algorithm 1's ArgSort over curve
// standard deviations).
func ArgSortDesc(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	return idx
}

// ArgSortAsc returns the indices of xs ordered so that
// xs[idx[0]] <= xs[idx[1]] <= ... The sort is stable.
func ArgSortAsc(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx
}

// ZNormalize returns a z-normalized copy of xs: mean 0 and population
// standard deviation 1. When the standard deviation is below eps the
// subsequence is (numerically) constant and the function returns all zeros,
// the convention used by SAX and matrix profile implementations to avoid
// amplifying noise on flat segments.
func ZNormalize(xs []float64, eps float64) []float64 {
	out := make([]float64, len(xs))
	ZNormalizeInto(out, xs, eps)
	return out
}

// ZNormalizeInto writes the z-normalized xs into dst, which must have the
// same length as xs. See ZNormalize for the constant-subsequence convention.
func ZNormalizeInto(dst, xs []float64, eps float64) {
	if len(dst) != len(xs) {
		panic("stat: ZNormalizeInto length mismatch")
	}
	m := Mean(xs)
	sd := PopStd(xs)
	if sd < eps {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	for i, x := range xs {
		dst[i] = (x - m) / sd
	}
}

// GaussianBreakpoints returns the a-1 breakpoints that divide the standard
// normal distribution into a equiprobable regions, as used by the SAX
// breakpoint table (Lin et al. 2007). For a < 2 it returns an error: an
// alphabet needs at least two symbols to carry information.
func GaussianBreakpoints(a int) ([]float64, error) {
	if a < 2 {
		return nil, errors.New("stat: alphabet size must be >= 2")
	}
	bps := make([]float64, a-1)
	for i := 1; i < a; i++ {
		p := float64(i) / float64(a)
		bps[i-1] = math.Sqrt2 * math.Erfinv(2*p-1)
	}
	return bps, nil
}

// NormalizeByMax divides every element of xs by max(xs) so that the result
// lies in [0, 1] while zeros stay exactly zero — the normalization Algorithm
// 1 uses instead of min-max scaling, to preserve the significance of
// zero-density locations. If the maximum is not positive the input is
// returned unchanged (as a copy): such a curve carries no signal.
func NormalizeByMax(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	NormalizeByMaxInPlace(out)
	return out
}

// NormalizeByMaxInPlace is NormalizeByMax operating on xs directly.
func NormalizeByMaxInPlace(xs []float64) {
	m := Max(xs)
	if m <= 0 || math.IsInf(m, -1) {
		return
	}
	for i := range xs {
		xs[i] /= m
	}
}

// MinMaxNormalize rescales xs to [0, 1] using (x-min)/(max-min). It exists
// for the ablation comparison against NormalizeByMax; the paper argues this
// variant destroys the significance of zero-density points. A constant
// input maps to all zeros.
func MinMaxNormalize(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	MinMaxNormalizeInPlace(out)
	return out
}

// MinMaxNormalizeInPlace is MinMaxNormalize operating on xs directly.
func MinMaxNormalizeInPlace(xs []float64) {
	min, max, err := MinMax(xs)
	if err != nil || max == min {
		for i := range xs {
			xs[i] = 0
		}
		return
	}
	for i := range xs {
		xs[i] = (xs[i] - min) / (max - min)
	}
}

// ColumnMedians returns, for a set of equal-length rows, the per-column
// median. It is the combiner at the heart of Algorithm 1 (line 14). It
// returns an error when rows is empty or the rows have unequal lengths.
func ColumnMedians(rows [][]float64) ([]float64, error) {
	if len(rows) == 0 {
		return nil, ErrEmpty
	}
	width := len(rows[0])
	for _, r := range rows[1:] {
		if len(r) != width {
			return nil, errors.New("stat: rows have unequal lengths")
		}
	}
	out := make([]float64, width)
	buf := make([]float64, len(rows))
	for c := 0; c < width; c++ {
		for r := range rows {
			buf[r] = rows[r][c]
		}
		out[c] = medianInPlace(buf)
	}
	return out, nil
}

// ColumnMeans returns the per-column mean of a set of equal-length rows.
// It is the alternative combiner used by the ablation benchmarks.
func ColumnMeans(rows [][]float64) ([]float64, error) {
	if len(rows) == 0 {
		return nil, ErrEmpty
	}
	width := len(rows[0])
	for _, r := range rows[1:] {
		if len(r) != width {
			return nil, errors.New("stat: rows have unequal lengths")
		}
	}
	out := make([]float64, width)
	for _, r := range rows {
		for c, v := range r {
			out[c] += v
		}
	}
	inv := 1 / float64(len(rows))
	for c := range out {
		out[c] *= inv
	}
	return out, nil
}
