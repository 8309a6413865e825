// Package stat provides the small numerical and order-statistics helpers
// shared by the rest of the library: moments, medians, quantiles, argsort,
// the curve normalizations and column combiners of Algorithm 1, and the
// equiprobable Gaussian breakpoints used by SAX discretization.
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
// below it sort.Float64s' setup outweighs its asymptotics.
const insertionMax = 32

// sortFloats sorts xs ascending in sort.Float64s' order, NaNs first. Up to
// insertionMax values it insertion-sorts in place, which is stable.
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

// Scale is one curve's normalization before the curves are merged, kept
// as the map it applies instead of applied to a copy: x ↦ (x - Sub) / Div,
// or 0 for every x when Zero is set. The column kernels apply it to each
// value as they gather it.
type Scale struct {
	Sub, Div float64
	Zero     bool
}

// Apply returns x normalized by s.
func (s Scale) Apply(x float64) float64 {
	if s.Zero {
		return 0
	}
	return (x - s.Sub) / s.Div
}

// MaxScale returns the normalization that divides every element of xs by
// max(xs), so that the result lies in [0, 1] while zeros stay exactly zero
// — the normalization Algorithm 1 uses instead of min-max scaling, to
// preserve the significance of zero-density locations. If the maximum is
// not positive the curve is left unchanged (x - 0 and x / 1 are exact):
// such a curve carries no signal.
func MaxScale(xs []float64) Scale {
	m := Max(xs)
	if m <= 0 || math.IsInf(m, -1) {
		return Scale{Div: 1}
	}
	return Scale{Div: m}
}

// MinMaxScale returns the normalization that rescales xs to [0, 1] using
// (x-min)/(max-min). It exists for the ablation comparison against
// MaxScale; the paper argues this variant destroys the significance of
// zero-density points. A constant input maps to all zeros.
func MinMaxScale(xs []float64) Scale {
	min, max, err := MinMax(xs)
	if err != nil || max == min {
		return Scale{Zero: true}
	}
	return Scale{Sub: min, Div: max - min}
}

// ColumnScratch is one column range's scratch for ColumnMedians: the
// current column's values by row and the rows in sorted order. The zero
// value is ready; ColumnMedians sizes it to the row count.
type ColumnScratch struct {
	vals  []float64
	order []int
}

// MemoryBytes is the scratch's retained memory, at capacity.
func (s *ColumnScratch) MemoryBytes() int64 {
	return int64(cap(s.vals)+cap(s.order)) * 8
}

// ColumnMedians writes to dst[c], for every column c in [lo, hi) of the
// equal-length rows (at least one), the median of that column, each row's
// value normalized by scales[r] as it is gathered. It is the combiner at
// the heart of Algorithm 1 (line 14). Columns are independent, so callers
// may run disjoint column ranges concurrently, each with its own scratch.
//
// The rows are density curves, which change little from one point to the
// next, so the rows stay in the previous column's sorted order and each
// column only insertion-sorts that nearly sorted order. Rows sort by value
// in sort.Float64s' order, equal values by row, so the middle values are
// the ones a stable sort of the column in row order (MedianInPlace, up to
// 32 rows) picks, signed zeros included.
func ColumnMedians(dst []float64, rows [][]float64, scales []Scale, lo, hi int, s *ColumnScratch) {
	n := len(rows)
	if cap(s.order) < n {
		// Room past the end keeps another range's scratch, which may sit
		// next to this one on the heap, off the cache lines this one writes.
		s.vals = make([]float64, n, n+8)
		s.order = make([]int, n, n+8)
	}
	vals, order := s.vals[:n], s.order[:n]
	for i := range order {
		order[i] = i
	}
	for c := lo; c < hi; c++ {
		for r, row := range rows {
			vals[r] = scales[r].Apply(row[c])
		}
		for i := 1; i < n; i++ {
			o := order[i]
			x := vals[o]
			j := i
			for ; j > 0; j-- {
				p := order[j-1]
				if y := vals[p]; !floatLess(x, y) && (floatLess(y, x) || p < o) {
					break
				}
				order[j] = order[j-1]
			}
			order[j] = o
		}
		if n%2 == 1 {
			dst[c] = vals[order[n/2]]
		} else {
			dst[c] = (vals[order[n/2-1]] + vals[order[n/2]]) / 2
		}
	}
}

// ColumnMeans is ColumnMedians with the per-column mean, the alternative
// combiner used by the ablation benchmarks: each column sums its
// normalized values in row order and multiplies by 1/len(rows).
func ColumnMeans(dst []float64, rows [][]float64, scales []Scale, lo, hi int) {
	inv := 1 / float64(len(rows))
	for c := lo; c < hi; c++ {
		sum := 0.0
		for r, row := range rows {
			sum += scales[r].Apply(row[c])
		}
		dst[c] = sum * inv
	}
}
