package stat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarAndStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Population variance of this classic example is 4.
	if got := PopStd(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("PopStd = %v, want 2", got)
	}
	wantVar := 32.0 / 7.0
	if got := Var(xs); !almostEq(got, wantVar, 1e-12) {
		t.Errorf("Var = %v, want %v", got, wantVar)
	}
	if got := Std(xs); !almostEq(got, math.Sqrt(wantVar), 1e-12) {
		t.Errorf("Std = %v, want %v", got, math.Sqrt(wantVar))
	}
	if got := Var([]float64{3}); got != 0 {
		t.Errorf("Var of singleton = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	if _, _, err := MinMax(nil); err == nil {
		t.Fatal("MinMax(nil) should error")
	}
	min, max, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil || min != -1 || max != 7 {
		t.Errorf("MinMax = (%v,%v,%v), want (-1,7,nil)", min, max, err)
	}
}

func TestMedian(t *testing.T) {
	if _, err := Median(nil); err == nil {
		t.Fatal("Median(nil) should error")
	}
	odd := []float64{9, 1, 5}
	m, err := Median(odd)
	if err != nil || m != 5 {
		t.Errorf("Median(odd) = %v, want 5", m)
	}
	// Median must not reorder its input.
	if odd[0] != 9 || odd[1] != 1 || odd[2] != 5 {
		t.Errorf("Median modified its input: %v", odd)
	}
	even := []float64{4, 1, 3, 2}
	m, _ = Median(even)
	if m != 2.5 {
		t.Errorf("Median(even) = %v, want 2.5", m)
	}
}

func TestArgSort(t *testing.T) {
	xs := []float64{0.3, 0.9, 0.1, 0.9}
	desc := ArgSortDesc(xs)
	want := []int{1, 3, 0, 2} // stable: the first 0.9 comes first
	for i := range want {
		if desc[i] != want[i] {
			t.Fatalf("ArgSortDesc = %v, want %v", desc, want)
		}
	}
}

func TestArgSortPropertySorted(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) {
				xs[i] = 0
			}
		}
		idx := ArgSortDesc(xs)
		if len(idx) != len(xs) {
			return false
		}
		seen := make(map[int]bool, len(idx))
		for i := 1; i < len(idx); i++ {
			if xs[idx[i-1]] < xs[idx[i]] {
				return false
			}
		}
		for _, i := range idx {
			if seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZNormalize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	z := ZNormalize(xs, 1e-9)
	if !almostEq(Mean(z), 0, 1e-12) {
		t.Errorf("mean after znorm = %v", Mean(z))
	}
	if !almostEq(PopStd(z), 1, 1e-12) {
		t.Errorf("popstd after znorm = %v", PopStd(z))
	}
	// Constant input maps to zeros, not NaNs.
	flat := ZNormalize([]float64{7, 7, 7}, 1e-9)
	for _, v := range flat {
		if v != 0 {
			t.Errorf("constant znorm = %v, want zeros", flat)
		}
	}
}

func TestZNormalizeIntoMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	ZNormalizeInto(make([]float64, 2), make([]float64, 3), 1e-9)
}

func TestZNormalizeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		z := ZNormalize(xs, 1e-9)
		if PopStd(xs) < 1e-9 {
			for _, v := range z {
				if v != 0 {
					return false
				}
			}
			return true
		}
		return almostEq(Mean(z), 0, 1e-6) && almostEq(PopStd(z), 1, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGaussianBreakpoints(t *testing.T) {
	if _, err := GaussianBreakpoints(1); err == nil {
		t.Fatal("a=1 should error")
	}
	// Classic SAX table values (Lin et al. 2007).
	want := map[int][]float64{
		2: {0},
		3: {-0.43, 0.43},
		4: {-0.67, 0, 0.67},
		5: {-0.84, -0.25, 0.25, 0.84},
	}
	for a, bps := range want {
		got, err := GaussianBreakpoints(a)
		if err != nil {
			t.Fatalf("a=%d: %v", a, err)
		}
		if len(got) != a-1 {
			t.Fatalf("a=%d: %d breakpoints, want %d", a, len(got), a-1)
		}
		for i := range bps {
			if !almostEq(got[i], bps[i], 0.005) {
				t.Errorf("a=%d breakpoint %d = %v, want %v", a, i, got[i], bps[i])
			}
		}
	}
}

func TestGaussianBreakpointsProperties(t *testing.T) {
	for a := 2; a <= 30; a++ {
		bps, err := GaussianBreakpoints(a)
		if err != nil {
			t.Fatal(err)
		}
		if !sort.Float64sAreSorted(bps) {
			t.Fatalf("a=%d: breakpoints not sorted: %v", a, bps)
		}
		// Symmetry of the standard normal: bps[i] == -bps[a-2-i].
		for i := range bps {
			if !almostEq(bps[i], -bps[len(bps)-1-i], 1e-9) {
				t.Fatalf("a=%d: breakpoints not symmetric: %v", a, bps)
			}
		}
	}
}

// scaled applies sc to a copy of xs.
func scaled(xs []float64, sc Scale) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = sc.Apply(x)
	}
	return out
}

// identity returns n scales that leave values unchanged.
func identity(n int) []Scale {
	out := make([]Scale, n)
	for i := range out {
		out[i] = Scale{Div: 1}
	}
	return out
}

func TestNormalizeByMax(t *testing.T) {
	xs := []float64{0, 2, 4}
	got := scaled(xs, MaxScale(xs))
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("MaxScale = %v, want %v", got, want)
		}
	}
	// Zeros stay exactly zero.
	if got[0] != 0 {
		t.Error("zero not preserved")
	}
	// All-zero and negative curves unchanged, bit for bit.
	for _, flat := range [][]float64{{0, 0}, {math.Copysign(0, -1), -3}} {
		z := scaled(flat, MaxScale(flat))
		for i := range flat {
			if math.Float64bits(z[i]) != math.Float64bits(flat[i]) {
				t.Errorf("non-positive curve %v changed: %v", flat, z)
			}
		}
	}
}

func TestMinMaxNormalize(t *testing.T) {
	xs := []float64{1, 2, 3}
	got := scaled(xs, MinMaxScale(xs))
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("MinMaxScale = %v, want %v", got, want)
		}
	}
	flat := []float64{4, 4}
	if z := scaled(flat, MinMaxScale(flat)); z[0] != 0 || z[1] != 0 {
		t.Errorf("constant minmax = %v, want zeros", z)
	}
	// The property the paper cares about: min-max moves a nonzero minimum to
	// zero, i.e. it does NOT preserve the meaning of zero density.
	pair := []float64{1, 2}
	if shifted := scaled(pair, MinMaxScale(pair)); shifted[0] != 0 {
		t.Errorf("expected min-max to map min to 0, got %v", shifted)
	}
}

func TestColumnMedians(t *testing.T) {
	rows := [][]float64{
		{1, 10, 0},
		{2, 20, 5},
		{3, 30, 100},
	}
	got := make([]float64, 3)
	var scratch ColumnScratch
	ColumnMedians(got, rows, identity(len(rows)), 0, 3, &scratch)
	want := []float64{2, 20, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ColumnMedians = %v, want %v", got, want)
		}
	}
	// Values are scaled as they are gathered, and only [lo, hi) is written.
	scales := []Scale{{Div: 1}, {Div: 4}, {Zero: true}}
	part := []float64{-1, -1, -1}
	ColumnMedians(part, rows, scales, 1, 3, &scratch)
	if part[0] != -1 || part[1] != 5 || part[2] != 0 {
		t.Fatalf("scaled ColumnMedians over [1,3) = %v, want [-1 5 0]", part)
	}
}

func TestColumnMeans(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}}
	got := make([]float64, 2)
	ColumnMeans(got, rows, identity(len(rows)), 0, 2)
	if got[0] != 2 || got[1] != 3 {
		t.Fatalf("ColumnMeans = %v, want [2 3]", got)
	}
	part := []float64{-1, -1}
	ColumnMeans(part, rows, []Scale{{Div: 2}, {Sub: 1, Div: 1}}, 1, 2)
	if part[0] != -1 || part[1] != 2 {
		t.Fatalf("scaled ColumnMeans over [1,2) = %v, want [-1 2]", part)
	}
}

// TestColumnMediansProperty: over rows that change little from column to
// column (the shape of density curves, which the kernel's carried sort
// order relies on) and rows drawn afresh, with heavy ties, ±0, ±Inf and
// NaN, every column's median is bit for bit the median of the gathered
// column (MedianInPlace), whatever the split into column ranges.
func TestColumnMediansProperty(t *testing.T) {
	pool := []float64{math.NaN(), math.Copysign(0, -1), 0, 1, -1, 0.5, 0.5, 0.25, math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(1))
	var scratch ColumnScratch
	for trial := 0; trial < 400; trial++ {
		nRows := 1 + rng.Intn(insertionMax)
		width := 1 + rng.Intn(40)
		rows := make([][]float64, nRows)
		for r := range rows {
			rows[r] = make([]float64, width)
			v := pool[rng.Intn(len(pool))]
			for c := range rows[r] {
				if trial%2 == 0 || rng.Intn(6) == 0 {
					if rng.Intn(4) == 0 {
						v = rng.NormFloat64()
					} else {
						v = pool[rng.Intn(len(pool))]
					}
				}
				rows[r][c] = v
			}
		}
		med := make([]float64, width)
		split := rng.Intn(width + 1)
		ColumnMedians(med, rows, identity(nRows), split, width, &scratch)
		ColumnMedians(med, rows, identity(nRows), 0, split, &scratch)
		for c := 0; c < width; c++ {
			col := make([]float64, nRows)
			for r := range rows {
				col[r] = rows[r][c]
			}
			want, _ := MedianInPlace(col)
			if math.Float64bits(med[c]) != math.Float64bits(want) {
				t.Fatalf("trial %d column %d median = %v, want %v", trial, c, med[c], want)
			}
		}
	}
}

// TestSortFloatsMatchesSort is a differential test of the combiner's sort
// against sort.Float64s, the reference it replaces: for n = 1..40 (both
// sides of insertionMax), over values drawn with heavy ties, ±0, ±Inf and
// NaN, the two sorted slices agree position by position (NaN with NaN,
// numbers by ==, so ±0 count as one value, as they do under the order)
// and so do the medians.
func TestSortFloatsMatchesSort(t *testing.T) {
	pool := []float64{math.NaN(), math.Copysign(0, -1), 0, 1, -1, 0.5, 0.5, 0.25, math.Inf(1), math.Inf(-1)}
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 40; n++ {
		for trial := 0; trial < 200; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				if rng.Intn(4) == 0 {
					xs[i] = rng.NormFloat64()
				} else {
					xs[i] = pool[rng.Intn(len(pool))]
				}
			}
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			got := append([]float64(nil), xs...)
			sortFloats(got)
			for i := range want {
				if !same(got[i], want[i]) {
					t.Fatalf("n=%d %v: position %d = %v, sort.Float64s %v", n, xs, i, got[i], want[i])
				}
			}
			ref := want[n/2]
			if n%2 == 0 {
				ref = (want[n/2-1] + want[n/2]) / 2
			}
			if m := medianInPlace(append([]float64(nil), xs...)); !same(m, ref) {
				t.Fatalf("n=%d %v: median %v, reference %v", n, xs, m, ref)
			}
		}
	}
}
