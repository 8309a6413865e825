package sax

import (
	"fmt"
	"sort"
)

// MultiResolver implements the fast multi-resolution SAX word computation
// of §6.2.2. It merges the breakpoint tables of every alphabet size from 2
// to amax into a single sorted "summary" line; each interval between two
// consecutive merged breakpoints stores the symbol the interval maps to
// under every alphabet size. Resolving a PAA coefficient then costs one
// binary search over the merged breakpoints (O(log amax) comparisons, the
// paper's "at most 3 comparisons" for amax in the tens) and yields its
// symbol for *all* alphabet sizes at once.
//
// The symbol matrix is one flat table of 5-bit symbol codes ('a' is 1, the
// packed-word encoding of the pipelines' dictionaries), so CodeAt folds a
// word's packed code straight from its intervals without materializing
// the word; Symbol, EncodeWord and WordAt render bytes from the same
// table. Intervals takes its destination's previous contents as hints: a
// coefficient still inside its previous interval — the common case from
// one sliding window to the next — resolves in two comparisons.
type MultiResolver struct {
	amax   int
	merged []float64 // distinct breakpoints of all alphabets 2..amax, sorted
	codes  []uint8   // codes[k*(amax-1)+a-2] = symbol code of interval k under alphabet a
}

// mergeTolerance treats breakpoints closer than this as identical when
// building the summary line. Breakpoints are analytic quantiles of N(0,1),
// so genuinely distinct ones are far apart compared to this.
const mergeTolerance = 1e-9

// NewMultiResolver builds the resolver for alphabet sizes 2..amax.
func NewMultiResolver(amax int) (*MultiResolver, error) {
	if amax < 2 || amax > MaxAlphabet {
		return nil, fmt.Errorf("%w: amax=%d", ErrBadAlphabet, amax)
	}
	var all []float64
	tables := make([][]float64, amax+1) // tables[a] for a in 2..amax
	for a := 2; a <= amax; a++ {
		bps, err := Breakpoints(a)
		if err != nil {
			return nil, err
		}
		tables[a] = bps
		all = append(all, bps...)
	}
	sort.Float64s(all)
	merged := all[:0]
	for _, b := range all {
		if len(merged) == 0 || b-merged[len(merged)-1] > mergeTolerance {
			merged = append(merged, b)
		}
	}
	merged = append([]float64(nil), merged...)

	// Interval k holds coefficients in [merged[k-1], merged[k]) with the
	// convention that a coefficient equal to a breakpoint belongs to the
	// interval above it. The representative of interval k>=1 is its
	// inclusive lower bound merged[k-1]; interval 0 is (-inf, merged[0]).
	codes := make([]uint8, (len(merged)+1)*(amax-1))
	for k := 0; k <= len(merged); k++ {
		for a := 2; a <= amax; a++ {
			var sym int
			if k == 0 {
				sym = 0
			} else {
				lower := merged[k-1]
				bps := tables[a]
				// Count breakpoints <= lower (with tolerance: the identical
				// breakpoint may differ by < mergeTolerance across tables).
				sym = sort.Search(len(bps), func(i int) bool {
					return bps[i] > lower+mergeTolerance
				})
			}
			codes[k*(amax-1)+a-2] = uint8(sym + 1)
		}
	}
	return &MultiResolver{amax: amax, merged: merged, codes: codes}, nil
}

// AMax returns the largest alphabet size the resolver supports.
func (m *MultiResolver) AMax() int { return m.amax }

// Interval returns the summary-line interval index for coefficient c,
// using the same BoundaryTol tie-break as SymbolFor so the multi-resolution
// path and the plain breakpoint-table path agree near breakpoints. The
// binary search is hand-rolled (same result as sort.Search over
// merged[i] > c+BoundaryTol): this is the inner loop of every window's
// encoding, and the closure indirection of sort.Search is measurable there.
func (m *MultiResolver) Interval(c float64) int {
	t := c + BoundaryTol
	lo, hi := 0, len(m.merged)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.merged[mid] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Symbol returns the symbol byte for coefficient c under alphabet size a.
func (m *MultiResolver) Symbol(c float64, a int) (byte, error) {
	if a < 2 || a > m.amax {
		return 0, fmt.Errorf("%w: a=%d (resolver amax=%d)", ErrBadAlphabet, a, m.amax)
	}
	return m.symbol(m.Interval(c), a), nil
}

// symbol returns the symbol byte of interval k under alphabet size a.
func (m *MultiResolver) symbol(k, a int) byte {
	return 'a' - 1 + m.codes[k*(m.amax-1)+a-2]
}

// EncodeWord maps PAA coefficients to the SAX word under alphabet size a
// using the precomputed symbol matrix, writing into dst (len(coeffs) bytes).
func (m *MultiResolver) EncodeWord(coeffs []float64, a int, dst []byte) error {
	if a < 2 || a > m.amax {
		return fmt.Errorf("%w: a=%d (resolver amax=%d)", ErrBadAlphabet, a, m.amax)
	}
	if len(dst) != len(coeffs) {
		return fmt.Errorf("sax: dst length %d, want %d", len(dst), len(coeffs))
	}
	for i, c := range coeffs {
		dst[i] = m.symbol(m.Interval(c), a)
	}
	return nil
}

// Intervals resolves every coefficient to its summary-line interval index,
// writing into dst (len(coeffs) entries), and reports whether any entry
// changed. Intervals depend only on the coefficients, not the alphabet, so
// ensemble members sharing one PAA size resolve once and encode each
// alphabet with WordAt or CodeAt — the §6.2.2 symbol matrix split into its
// two halves.
//
// dst's current entries are hints: where dst[i] is still coeffs[i]'s
// interval (merged[k-1] <= c+BoundaryTol < merged[k]) it is kept after two
// comparisons, and anything else, an out-of-range index included, falls
// back to Interval's binary search. The result is Interval(coeffs[i]) for
// any hint, so a caller encoding consecutive sliding windows passes the
// previous window's intervals back in. moved is false exactly when dst
// is unchanged, that is, when every alphabet's word is the hints' word.
func (m *MultiResolver) Intervals(coeffs []float64, dst []int) (moved bool, err error) {
	if len(dst) != len(coeffs) {
		return false, fmt.Errorf("sax: dst length %d, want %d", len(dst), len(coeffs))
	}
	merged := m.merged
	for i, c := range coeffs {
		t := c + BoundaryTol
		if k := dst[i]; uint(k) <= uint(len(merged)) &&
			(k == 0 || merged[k-1] <= t) && (k == len(merged) || t < merged[k]) {
			continue
		}
		if k := m.Interval(c); k != dst[i] {
			dst[i] = k
			moved = true
		}
	}
	return moved, nil
}

// WordAt maps precomputed summary-line intervals (from Intervals) to the
// SAX word under alphabet size a, writing into dst (len(intervals) bytes).
// EncodeWord(coeffs, a, dst) == Intervals(coeffs, iv) + WordAt(iv, a, dst).
func (m *MultiResolver) WordAt(intervals []int, a int, dst []byte) error {
	if a < 2 || a > m.amax {
		return fmt.Errorf("%w: a=%d (resolver amax=%d)", ErrBadAlphabet, a, m.amax)
	}
	if len(dst) != len(intervals) {
		return fmt.Errorf("sax: dst length %d, want %d", len(dst), len(intervals))
	}
	for i, k := range intervals {
		dst[i] = m.symbol(k, a)
	}
	return nil
}

// CodeAt returns the packed code of the SAX word under alphabet size a of
// precomputed summary-line intervals (from Intervals): 5 bits per symbol,
// 'a' as 1, first symbol highest — the key a pipeline's dictionary stores
// for a word of up to MaxPackedW symbols (longer words overflow the code).
// It is the allocation-free twin of WordAt for the encoding hot path, and
// it panics on an alphabet size outside [2, AMax()].
func (m *MultiResolver) CodeAt(intervals []int, a int) uint64 {
	if a < 2 || a > m.amax {
		panic(fmt.Sprintf("sax: CodeAt alphabet %d outside [2, %d]", a, m.amax))
	}
	stride, col := m.amax-1, a-2
	var code uint64
	for _, k := range intervals {
		code = code<<5 | uint64(m.codes[k*stride+col])
	}
	return code
}

// WordMatrix returns, for one vector of PAA coefficients, the SAX words for
// every alphabet size from 2 to amax — the "symbol matrix" of Figure 6.
// Row i of the result is the word under alphabet size i+2.
func (m *MultiResolver) WordMatrix(coeffs []float64) []string {
	intervals := make([]int, len(coeffs))
	for i, c := range coeffs {
		intervals[i] = m.Interval(c)
	}
	out := make([]string, m.amax-1)
	buf := make([]byte, len(coeffs))
	for a := 2; a <= m.amax; a++ {
		for i, k := range intervals {
			buf[i] = m.symbol(k, a)
		}
		out[a-2] = string(buf)
	}
	return out
}
