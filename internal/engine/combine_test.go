package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"egi/internal/grammar"
	"egi/internal/stat"
)

// combineOracle is the combination the column pass replaced, kept as its
// reference: copy each survivor, normalize the copy in place, then merge
// row by row (the median column by column, the mean by adding whole rows
// in order).
func combineOracle(memberCurves []MemberCurve, cfg Config) (*Result, error) {
	members := make([]Member, len(memberCurves))
	stds := make([]float64, len(memberCurves))
	for i, m := range memberCurves {
		members[i] = Member{Params: m.Params, Std: m.Std}
		stds[i] = m.Std
	}
	keep := min(max(int(cfg.Tau*float64(len(memberCurves))), 1), len(memberCurves))
	var kept [][]float64
	for _, idx := range stat.ArgSortDesc(stds)[:keep] {
		if stds[idx] <= 0 {
			continue
		}
		members[idx].Kept = true
		curve := append([]float64(nil), memberCurves[idx].Curve...)
		if cfg.Normalize == NormalizeMinMax {
			minMaxNormalizeOracle(curve)
		} else {
			normalizeByMaxOracle(curve)
		}
		kept = append(kept, curve)
	}
	if len(kept) == 0 {
		return nil, ErrNoUsableCurves
	}
	width := len(kept[0])
	curve := make([]float64, width)
	if cfg.Combine == CombineMean {
		for _, r := range kept {
			for c, v := range r {
				curve[c] += v
			}
		}
		inv := 1 / float64(len(kept))
		for c := range curve {
			curve[c] *= inv
		}
	} else {
		col := make([]float64, len(kept))
		for c := range curve {
			for r := range kept {
				col[r] = kept[r][c]
			}
			curve[c], _ = stat.MedianInPlace(col)
		}
	}
	cands, err := grammar.RankAnomalies(curve, cfg.Window, cfg.TopK)
	if err != nil {
		return nil, err
	}
	return &Result{Curve: curve, Candidates: cands, Members: members}, nil
}

func normalizeByMaxOracle(xs []float64) {
	m := stat.Max(xs)
	if m <= 0 || math.IsInf(m, -1) {
		return
	}
	for i := range xs {
		xs[i] /= m
	}
}

func minMaxNormalizeOracle(xs []float64) {
	min, max, err := stat.MinMax(xs)
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

// sameResultBits compares two combinations bit for bit: curve values and
// candidate densities by their bits, members exactly.
func sameResultBits(a, b *Result) bool {
	if len(a.Curve) != len(b.Curve) || len(a.Candidates) != len(b.Candidates) {
		return false
	}
	for i := range a.Curve {
		if math.Float64bits(a.Curve[i]) != math.Float64bits(b.Curve[i]) {
			return false
		}
	}
	for i, c := range a.Candidates {
		d := b.Candidates[i]
		if c.Pos != d.Pos || c.Length != d.Length || math.Float64bits(c.Density) != math.Float64bits(d.Density) {
			return false
		}
	}
	return reflect.DeepEqual(a.Members, b.Members)
}

// randomMembers draws n member curves of the given width: tie-heavy
// density-like values, with some members all zero or flat (a constant
// curve whose Std is still positive, as rounding can leave it) so both
// normalizers' degenerate rules run.
func randomMembers(rng *rand.Rand, n, width int) []MemberCurve {
	out := make([]MemberCurve, n)
	for i := range out {
		curve := make([]float64, width)
		std := 0.0
		switch rng.Intn(6) {
		case 0: // all zero
		case 1: // flat, positive
			for c := range curve {
				curve[c] = 0.1
			}
			std = 1e-17
		default:
			for c := range curve {
				curve[c] = float64(rng.Intn(5))
				if rng.Intn(4) == 0 {
					curve[c] += rng.Float64()
				}
			}
			std = stat.PopStd(curve)
		}
		if rng.Intn(8) == 0 {
			std = math.Floor(std) // ties in the selection statistic
		}
		out[i] = MemberCurve{Curve: curve, Std: std}
	}
	return out
}

// TestCombineMatchesOracle: the column pass equals the copy, normalize and
// merge combination bit for bit — curve, candidates and members — at
// Parallelism 1, 2, 3 and 8, widths below the worker count included, for
// both combiners and both normalizers, over members with flat and zero
// curves. The pooled engine combiner, reused across calls, agrees too.
func TestCombineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var pooled combiner
	for trial := 0; trial < 120; trial++ {
		width := []int{2, 3, 7, 40, 333}[trial%5]
		members := randomMembers(rng, 1+rng.Intn(12), width)
		for _, par := range []int{1, 2, 3, 8} {
			for _, comb := range []Combiner{CombineMedian, CombineMean} {
				for _, norm := range []Normalizer{NormalizeMax, NormalizeMinMax} {
					cfg := Config{
						Window:      2 + rng.Intn(width-1),
						Tau:         []float64{0.1, 0.4, 1}[rng.Intn(3)],
						TopK:        1 + rng.Intn(4),
						Combine:     comb,
						Normalize:   norm,
						Parallelism: par,
					}
					ctx := fmt.Sprintf("trial %d width %d", trial, width)
					want, werr := combineOracle(members, cfg)
					got, err := Combine(members, cfg)
					if !errors.Is(err, werr) || (err == nil && !sameResultBits(got, want)) {
						t.Fatalf("%s %+v: got %v (%v), oracle %v (%v)", ctx, cfg, got, err, want, werr)
					}
					ncfg, _ := cfg.Normalized()
					got, err = pooled.combine(members, ncfg)
					if !errors.Is(err, werr) || (err == nil && !sameResultBits(got, want)) {
						t.Fatalf("%s pooled %+v: got %v (%v), oracle %v (%v)", ctx, cfg, got, err, want, werr)
					}
				}
			}
		}
	}
}

// TestCombineUnequalCurves: survivors of different lengths are an error.
func TestCombineUnequalCurves(t *testing.T) {
	members := []MemberCurve{
		{Curve: []float64{0, 1, 2, 1}, Std: 1},
		{Curve: []float64{0, 1, 2}, Std: 1},
	}
	if _, err := Combine(members, Config{Window: 2, Tau: 1}); err == nil {
		t.Fatal("unequal survivor lengths accepted")
	}
}
