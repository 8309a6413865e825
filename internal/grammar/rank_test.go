package grammar

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"egi/internal/gen"
	"egi/internal/sax"
)

// rankAnomaliesOracle is the ranking RankAnomalies replaced, kept as its
// reference: a stable ascending argsort of every window score, then a
// greedy scan that accepts each window overlapping no accepted one.
func rankAnomaliesOracle(curve []float64, n, topK int) ([]Candidate, error) {
	if topK < 1 {
		return nil, ErrBadTopK
	}
	scores, err := WindowScores(curve, n)
	if err != nil {
		return nil, err
	}
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
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

// tieCurve draws a finite curve of length l whose values come mostly from
// a small pool, ±0 included, so window scores tie often.
func tieCurve(rng *rand.Rand, l int) []float64 {
	pool := []float64{0, math.Copysign(0, -1), 1, 2, 0.5, 3}
	curve := make([]float64, l)
	for i := range curve {
		if rng.Intn(5) == 0 {
			curve[i] = rng.Float64() * 4
		} else {
			curve[i] = pool[rng.Intn(len(pool))]
		}
	}
	return curve
}

// sameCandidates compares two rankings position for position, densities
// bit for bit.
func sameCandidates(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Pos != b[i].Pos || a[i].Length != b[i].Length ||
			math.Float64bits(a[i].Density) != math.Float64bits(b[i].Density) {
			return false
		}
	}
	return true
}

// TestRankAnomaliesMatchesOracle: over finite curves with many ties and
// ±0, windows of 1, 2, a third of the curve and the whole curve, and topK
// from 1 up to more candidates than fit, the K-pass ranking returns
// exactly the stable-sort ranking.
func TestRankAnomaliesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		l := 1 + rng.Intn(120)
		curve := tieCurve(rng, l)
		for _, n := range []int{1, 2, max(l/3, 1), l} {
			if n > l {
				continue
			}
			for topK := 1; topK <= l/n+2; topK++ {
				want, werr := rankAnomaliesOracle(curve, n, topK)
				got, err := RankAnomalies(curve, n, topK)
				if !reflect.DeepEqual(err, werr) || !sameCandidates(got, want) {
					t.Fatalf("len %d n=%d topK=%d: got %v (%v), oracle %v (%v)\ncurve %v", l, n, topK, got, err, want, werr, curve)
				}
			}
		}
	}
}

// FuzzRankAnomalies is the differential form of
// TestRankAnomaliesMatchesOracle: each byte picks one finite curve value
// (a tie-heavy pool, ±0 included, or a small multiple of 1/16), and the
// window and topK are folded onto the valid ranges.
func FuzzRankAnomalies(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(2), uint8(3))
	f.Add([]byte{9, 9, 9, 9, 9, 9}, uint8(1), uint8(10))
	f.Add([]byte{1}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, nRaw, topKRaw uint8) {
		if len(data) == 0 {
			return
		}
		pool := []float64{0, math.Copysign(0, -1), 1, 2, 0.5}
		curve := make([]float64, len(data))
		for i, b := range data {
			if int(b) < len(pool) {
				curve[i] = pool[b]
			} else {
				curve[i] = float64(b) / 16
			}
		}
		n := 1 + int(nRaw)%len(curve)
		topK := 1 + int(topKRaw)%(len(curve)/n+2)
		want, werr := rankAnomaliesOracle(curve, n, topK)
		got, err := RankAnomalies(curve, n, topK)
		if !reflect.DeepEqual(err, werr) || !sameCandidates(got, want) {
			t.Fatalf("n=%d topK=%d: got %v (%v), oracle %v (%v)\ncurve %v", n, topK, got, err, want, werr, curve)
		}
	})
}

// BenchmarkRankAnomalies ranks the top 3 of a 49,801-score curve: the
// single-run (6,6) rule density curve of gen.ECG(50000, 200, 1) with the
// paper's window of 200, the size batch Detect ranks on that series.
func BenchmarkRankAnomalies(b *testing.B) {
	s, err := gen.ECG(50000, 200, 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Detect(s, 200, sax.Params{W: 6, A: 6}, nil, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := RankAnomalies(res.Curve, 200, 3); err != nil {
			b.Fatal(err)
		}
	}
}
