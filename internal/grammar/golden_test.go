package grammar_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"egi/internal/gen"
	"egi/internal/grammar"
	"egi/internal/paramselect"
	"egi/internal/rra"
	"egi/internal/sax"
	"egi/internal/timeseries"
)

// singleRunGoldenSHA256 is the digest of singleRunDump. It pins, bit for
// bit, everything the single-run detectors built on one member's
// discretize → induce → density path return: grammar.Detect's curve,
// candidates and grammar size (through a shared resolver and through one
// built per call), FindMotifs' rules and occurrences, rra.Detect's
// anomalies, paramselect.Select's scores and DiscretizeMany's tokens.
const singleRunGoldenSHA256 = "32e1f171d25bb08e02a47868ca950b747fc949d8f9e630a34fc8deffd7c696b5"

// goldenParams spans the paper's grid, its alphabet limit, and PAA sizes
// above sax.MaxPackedW (13, 14, 20), whose pipelines key words by string.
var goldenParams = []sax.Params{
	{W: 2, A: 2}, {W: 4, A: 4}, {W: 6, A: 6}, {W: 10, A: 10}, {W: 3, A: 20},
	{W: 12, A: 7}, {W: 13, A: 5}, {W: 14, A: 9}, {W: 20, A: 5},
}

// goldenSeries are two ECG-like and two random-walk series plus a constant
// one (a single token, no rules).
func goldenSeries(t *testing.T) map[string]timeseries.Series {
	t.Helper()
	out := map[string]timeseries.Series{}
	for _, seed := range []int64{1, 2} {
		ecg, err := gen.ECG(2000, 80, seed)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := gen.RandomWalk(2000, seed)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("ecg%d", seed)] = ecg
		out[fmt.Sprintf("rw%d", seed)] = rw
	}
	flat := make(timeseries.Series, 500)
	for i := range flat {
		flat[i] = 3.5
	}
	out["flat"] = flat
	return out
}

func putFloat(h hash.Hash, v float64) { fmt.Fprintf(h, "%x ", math.Float64bits(v)) }

func putResult(h hash.Hash, res *grammar.Result, err error) {
	if err != nil {
		fmt.Fprintln(h, "err")
		return
	}
	fmt.Fprintf(h, "%v rules=%d tokens=%d\n", res.Params, res.NumRules, res.NumTokens)
	for _, v := range res.Curve {
		putFloat(h, v)
	}
	for _, c := range res.Candidates {
		fmt.Fprintf(h, "\n%d+%d ", c.Pos, c.Length)
		putFloat(h, c.Density)
	}
	fmt.Fprintln(h)
}

// singleRunDump hashes the canonical dump of every single-run output.
func singleRunDump(t *testing.T) string {
	t.Helper()
	const n = 80
	h := sha256.New()
	series := goldenSeries(t)
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	shared, err := sax.NewMultiResolver(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		s := series[name]
		f, err := timeseries.NewFeatures(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range goldenParams {
			fmt.Fprintf(h, "series %s %v\n", name, p)
			res, err := grammar.DetectWithFeatures(f, n, p, shared, 3)
			putResult(h, res, err)
			res, err = grammar.Detect(s, n, p, nil, 5)
			putResult(h, res, err)

			motifs, err := grammar.FindMotifs(s, n, p, 4)
			if err != nil {
				fmt.Fprintln(h, "motifs err")
			}
			for _, m := range motifs {
				fmt.Fprintf(h, "motif %d %q %v\n", m.Rule, m.RuleString, m.Occurrences)
			}

			as, err := rra.Detect(s, rra.Config{Window: n, Params: p, TopK: 3, MaxCandidates: 40})
			if err != nil {
				fmt.Fprintln(h, "rra err")
			}
			for _, a := range as {
				fmt.Fprintf(h, "rra %d+%d freq=%d ", a.Pos, a.Length, a.RuleFreq)
				putFloat(h, a.Dist)
			}
			fmt.Fprintln(h)
		}

		toks, err := sax.DiscretizeMany(f, n, goldenParams, shared)
		if err != nil {
			t.Fatal(err)
		}
		for i, ts := range toks {
			fmt.Fprintf(h, "tokens %v %v\n", goldenParams[i], ts)
		}

		sel, err := paramselect.Select(s, paramselect.Config{Window: n, WMax: 14, AMax: 9, SampleFraction: 0.4})
		if err != nil {
			fmt.Fprintln(h, "select err")
			continue
		}
		fmt.Fprintf(h, "select %v ", sel.Params)
		putFloat(h, sel.Score)
		grid := make([]sax.Params, 0, len(sel.Grid))
		for p := range sel.Grid {
			grid = append(grid, p)
		}
		sort.Slice(grid, func(i, j int) bool {
			if grid[i].W != grid[j].W {
				return grid[i].W < grid[j].W
			}
			return grid[i].A < grid[j].A
		})
		for _, p := range grid {
			fmt.Fprintf(h, "%v=", p)
			putFloat(h, sel.Grid[p])
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSingleRunGolden pins the single-run detectors' outputs against a
// fixed digest (see singleRunGoldenSHA256).
func TestSingleRunGolden(t *testing.T) {
	if got := singleRunDump(t); got != singleRunGoldenSHA256 {
		t.Fatalf("single-run dump digest %s, want %s", got, singleRunGoldenSHA256)
	}
}
