package core

import (
	"math"
	"math/rand"
	"testing"

	"egi/internal/grammar"
	"egi/internal/sax"
	"egi/internal/timeseries"
)

// TestComputeMembersOrderMatchesGenerateParams pins what the engine's
// allocation-free member draw only claims in a comment: its (w,a) order
// is exactly GenerateParams over a generator seeded with cfg.Seed, for
// grids smaller than the ensemble, PAA caps beyond the window and the
// full 26-letter alphabet. Stage-by-stage reconstructions of Detect
// (perfbench's traced batch run) rely on that order.
func TestComputeMembersOrderMatchesGenerateParams(t *testing.T) {
	s := noisyPeriodic(300, 25, 150, 4)
	f, err := timeseries.NewFeatures(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name                     string
		window, size, wmax, amax int
	}{
		{"paper grid", 100, 50, 10, 10},
		{"size beyond grid", 100, 10, 3, 4},
		{"wmax beyond window", 5, 20, 10, 6},
		{"full alphabet", 60, 50, 10, 26},
	} {
		for _, seed := range []int64{0, 1, 7, 42, -3} {
			cfg := Config{Window: g.window, Size: g.size, WMax: g.wmax, AMax: g.amax, Seed: seed}
			members, err := ComputeMembers(f, cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", g.name, seed, err)
			}
			want := GenerateParams(rand.New(rand.NewSource(seed)), g.size, g.wmax, g.amax, g.window)
			got := make([]sax.Params, len(members))
			for i, m := range members {
				got[i] = m.Params
			}
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d members, GenerateParams gives %d", g.name, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: member %d is %v, GenerateParams gives %v", g.name, seed, i, got[i], want[i])
				}
			}
		}
	}
}

func TestComputeMembersMatchesDetect(t *testing.T) {
	s := noisyPeriodic(1500, 50, 700, 31)
	cfg := DefaultConfig(50)
	cfg.Size = 15
	cfg.Seed = 9

	direct, err := Detect(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := timeseries.NewFeatures(s)
	if err != nil {
		t.Fatal(err)
	}
	members, err := ComputeMembers(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := CombineMembers(members, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Curve) != len(combined.Curve) {
		t.Fatal("curve lengths differ")
	}
	for i := range direct.Curve {
		if direct.Curve[i] != combined.Curve[i] {
			t.Fatalf("split pipeline diverges from Detect at %d", i)
		}
	}
	for i := range direct.Candidates {
		if direct.Candidates[i] != combined.Candidates[i] {
			t.Fatalf("candidate %d differs", i)
		}
	}
}

func TestComputeMembersProperties(t *testing.T) {
	s := noisyPeriodic(1200, 40, 600, 8)
	f, _ := timeseries.NewFeatures(s)
	cfg := DefaultConfig(40)
	cfg.Size = 12
	members, err := ComputeMembers(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 12 {
		t.Fatalf("got %d members, want 12", len(members))
	}
	seen := map[string]bool{}
	for _, m := range members {
		if len(m.Curve) != len(s) {
			t.Errorf("member %v curve length %d", m.Params, len(m.Curve))
		}
		if m.Std < 0 || math.IsNaN(m.Std) {
			t.Errorf("member %v std %v", m.Params, m.Std)
		}
		for _, v := range m.Curve {
			if v < 0 {
				t.Fatalf("member %v has negative density", m.Params)
			}
		}
		key := m.Params.String()
		if seen[key] {
			t.Errorf("duplicate member params %v", m.Params)
		}
		seen[key] = true
	}
}

func TestCombineMembersSubsetsBehaveLikeSmallerEnsembles(t *testing.T) {
	// A prefix subset of the shuffled member list is a valid random
	// ensemble of that size: combining must succeed for every N.
	s := noisyPeriodic(1500, 50, 700, 12)
	f, _ := timeseries.NewFeatures(s)
	cfg := DefaultConfig(50)
	cfg.Size = 30
	members, err := ComputeMembers(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 5, 10, 30} {
		res, err := CombineMembers(members[:n], cfg)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		for _, v := range res.Curve {
			if v < 0 || v > 1 {
				t.Fatalf("N=%d: curve value %v outside [0,1]", n, v)
			}
		}
	}
	if _, err := CombineMembers(nil, cfg); err == nil {
		t.Error("no members should error")
	}
}

func TestCombineMembersTauExtremes(t *testing.T) {
	s := noisyPeriodic(1000, 40, 500, 3)
	f, _ := timeseries.NewFeatures(s)
	cfg := DefaultConfig(40)
	cfg.Size = 20
	members, err := ComputeMembers(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// tau so small that only one curve survives.
	small := cfg
	small.Tau = 0.01
	res, err := CombineMembers(members, small)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, m := range res.Members {
		if m.Kept {
			kept++
		}
	}
	if kept != 1 {
		t.Errorf("tau=0.01 kept %d members, want 1", kept)
	}
	// tau = 1 keeps every non-degenerate curve.
	full := cfg
	full.Tau = 1
	res, err = CombineMembers(members, full)
	if err != nil {
		t.Fatal(err)
	}
	kept = 0
	for _, m := range res.Members {
		if m.Kept {
			kept++
		}
	}
	if kept < len(members)/2 {
		t.Errorf("tau=1 kept only %d of %d members", kept, len(members))
	}
}

// TestSingleRunEqualsMember states the one-path contract: the single-run
// detector is one ensemble member of Algorithm 1, so for every (w,a) the
// ensemble draws, grammar.Detect's curve over the whole series equals that
// member's raw rule density curve bit for bit — across the paper's grid, a
// grid reaching PAA sizes above sax.MaxPackedW, and the full alphabet.
func TestSingleRunEqualsMember(t *testing.T) {
	s := noisyPeriodic(1500, 50, 700, 31)
	f, err := timeseries.NewFeatures(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Window: 50, Size: 50, WMax: 10, AMax: 10, Seed: 9},
		{Window: 50, Size: 30, WMax: 14, AMax: 6, Seed: 4},
		{Window: 30, Size: 20, WMax: 8, AMax: 26, Seed: 1},
	} {
		members, err := ComputeMembers(f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mr, err := sax.NewMultiResolver(cfg.AMax)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range members {
			res, err := grammar.DetectWithFeatures(f, cfg.Window, m.Params, mr, 1)
			if err != nil {
				t.Fatalf("%v: %v", m.Params, err)
			}
			if len(res.Curve) != len(m.Curve) {
				t.Fatalf("%v: single-run curve has %d points, member %d", m.Params, len(res.Curve), len(m.Curve))
			}
			for i := range m.Curve {
				if math.Float64bits(res.Curve[i]) != math.Float64bits(m.Curve[i]) {
					t.Fatalf("window %d %v: single-run curve[%d] = %v, member %v", cfg.Window, m.Params, i, res.Curve[i], m.Curve[i])
				}
			}
		}
	}
}
