package stream

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"egi/internal/gen"
)

// TestMemoryFootprintPlateaus: under sustained pushing the detector's
// footprint is monotone-bounded — it may only grow while buffers warm up
// to their steady-state capacities, and once the hop schedule has cycled a
// few times it never exceeds the plateau again, no matter how long the
// stream runs. This is the per-stream guarantee the serving layer's byte
// budget is built on.
func TestMemoryFootprintPlateaus(t *testing.T) {
	const (
		period = 40
		bufLen = 8 * period
	)
	// EnsembleSize exceeds the (w,a) grid (3x3 for WMax=AMax=4), so every
	// hop draws every combination and the pipeline map is fully populated
	// from the first run — the plateau then depends only on buffer
	// capacities, not on how long random draws take to visit the grid.
	series := sineSeries(60*bufLen, period, 3)
	d, err := New(Config{Window: period, BufLen: bufLen, EnsembleSize: 16, WMax: 4, AMax: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	if got := d.MemoryFootprint(); got <= 0 {
		t.Fatalf("fresh detector footprint = %d, want > 0", got)
	}

	// Structural bound, independent of stream length: every retained
	// buffer is O(BufLen) — the ring, the stitch region (BufLen+Window-1
	// averaged values), and per (w,a) combination a token pipeline plus a
	// member slot, each holding at most one token/word/curve entry per
	// window of the retained span. The factor 2 covers append's capacity
	// overshoot. If the footprint ever crossed this, some buffer would
	// have to be growing with the stream.
	const gridSize, wMax = 3 * 3, 4
	perEntry := int64(24 + wMax + 16 + 8) // token + word bytes + string header + curve value
	bound := int64((bufLen+1)*2*8) +      // ring
		int64(2*(bufLen+period)*2*8) + // stitch sum+cnt
		2*int64(gridSize)*int64(bufLen)*perEntry + // pipelines + slots
		1<<16 // fixed-size engine scratch

	// Push sixty full buffers, tracking the peak footprint of each half.
	half := len(series) / 2
	var firstPeak, secondPeak int64
	for i, x := range series {
		if err := d.Push(x); err != nil {
			t.Fatal(err)
		}
		got := d.MemoryFootprint()
		if got <= 0 {
			t.Fatalf("footprint %d at point %d, want > 0", got, i)
		}
		if got > bound {
			t.Fatalf("footprint %d at point %d exceeds structural bound %d", got, i, bound)
		}
		if i < half {
			if got > firstPeak {
				firstPeak = got
			}
		} else if got > secondPeak {
			secondPeak = got
		}
	}

	// Plateau: capacities ratchet toward their data-dependent maxima, so
	// the second half may still set small records (a new longest token
	// sequence), but the growth must be marginal — the footprint has
	// converged, not merely stayed under the structural bound.
	if secondPeak > firstPeak+firstPeak/20 {
		t.Fatalf("footprint still growing: first-half peak %d, second-half peak %d", firstPeak, secondPeak)
	}
}

// TestMemoryFootprintPlateausAmortized: the plateau guarantee holds with
// retained induction state at its largest — an overlapping hop schedule
// (amortized epochs spanning several runs) under an explicit rebase
// interval. The resumable builders' arenas, tables and fed-position
// records all ratchet to epoch-bounded capacities; if any of them grew
// with the stream instead, the second-half peak would keep climbing.
func TestMemoryFootprintPlateausAmortized(t *testing.T) {
	const (
		period = 40
		bufLen = 8 * period
		hop    = bufLen / 8 // overlapping spans: epochs really span runs
	)
	series := sineSeries(60*bufLen, period, 7)
	d, err := New(Config{
		Window:       period,
		BufLen:       bufLen,
		Hop:          hop,
		RebaseEvery:  3,
		EnsembleSize: 16,
		WMax:         4,
		AMax:         4,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Structural bound: as in TestMemoryFootprintPlateaus, plus the
	// induction state — per (w,a) combination a resumable grammar over at
	// most the epoch's tokens (bounded by K+1 spans of windows, ~40 bytes
	// of arena node and ~90 bytes of table entries per token at the
	// accounting constants) and the fed-position record (8 bytes per
	// token). The factor 2 covers capacity overshoot and arena-block
	// rounding.
	const gridSize, wMax, rebaseK = 3 * 3, 4, 3
	perEntry := int64(24 + wMax + 16 + 8)
	epochTokens := int64((rebaseK + 1) * bufLen)
	bound := int64((bufLen+1)*2*8) +
		int64(2*(bufLen+period)*2*8) +
		2*int64(gridSize)*int64(bufLen)*perEntry +
		2*int64(gridSize)*epochTokens*(40+90+8) +
		1<<16

	half := len(series) / 2
	var firstPeak, secondPeak int64
	for i, x := range series {
		if err := d.Push(x); err != nil {
			t.Fatal(err)
		}
		got := d.MemoryFootprint()
		if got <= 0 {
			t.Fatalf("footprint %d at point %d, want > 0", got, i)
		}
		if got > bound {
			t.Fatalf("footprint %d at point %d exceeds structural bound %d", got, i, bound)
		}
		if i < half {
			if got > firstPeak {
				firstPeak = got
			}
		} else if got > secondPeak {
			secondPeak = got
		}
	}
	if secondPeak > firstPeak+firstPeak/20 {
		t.Fatalf("footprint still growing: first-half peak %d, second-half peak %d", firstPeak, secondPeak)
	}
}

// TestMemoryFootprintCountsComponents: the roll-up is at least the sum of
// its two precisely-known parts (ring + stitch buffers), the engine
// contribution appears once pipelines exist, and the resumable induction
// state is part of the accounting.
func TestMemoryFootprintCountsComponents(t *testing.T) {
	const period = 30
	d, err := New(Config{Window: period, EnsembleSize: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fresh := d.MemoryFootprint()
	series := sineSeries(25*period, period, 9)
	for _, x := range series {
		if err := d.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	warm := d.MemoryFootprint()
	if warm <= fresh {
		t.Fatalf("footprint did not grow with pipeline state: fresh %d, warm %d", fresh, warm)
	}
	ring := d.ring.MemoryBytes()
	if warm < ring {
		t.Fatalf("footprint %d smaller than its ring component %d", warm, ring)
	}
}

// TestMemoryFootprintPlateausHighEntropy: the plateau guarantee on a
// stream whose vocabulary never settles. A sine through a 4×4 grid yields
// at most 256 distinct words, so it cannot catch a per-pipeline word
// dictionary that never shrinks; a random walk with noise through the
// paper's 9×9 grid keeps producing new words for as long as it runs. At
// the default hop and at hop 100 the footprint must converge, and right
// after every rebase each member pipeline's dictionary must be compacted
// to at most twice its retained tokens plus 64 words.
func TestMemoryFootprintPlateausHighEntropy(t *testing.T) {
	const (
		window  = 100
		bufLen  = 1000
		batch   = 2000
		batches = 60
	)
	rng := rand.New(rand.NewSource(17))
	series := make([]float64, batch*batches)
	walk := 0.0
	for i := range series {
		walk += rng.NormFloat64()
		series[i] = walk + 0.5*rng.NormFloat64()
	}

	var rebases, violations atomic.Int64
	var worst atomic.Value // string: the first violation seen
	hook := func(vocab, retained int) {
		rebases.Add(1)
		if vocab > 2*retained+64 && violations.Add(1) == 1 {
			worst.Store(fmt.Sprintf("vocabulary %d with %d retained tokens", vocab, retained))
		}
	}

	for _, hop := range []int{0, 100} {
		rebases.Store(0)
		d, err := New(Config{Window: window, BufLen: bufLen, Hop: hop, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		d.eng.SetRebaseHook(hook)
		// The footprint follows the data — live digram and dictionary
		// entries rise and fall with the walk's local entropy — so it
		// fluctuates around its plateau rather than ratcheting up to it.
		// Converged means the second half's mean is no higher than the
		// first half's (after two warm-up batches), and no spike in the
		// second half exceeds the first half's peak by more than 10%.
		var sum, peak [2]float64
		for b := 0; b < batches; b++ {
			if err := d.PushBatch(series[b*batch : (b+1)*batch]); err != nil {
				t.Fatal(err)
			}
			if b < 2 {
				continue
			}
			half, got := b*2/batches, float64(d.MemoryFootprint())
			sum[half] += got
			peak[half] = max(peak[half], got)
		}
		mean := [2]float64{sum[0] / (batches/2 - 2), sum[1] / (batches / 2)}
		t.Logf("hop %d: footprint mean %.2f MB then %.2f MB, peak %.2f MB then %.2f MB; %d rebases",
			hop, mean[0]/1e6, mean[1]/1e6, peak[0]/1e6, peak[1]/1e6, rebases.Load())
		if mean[1] > mean[0]*1.05 || peak[1] > peak[0]*1.10 {
			t.Errorf("hop %d: footprint still growing: mean %.0f then %.0f, peak %.0f then %.0f", hop, mean[0], mean[1], peak[0], peak[1])
		}
		if rebases.Load() == 0 {
			t.Errorf("hop %d: no rebase observed", hop)
		}
	}
	if n := violations.Load(); n > 0 {
		t.Fatalf("%d rebases left an uncompacted dictionary, first: %s", n, worst.Load())
	}
}

// TestStreamFootprintBudget pins what a serving-sized stream holds: a
// Window 100, BufLen 1000 detector over an ECG-like series, at the default
// hop (every span rebases, no member keeps a grammar) and at hop 100
// (members keep their grammars between runs). From the tenth run on, its
// footprint must stay within 15% of the value measured when the budget
// was set, so a change that makes member state bigger again shows here.
func TestStreamFootprintBudget(t *testing.T) {
	series, err := gen.ECG(14000, 150, 27)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		hop      int
		measured int64 // bytes, the peak from the tenth run on
	}{
		{0, 1_034_004},
		{100, 3_914_700},
	} {
		d, err := New(Config{Window: 100, BufLen: 1000, Hop: tc.hop, Seed: 3, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		var peak int64
		for _, x := range series {
			if err := d.Push(x); err != nil {
				t.Fatal(err)
			}
			if d.Runs() >= 10 {
				peak = max(peak, d.MemoryFootprint())
			}
		}
		t.Logf("hop %d: %d runs, peak footprint %d bytes from the tenth run on", tc.hop, d.Runs(), peak)
		if d.Runs() < 10 {
			t.Fatalf("hop %d: only %d runs", tc.hop, d.Runs())
		}
		if budget := tc.measured + tc.measured*15/100; peak > budget {
			t.Errorf("hop %d: footprint peaked at %d bytes, budget %d (measured %d + 15%%)", tc.hop, peak, budget, tc.measured)
		}
	}
}
