package sax

import (
	"reflect"
	"testing"

	"egi/internal/timeseries"
)

// FuzzSAXDiscretize feeds arbitrary series and parameter choices through
// the shared Encoder — the production window walk with hinted Intervals
// and packed CodeAt codes — and asserts, for every input that validates:
// no panics, agreement with the unaccelerated reference discretizer
// (NaiveDiscretize), numerosity-reduction losslessness (expanding the
// token sequence reproduces one word per sliding window with the original
// run structure), and that a pipeline joining the same walk halfway holds
// the reduction of the words from its first window on. Invalid inputs must
// come back as errors. Each input byte becomes one sample on a small grid,
// so the fuzzer can build flat stretches (the Eps path) as well as noise.
func FuzzSAXDiscretize(f *testing.F) {
	f.Add([]byte("\x00\x10\x20\x30\x40\x50\x60\x70\x80\x90"), uint8(5), uint8(3), uint8(4))
	f.Add([]byte("aaaaaaaaaaaaaaaa"), uint8(4), uint8(2), uint8(2))
	f.Add([]byte("abcabcabcabcabc"), uint8(6), uint8(6), uint8(10))
	f.Add([]byte{0, 255, 0, 255, 0, 255, 0, 255}, uint8(3), uint8(2), uint8(26))
	f.Add([]byte{}, uint8(2), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, nRaw, wRaw, aRaw uint8) {
		if len(data) == 0 {
			return
		}
		series := make(timeseries.Series, len(data))
		for i, b := range data {
			series[i] = float64(b)/16 - 8
		}
		// Map the raw fuzz bytes onto the valid grid; out-of-grid values
		// exercise the error paths below instead.
		n := int(nRaw)
		w := int(wRaw)
		a := int(aRaw)
		p := Params{W: w, A: a}

		f2, err := timeseries.NewFeatures(series)
		if err != nil {
			t.Fatalf("features over finite data: %v", err)
		}
		mr, mrErr := NewMultiResolver(a)
		if n <= 0 || n > len(series) || p.Validate(n) != nil || mrErr != nil {
			// Invalid inputs must be rejected, never panic.
			if mrErr == nil {
				if _, err := encodeSeries(f2, n, p, mr); err == nil {
					t.Fatalf("invalid n=%d p=%v accepted", n, p)
				}
			}
			if _, err := NaiveDiscretize(series, n, p); err == nil {
				t.Fatalf("invalid n=%d p=%v accepted by naive", n, p)
			}
			return
		}

		numWin := len(series) - n + 1
		enc, err := NewEncoder(mr, n, w)
		if err != nil {
			t.Fatalf("NewEncoder n=%d w=%d: %v", n, w, err)
		}
		seq, late := NewIncrementalSeq(p, 0), NewIncrementalSeq(p, numWin/2)
		if err := enc.Encode(f2, []*IncrementalSeq{late, seq}, numWin-1); err != nil {
			t.Fatalf("Encode n=%d p=%v: %v", n, p, err)
		}
		fast := seq.State().Tokens
		naive, err := NaiveDiscretize(series, n, p)
		if err != nil {
			t.Fatalf("NaiveDiscretize n=%d p=%v: %v", n, p, err)
		}
		// The fast and naive paths compute each PAA coefficient by
		// different summation orders, so a coefficient landing exactly ON
		// a breakpoint arrives at the comparison with different last-ulp
		// noise (this fuzzer found a 16-point window whose single w=1
		// coefficient is the 0.0 middle breakpoint of a=16). The shared
		// BoundaryTol tie-break absorbs that noise, so fast and naive now
		// agree unconditionally; see TestBreakpointTieRegression for the
		// promoted finding.
		if len(fast) != len(naive) {
			t.Fatalf("n=%d p=%v: %d tokens fast vs %d naive", n, p, len(fast), len(naive))
		}
		for i := range fast {
			if fast[i] != naive[i] {
				t.Fatalf("n=%d p=%v token %d: fast=%v naive=%v", n, p, i, fast[i], naive[i])
			}
		}

		// Numerosity reduction round-trips: the expansion has one word
		// per window, each of length w, and re-reducing it gives the
		// token sequence back.
		words, err := ExpandNumerosity(fast, numWin)
		if err != nil {
			t.Fatalf("ExpandNumerosity: %v", err)
		}
		if len(words) != numWin {
			t.Fatalf("expansion has %d words, want %d", len(words), numWin)
		}
		for i, word := range words {
			if len(word) != w {
				t.Fatalf("window %d word %q has length %d, want %d", i, word, len(word), w)
			}
			for _, c := range word {
				if c < 'a' || c >= rune('a'+a) {
					t.Fatalf("window %d word %q outside alphabet of size %d", i, word, a)
				}
			}
		}
		again := NumerosityReduce(words)
		if len(again) != len(fast) {
			t.Fatalf("re-reduction has %d tokens, want %d", len(again), len(fast))
		}
		for i := range again {
			if again[i] != fast[i] {
				t.Fatalf("re-reduction token %d: %v, want %v", i, again[i], fast[i])
			}
		}

		// The pipeline that joined at window numWin/2 holds the reduction
		// of the words from there on, in global positions.
		want := NumerosityReduce(words[numWin/2:])
		for i := range want {
			want[i].Pos += numWin / 2
		}
		if got := late.State().Tokens; !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d p=%v: pipeline joining at window %d holds %v, want %v", n, p, numWin/2, got, want)
		}
	})
}
