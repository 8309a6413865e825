package engine

import (
	"fmt"
	"reflect"
	"testing"

	"egi/internal/timeseries"
)

// shiftedSource serves a series at global positions off, off+1, ...: the
// same points a stream holds after running off points.
type shiftedSource struct {
	f   *timeseries.Features
	off int
}

func (s *shiftedSource) RangeSum(p, q int) float64  { return s.f.RangeSum(p-s.off, q-s.off) }
func (s *shiftedSource) RangeSum2(p, q int) float64 { return s.f.RangeSum2(p-s.off, q-s.off) }
func (s *shiftedSource) First() int                 { return s.off }
func (s *shiftedSource) End() int                   { return s.off + s.f.SeriesLen() }

// shiftState returns a copy of st with every global position moved by off.
func shiftState(st State, off int) State {
	out := State{LastEnd: st.LastEnd + off}
	for _, ps := range st.Pipes {
		seq := ps.Seq
		seq.Next += off
		seq.Trimmed += off
		seq.Tokens = append(seq.Tokens[:0:0], seq.Tokens...)
		for i := range seq.Tokens {
			seq.Tokens[i].Pos += off
		}
		out.Pipes = append(out.Pipes, PipeState{Params: ps.Params, Seq: seq})
	}
	for _, is := range st.Induct {
		is.Base += off
		is.FedTo += off
		is.Pos = append(is.Pos[:0:0], is.Pos...)
		for i := range is.Pos {
			is.Pos[i] += off
		}
		out.Induct = append(out.Induct, is)
	}
	return out
}

// TestPositionsPastTwoToThe31: pipelines and member epochs store positions
// as int32 offsets, so an engine over a stream that has run past 2^31
// points returns, span for span, exactly what it returns over the same
// points at the start of a series — at an overlapping hop (amortized
// induction) and at the default one (a rebase every span), and across a
// State → RestoreState cut, whose captured global positions are the
// unshifted ones moved by the shift.
func TestPositionsPastTwoToThe31(t *testing.T) {
	const (
		window = 25
		bufLen = 300
		spans  = 10
		off    = 1<<31 + 7
	)
	for _, hop := range []int{100, bufLen - window + 1} {
		t.Run(fmt.Sprintf("hop=%d", hop), func(t *testing.T) {
			f, err := timeseries.NewFeatures(genSeries(bufLen+hop*(spans-1), window, 31))
			if err != nil {
				t.Fatal(err)
			}
			far := &shiftedSource{f: f, off: off}
			cfg := Config{Window: window, Seed: 5, Parallelism: 2}
			nearEng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			farEng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < spans; k++ {
				start, end := k*hop, k*hop+bufLen
				seed := cfg.Seed + int64(k)*SeedStride
				want, errW := nearEng.DetectSpan(f, start, end, start+hop, seed)
				got, errG := farEng.DetectSpan(far, start+off, end+off, start+hop+off, seed)
				if (errW == nil) != (errG == nil) {
					t.Fatalf("span %d: errors %v vs %v", k, errW, errG)
				}
				resultsEqual(t, fmt.Sprintf("span %d", k), got, want)
				if k != spans/2 {
					continue
				}
				nearSt, farSt := nearEng.State(), farEng.State()
				if !reflect.DeepEqual(shiftState(nearSt, off), farSt) {
					t.Fatalf("span %d: captured state is not the unshifted one moved by %d", k, off)
				}
				if nearEng, err = New(cfg); err != nil {
					t.Fatal(err)
				}
				if farEng, err = New(cfg); err != nil {
					t.Fatal(err)
				}
				if err := nearEng.RestoreState(f, nearSt); err != nil {
					t.Fatal(err)
				}
				if err := farEng.RestoreState(far, farSt); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
