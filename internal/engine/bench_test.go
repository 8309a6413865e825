package engine

import (
	"testing"

	"egi/internal/gen"
	"egi/internal/sequitur"
	"egi/internal/timeseries"
)

// Stage benchmarks at paper scale: gen.ECG(50000, 200, 1) and the paper's
// parameter grid. The member stage's two halves run at Parallelism 1, the
// combination at the default. They time each stage separately, so a change
// to one layer shows its own before/after instead of only the
// whole-detector figure.

const (
	stageLen    = 50000
	stageWindow = 200
	stageSeed   = 1
)

func stageSource(b *testing.B) *timeseries.Features {
	b.Helper()
	s, err := gen.ECG(stageLen, stageWindow, stageSeed)
	if err != nil {
		b.Fatal(err)
	}
	f, err := timeseries.NewFeatures(s)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// preparedEngine returns a fresh engine bound to src with the whole
// series' members drawn and grouped, ready for encode.
func preparedEngine(b *testing.B, src *timeseries.Features) *Engine {
	b.Helper()
	e, err := New(Config{Window: stageWindow, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	e.bind(src, 0, stageLen)
	e.prepare(src, 0, stageSeed)
	return e
}

// encodeAll runs every PAA-size group's encode task over the whole series.
func encodeAll(b *testing.B, e *Engine, src *timeseries.Features) {
	for w := range e.groups {
		if g := &e.groups[w]; len(g.members) > 0 {
			if err := g.enc.Encode(src, g.pipes, stageLen-stageWindow); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineEncode times SAX encoding of every window for every
// member: each PAA-size group's encode, from a fresh engine per iteration.
func BenchmarkEngineEncode(b *testing.B) {
	src := stageSource(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := preparedEngine(b, src)
		b.StartTimer()
		encodeAll(b, e, src)
	}
}

// BenchmarkEngineInduce times grammar induction of every member over the
// whole series, each member fed its covering word ids. fresh gives each
// member a new presized Builder; warm feeds every member through one
// Builder, Reset between members, which is how the engine's free list
// reuses released members' builders.
func BenchmarkEngineInduce(b *testing.B) {
	src := stageSource(b)
	e := preparedEngine(b, src)
	encodeAll(b, e, src)
	feeds := make([][]int32, len(e.seqSel))
	for i, seq := range e.seqSel {
		toks, err := seq.Covering(0, stageLen-stageWindow)
		if err != nil {
			b.Fatal(err)
		}
		for _, tk := range toks {
			feeds[i] = append(feeds[i], tk.ID)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, ids := range feeds {
				bld := sequitur.NewBuilderSize(len(ids))
				for _, id := range ids {
					bld.PushID(id)
				}
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		bld := sequitur.NewBuilderSize(len(feeds[0]))
		b.ReportAllocs()
		for b.Loop() {
			for _, ids := range feeds {
				bld.Reset()
				for _, id := range ids {
					bld.PushID(id)
				}
			}
		}
	})
}

// BenchmarkEngineCombine times lines 9–14 of Algorithm 1 over the 50
// member curves of the stage source at the paper's τ: the selection, the
// column pass that normalizes and takes the pointwise median, and the
// top-3 ranking. Parallelism is the default, GOMAXPROCS, so -cpu sets the
// number of column blocks.
func BenchmarkEngineCombine(b *testing.B) {
	src := stageSource(b)
	e, err := New(Config{Window: stageWindow})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.DetectSpan(src, 0, stageLen, 0, stageSeed); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := e.comb.combine(e.curves, e.cfg); err != nil {
			b.Fatal(err)
		}
	}
}
