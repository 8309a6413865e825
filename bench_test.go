// Benchmarks regenerating every table and figure of the paper's evaluation
// (§7) at bench-friendly sizes; run the full-size versions with
// cmd/egibench. Each benchmark reports, besides time and allocations, the
// headline metric of its experiment via b.ReportMetric (avg_score,
// hit_rate, or wins) so the paper-vs-measured comparison is visible
// directly in the bench output.
//
// Index (see DESIGN.md §3 for the full mapping):
//
//	BenchmarkFig1ParamSensitivity  — Fig. 1
//	BenchmarkTable4Score           — Table 4 (and 5: hit rate is reported)
//	BenchmarkTable6WTL             — Table 6
//	BenchmarkTable7Ranges          — Tables 7–9 (one setting per sub-bench)
//	BenchmarkTable10N              — Tables 10–11
//	BenchmarkTable12Tau            — Table 12
//	BenchmarkTable13Window         — Tables 13–14
//	BenchmarkFig8Scalability       — Fig. 8
//	BenchmarkFig9CaseStudy         — Fig. 9
//	BenchmarkSec75MultiAnomaly     — §7.5
//	BenchmarkAblation*             — design-choice ablations (DESIGN.md §4)
package egi_test

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"egi"
	"egi/internal/core"
	"egi/internal/eval"
	"egi/internal/gen"
	"egi/internal/grammar"
	"egi/internal/matrixprofile"
	"egi/internal/sax"
	"egi/internal/timeseries"
	"egi/internal/ucrsim"
)

// benchSeries/benchSize keep one iteration around a second on a laptop
// core; cmd/egibench runs the paper-size versions (25 series, N=50).
const (
	benchSeries = 3
	benchSize   = 15
	benchSeed   = 20200330
)

// benchDatasets returns the small datasets used by the per-table benches;
// StarLightCurve (21k points per series) is exercised by its own benches.
func benchDatasets(b *testing.B) []*ucrsim.Dataset {
	b.Helper()
	names := []string{"TwoLeadECG", "Wafer", "Trace"}
	out := make([]*ucrsim.Dataset, len(names))
	for i, n := range names {
		d, err := ucrsim.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = d
	}
	return out
}

func BenchmarkFig1ParamSensitivity(b *testing.B) {
	ds, err := gen.Dishwasher(20, 200, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var worst, best float64
	for i := 0; i < b.N; i++ {
		worst, best = 2, -1
		for w := 2; w <= 10; w++ {
			for a := 2; a <= 10; a++ {
				res, err := grammar.Detect(ds.Series, ds.CycleLen, sax.Params{W: w, A: a}, nil, 3)
				if err != nil {
					b.Fatal(err)
				}
				var cands []int
				for _, c := range res.Candidates {
					cands = append(cands, c.Pos)
				}
				s := eval.BestScore(cands, ds.Anomaly.Pos, ds.Anomaly.Length)
				if s < worst {
					worst = s
				}
				if s > best {
					best = s
				}
			}
		}
	}
	b.ReportMetric(best-worst, "grid_score_spread")
}

func BenchmarkTable4Score(b *testing.B) {
	detectors := []eval.Detector{
		eval.Ensemble(eval.EnsembleOptions{Size: benchSize}),
		eval.GIRandom(0, 0),
		eval.GIFix(),
		eval.GISelect(0, 0),
		eval.Discord(),
	}
	for _, d := range benchDatasets(b) {
		b.Run(d.Name, func(b *testing.B) {
			var ensScore, ensHit float64
			for i := 0; i < b.N; i++ {
				res, err := eval.RunDataset(d, detectors, eval.RunConfig{
					NumSeries: benchSeries, Seed: benchSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
				ensScore = res[0].AvgScore()
				ensHit = res[0].HitRate()
			}
			b.ReportMetric(ensScore, "avg_score")
			b.ReportMetric(ensHit, "hit_rate")
		})
	}
}

func BenchmarkTable6WTL(b *testing.B) {
	detectors := []eval.Detector{
		eval.Ensemble(eval.EnsembleOptions{Size: benchSize}),
		eval.GIFix(),
	}
	for _, d := range benchDatasets(b) {
		b.Run(d.Name, func(b *testing.B) {
			var wins float64
			for i := 0; i < b.N; i++ {
				res, err := eval.RunDataset(d, detectors, eval.RunConfig{
					NumSeries: benchSeries, Seed: benchSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
				w, _, _, err := eval.WTL(res[0].Scores, res[1].Scores, 0)
				if err != nil {
					b.Fatal(err)
				}
				wins = float64(w)
			}
			b.ReportMetric(wins, "wins_vs_gifix")
		})
	}
}

// BenchmarkTable7Ranges covers Tables 7–9: the ensemble with varied
// parameter ranges (wmax, amax) against the best GI baseline.
func BenchmarkTable7Ranges(b *testing.B) {
	settings := []struct {
		name       string
		wmax, amax int
	}{
		{"w5a5", 5, 5},     // Table 7 row 1
		{"w10a10", 10, 10}, // Tables 7-9 shared row
		{"w15a10", 15, 10}, // Table 8 row 3
		{"w10a15", 10, 15}, // Table 9 row 3
	}
	d, err := ucrsim.ByName("Trace")
	if err != nil {
		b.Fatal(err)
	}
	for _, set := range settings {
		b.Run(set.name, func(b *testing.B) {
			var wins float64
			for i := 0; i < b.N; i++ {
				ss, err := eval.NewSeriesSet(d, benchSeries, 1, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				baseline, err := ss.Run(eval.GIFix(), benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				ens, err := ss.Run(eval.Ensemble(eval.EnsembleOptions{
					Size: benchSize, WMax: set.wmax, AMax: set.amax,
				}), benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				w, _, _, err := eval.WTL(ens.Scores, baseline.Scores, 0)
				if err != nil {
					b.Fatal(err)
				}
				wins = float64(w)
			}
			b.ReportMetric(wins, "wins")
		})
	}
}

func BenchmarkTable10N(b *testing.B) {
	sizes := []int{5, 10, 25, 50}
	d, err := ucrsim.ByName("Wafer")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var score50 float64
	for i := 0; i < b.N; i++ {
		ss, err := eval.NewSeriesSet(d, benchSeries, 1, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		bySize, _, err := ss.SweepSizeTau(0, 0, 50, sizes, nil, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		score50 = bySize[50].AvgScore()
	}
	b.ReportMetric(score50, "avg_score_N50")
}

func BenchmarkTable12Tau(b *testing.B) {
	taus := []float64{0.05, 0.2, 0.4, 1.0}
	d, err := ucrsim.ByName("TwoLeadECG")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var spread float64
	for i := 0; i < b.N; i++ {
		ss, err := eval.NewSeriesSet(d, benchSeries, 1, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		_, byTau, err := ss.SweepSizeTau(0, 0, benchSize, nil, taus, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		spread = byTau[0.05].AvgScore() - byTau[1.0].AvgScore()
	}
	b.ReportMetric(spread, "tau5_minus_tau100")
}

func BenchmarkTable13Window(b *testing.B) {
	d, err := ucrsim.ByName("Wafer")
	if err != nil {
		b.Fatal(err)
	}
	for _, frac := range []float64{0.6, 0.8, 1.0} {
		b.Run(fmt.Sprintf("frac%.1f", frac), func(b *testing.B) {
			det := eval.Ensemble(eval.EnsembleOptions{Size: benchSize})
			var score float64
			for i := 0; i < b.N; i++ {
				ss, err := eval.NewSeriesSet(d, benchSeries, frac, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				ms, err := ss.Run(det, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				score = ms.AvgScore()
			}
			b.ReportMetric(score, "avg_score")
		})
	}
}

// BenchmarkFig8Scalability contrasts the linear-time ensemble with the
// quadratic STOMP baseline at growing lengths. The time column IS the
// result here: ensemble sub-bench times should grow linearly with length,
// STOMP quadratically.
func BenchmarkFig8Scalability(b *testing.B) {
	const window = 300
	for _, n := range []int{5000, 10000, 20000} {
		s, err := gen.RandomWalk(n, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Ensemble/n=%d", n), func(b *testing.B) {
			cfg := core.DefaultConfig(window)
			cfg.Size = benchSize
			cfg.Seed = benchSeed
			for i := 0; i < b.N; i++ {
				if _, err := core.Detect(s, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("STOMP/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := matrixprofile.STOMP(s, window, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig9CaseStudy(b *testing.B) {
	fs, err := gen.FridgeFreezer(50000, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(fs.CycleLen)
	cfg.Size = benchSize
	cfg.Seed = benchSeed
	cfg.TopK = 2
	b.ResetTimer()
	var matched float64
	for i := 0; i < b.N; i++ {
		res, err := core.Detect(fs.Series, cfg)
		if err != nil {
			b.Fatal(err)
		}
		matched = 0
		for _, c := range res.Candidates {
			for _, gt := range fs.Anomalies {
				if c.Pos < gt.Pos+gt.Length && gt.Pos < c.Pos+c.Length {
					matched++
				}
			}
		}
	}
	b.ReportMetric(matched, "planted_found_of_2")
}

func BenchmarkSec75MultiAnomaly(b *testing.B) {
	d, err := ucrsim.ByName("StarLightCurve")
	if err != nil {
		b.Fatal(err)
	}
	det := eval.Ensemble(eval.EnsembleOptions{Size: benchSize})
	b.ResetTimer()
	var detected float64
	for i := 0; i < b.N; i++ {
		results, err := eval.RunMultiAnomaly(d, det, 2, 20, 2, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		detected = 0
		for _, r := range results {
			detected += float64(r.Detected)
		}
	}
	b.ReportMetric(detected, "detected_of_4")
}

// BenchmarkDetect measures the end-to-end batch detector on one fixed
// series: the headline "linear in the series length" cost per point. The
// CI benchmark job tracks it (with -benchmem) alongside BenchmarkStreamPush
// as the batch/stream pair over the shared engine. The paper-size case is
// whole-series Detect at the paper's defaults (N=50, window 200) on a
// 50k-point synthetic ECG, the shape of the repo benchmark's batch_paper
// workload.
func BenchmarkDetect(b *testing.B) {
	const window = 100
	run := func(b *testing.B, series []float64, opts egi.Options) {
		for i := 0; i < b.N; i++ {
			if _, err := egi.Detect(series, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, length := range []int{2000, 8000} {
		b.Run(fmt.Sprintf("n=%d", length), func(b *testing.B) {
			series := make([]float64, length)
			for i := range series {
				series[i] = math.Sin(2*math.Pi*float64(i)/window) +
					0.3*math.Sin(float64(i)*0.7391)
			}
			b.ResetTimer()
			run(b, series, egi.Options{Window: window, EnsembleSize: benchSize, Seed: benchSeed})
		})
	}
	b.Run("paper/n=50000", func(b *testing.B) {
		series, err := gen.ECG(50000, 200, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, series, egi.Options{Window: 200, Seed: benchSeed})
	})
}

// BenchmarkDetectChunked measures the chunk-and-stitch batch detector on a
// 100k-point synthetic ECG (window 100, 1000-point chunks, N=20): a
// hundred chunks through one default-hop stream detector, with only one
// chunk's working set resident besides the output curve.
func BenchmarkDetectChunked(b *testing.B) {
	series, err := gen.ECG(100000, 100, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	opts := egi.Options{Window: 100, EnsembleSize: 20, Seed: benchSeed}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := egi.DetectChunked(series, opts, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamPush measures the amortized per-point cost of the
// streaming detector (the time column is ns per pushed point, since each
// iteration pushes exactly one point). Re-induction runs once per hop —
// the default hop grows with the buffer — so the amortized cost must stay
// roughly flat as BufLen grows: sublinear in buffer length, the property
// that makes the detector viable on continuous traffic.
func BenchmarkStreamPush(b *testing.B) {
	const window = 100
	for _, bufLen := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("buflen=%d", bufLen), func(b *testing.B) {
			s, err := egi.Stream(egi.StreamOptions{
				Window:       window,
				BufLen:       bufLen,
				EnsembleSize: benchSize,
				Seed:         benchSeed,
			})
			if err != nil {
				b.Fatal(err)
			}
			// Precompute one buffer's worth of signal to cycle through,
			// so point generation stays out of the measurement.
			points := make([]float64, bufLen)
			for i := range points {
				points[i] = math.Sin(2 * math.Pi * float64(i) / window)
			}
			// Noise breaks the exact periodicity without a per-push RNG
			// call: a second incommensurate sinusoid.
			for i := range points {
				points[i] += 0.3 * math.Sin(float64(i)*0.7391)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Push(points[i%bufLen]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
	// Small hops re-induce much more often; incremental re-discretization
	// and amortized grammar induction in the engine keep the extra cost
	// far below proportional (only the hop's new suffix windows are
	// re-encoded, and only the hop's new tokens re-induced, per run).
	// hop=1 is the extreme: a full ensemble run per pushed point. The CI
	// bench job records all of these — hop=1, the default hop above, and
	// hop=100 — in BENCH_stream.json per PR.
	const bufLen = 2000
	for _, hop := range []int{500, 100, 1} {
		b.Run(fmt.Sprintf("buflen=%d/hop=%d", bufLen, hop), func(b *testing.B) {
			s, err := egi.Stream(egi.StreamOptions{
				Window:       window,
				BufLen:       bufLen,
				Hop:          hop,
				EnsembleSize: benchSize,
				Seed:         benchSeed,
			})
			if err != nil {
				b.Fatal(err)
			}
			points := make([]float64, bufLen)
			for i := range points {
				points[i] = math.Sin(2*math.Pi*float64(i)/window) +
					0.3*math.Sin(float64(i)*0.7391)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Push(points[i%bufLen]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkManagerPush measures serving-layer throughput: the amortized
// per-point cost of pushing round-robin across N concurrent streams of one
// egi.Manager (per-stream locking, footprint roll-up after every push, and
// the event broker all included). Together with BenchmarkStreamPush it
// separates detector cost from serving overhead; the CI bench job tracks
// both in BENCH_stream.json.
func BenchmarkManagerPush(b *testing.B) {
	const (
		window = 100
		bufLen = 1000
	)
	for _, streams := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			m, err := egi.NewManager(egi.ManagerOptions{
				Stream: egi.StreamOptions{
					Window:       window,
					BufLen:       bufLen,
					EnsembleSize: benchSize,
					Seed:         benchSeed,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			ids := make([]string, streams)
			for i := range ids {
				ids[i] = fmt.Sprintf("s%02d", i)
			}
			points := make([]float64, bufLen)
			for i := range points {
				points[i] = math.Sin(2*math.Pi*float64(i)/window) +
					0.3*math.Sin(float64(i)*0.7391)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Push(ids[i%streams], points[(i/streams)%bufLen]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWave precomputes length+pad points of the benchmarks' two-sinusoid
// signal so batch slices can wrap without a modulo per point.
func benchWave(length, pad, window int) []float64 {
	points := make([]float64, length+pad)
	for i := range points {
		points[i] = math.Sin(2*math.Pi*float64(i)/float64(window)) +
			0.3*math.Sin(float64(i)*0.7391)
	}
	return points
}

// BenchmarkStreamPushBatch measures the detector's batch ingest fast path:
// one PushBatchN per iteration instead of one Push per point. The ns/point
// metric is directly comparable with BenchmarkStreamPush's time column —
// the gap is the per-point call, bounds-check, and run-boundary accounting
// the batch path amortizes across each run segment.
func BenchmarkStreamPushBatch(b *testing.B) {
	const (
		window = 100
		bufLen = 1000
		batch  = 256
	)
	s, err := egi.Stream(egi.StreamOptions{
		Window:       window,
		BufLen:       bufLen,
		EnsembleSize: benchSize,
		Seed:         benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	points := benchWave(bufLen, batch, window)
	b.ResetTimer()
	off := 0
	for i := 0; i < b.N; i++ {
		if err := s.PushBatch(points[off : off+batch]); err != nil {
			b.Fatal(err)
		}
		off = (off + batch) % bufLen
	}
	b.StopTimer()
	pts := float64(b.N) * batch
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pts, "ns/point")
	b.ReportMetric(pts/b.Elapsed().Seconds(), "points/s")
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkManagerPushParallel is the contended serving benchmark:
// GOMAXPROCS producers push 256-point batches round-robin across N
// streams of one Manager, so it measures what BenchmarkManagerPush (one
// goroutine, one point per call) cannot — shard-map and accounting
// contention under parallel ingest. The aggregate points/s metric is the
// serving layer's headline number: with the sharded stream table it must
// scale with cores (the acceptance bar is ≥10× the serial per-point
// baseline at 32 streams on 8 cores).
//
// Each sub-benchmark pins GOMAXPROCS itself rather than relying on the
// -cpu flag: b.Run names are computed when the parent registers its
// children, before the harness applies each -cpu value, so a name built
// from runtime.GOMAXPROCS(0) would label every -cpu pass with the same
// (wrong) count — and after tools/benchjson strips the -cpu suffix,
// three different core counts would merge into one trajectory entry.
// Pinning inside the child makes the procs=N label truthful and turns
// any extra -cpu passes into additional samples of the same workload.
func BenchmarkManagerPushParallel(b *testing.B) {
	const (
		window = 100
		bufLen = 1000
		batch  = 256
	)
	for _, streams := range []int{1, 8, 32} {
		for _, procs := range []int{1, 4, 8} {
			benchManagerPushParallel(b, streams, procs, window, bufLen, batch)
		}
	}
}

// benchManagerPushParallel runs one (streams, procs) cell of the
// contended serving benchmark with GOMAXPROCS pinned to procs.
func benchManagerPushParallel(b *testing.B, streams, procs, window, bufLen, batch int) {
	b.Run(fmt.Sprintf("streams=%d/procs=%d", streams, procs), func(b *testing.B) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		m, err := egi.NewManager(egi.ManagerOptions{
			Stream: egi.StreamOptions{
				Window:       window,
				BufLen:       bufLen,
				EnsembleSize: benchSize,
				Seed:         benchSeed,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		ids := make([]string, streams)
		for i := range ids {
			ids[i] = fmt.Sprintf("s%02d", i)
			if err := m.Open(ids[i]); err != nil {
				b.Fatal(err)
			}
		}
		points := benchWave(bufLen, batch, window)
		var producer atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			// Stagger producers across the streams so every stream is
			// hit and neighboring producers mostly use different ids.
			n := int(producer.Add(1)) - 1
			off := 0
			for pb.Next() {
				if _, err := m.PushBatchN(ids[n%streams], points[off:off+batch]); err != nil {
					b.Error(err) // Error, not Fatal: safe off the main goroutine
					return
				}
				n++
				off = (off + batch) % bufLen
			}
		})
		b.StopTimer()
		pts := float64(b.N) * float64(batch)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pts, "ns/point")
		b.ReportMetric(pts/b.Elapsed().Seconds(), "points/s")
	})
}

// BenchmarkRouterPushParallel is BenchmarkManagerPushParallel through
// the routed serving tier: the same GOMAXPROCS producers push the same
// 256-point batches round-robin across 32 streams, but the Manager is
// built with NewShardedManager(M), so every call resolves its shard by
// rendezvous hash and crosses a per-stream latch before it reaches a
// stream table. The shards=1 cell is the unrouted baseline (a sharded
// manager of one collapses to NewManager), so the delta to shards=4/8
// is the router's whole cost: on a single contended table the routing
// layer must be ~free, and once the per-shard tables are the bottleneck
// more shards must not slow ingest down. Sub-benchmarks pin GOMAXPROCS
// themselves for the same b.Run-naming reason as the manager benchmark.
func BenchmarkRouterPushParallel(b *testing.B) {
	const (
		window  = 100
		bufLen  = 1000
		batch   = 256
		streams = 32
	)
	for _, shards := range []int{1, 4, 8} {
		for _, procs := range []int{1, 4, 8} {
			benchRouterPushParallel(b, shards, streams, procs, window, bufLen, batch)
		}
	}
}

// benchRouterPushParallel runs one (shards, procs) cell of the routed
// serving benchmark with GOMAXPROCS pinned to procs.
func benchRouterPushParallel(b *testing.B, shards, streams, procs, window, bufLen, batch int) {
	b.Run(fmt.Sprintf("shards=%d/procs=%d", shards, procs), func(b *testing.B) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		m, err := egi.NewShardedManager(shards, egi.ManagerOptions{
			Stream: egi.StreamOptions{
				Window:       window,
				BufLen:       bufLen,
				EnsembleSize: benchSize,
				Seed:         benchSeed,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		ids := make([]string, streams)
		for i := range ids {
			ids[i] = fmt.Sprintf("s%02d", i)
			if err := m.Open(ids[i]); err != nil {
				b.Fatal(err)
			}
		}
		points := benchWave(bufLen, batch, window)
		var producer atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			// Stagger producers across the streams so every stream is
			// hit and neighboring producers mostly use different ids.
			n := int(producer.Add(1)) - 1
			off := 0
			for pb.Next() {
				if _, err := m.PushBatchN(ids[n%streams], points[off:off+batch]); err != nil {
					b.Error(err) // Error, not Fatal: safe off the main goroutine
					return
				}
				n++
				off = (off + batch) % bufLen
			}
		})
		b.StopTimer()
		pts := float64(b.N) * float64(batch)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pts, "ns/point")
		b.ReportMetric(pts/b.Elapsed().Seconds(), "points/s")
	})
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationMultiResSAX quantifies the §6.2 claim: the shared
// multi-resolution discretization vs running the naive SAX per member.
func BenchmarkAblationMultiResSAX(b *testing.B) {
	s, err := gen.ECG(20000, 200, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	f, err := timeseries.NewFeatures(s)
	if err != nil {
		b.Fatal(err)
	}
	mr, err := sax.NewMultiResolver(10)
	if err != nil {
		b.Fatal(err)
	}
	var params []sax.Params
	for w := 2; w <= 6; w++ {
		for a := 2; a <= 5; a++ {
			params = append(params, sax.Params{W: w, A: a})
		}
	}
	b.Run("multires", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sax.DiscretizeMany(f, 200, params, mr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range params {
				if _, err := sax.NaiveDiscretize(s, 200, p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationCombiner compares the paper's median combiner with the
// mean, and BenchmarkAblationNormalizer compares divide-by-max with
// min-max normalization, on the same member curves.
func BenchmarkAblationCombiner(b *testing.B) {
	benchCombine(b, "median", core.CombineMedian, core.NormalizeMax)
	benchCombine(b, "mean", core.CombineMean, core.NormalizeMax)
}

func BenchmarkAblationNormalizer(b *testing.B) {
	benchCombine(b, "max", core.CombineMedian, core.NormalizeMax)
	benchCombine(b, "minmax", core.CombineMedian, core.NormalizeMinMax)
}

func benchCombine(b *testing.B, name string, comb core.Combiner, norm core.Normalizer) {
	b.Run(name, func(b *testing.B) {
		d, err := ucrsim.ByName("Trace")
		if err != nil {
			b.Fatal(err)
		}
		det := eval.Ensemble(eval.EnsembleOptions{Size: benchSize, Combine: comb, Normalize: norm})
		var score float64
		for i := 0; i < b.N; i++ {
			ss, err := eval.NewSeriesSet(d, benchSeries, 1, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			ms, err := ss.Run(det, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			score = ms.AvgScore()
		}
		b.ReportMetric(score, "avg_score")
	})
}
