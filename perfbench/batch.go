package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"egi"
)

// The batch_paper workload: egi.Detect at the paper's defaults (N=50,
// w,a in [2,10], tau=0.4) with window 200 on a 50k-point ECG-like series.
const (
	batchLen    = 50_000
	batchWindow = 200
	// bufSliceLen is one default stream buffer at the batch window (10
	// windows): the smallest input a caller would hand Detect.
	bufSliceLen = 10 * batchWindow
	// hopWindow and hopSliceLen are the serving workloads' window and
	// buffer: Detect over one such buffer is the engine work of one
	// default-hop run there.
	hopWindow   = 100
	hopSliceLen = 1000
	// smallPerCall is how many Detect calls on each small input follow
	// each full-series call.
	smallPerCall = 4
	coldRuns     = 5 // fresh processes timed per run for setup_s
)

// coldChildArg makes the binary a cold child: generate the batch input,
// time one Detect call in a fresh process, and print its seconds, whether
// its top-1 anomaly overlaps a planted one, and the process's peak RSS.
const coldChildArg = "cold-detect"

func batchOpts() egi.Options { return egi.Options{Window: batchWindow} }

// coldChild is the entry point of a cold child process.
func coldChild(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench cold-detect SEED")
		return 2
	}
	seed, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	in := makeBatchInput(seed, batchLen, batchWindow)
	t0 := time.Now()
	res, err := egi.Detect(in.series, batchOpts())
	d := time.Since(t0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("%.9f %v %.6f\n", d.Seconds(), topHitsPlanted(res.Anomalies, in.planted), rss)
	return 0
}

func topHitsPlanted(as []egi.Anomaly, planted []span) bool {
	if len(as) == 0 {
		return false
	}
	for _, p := range planted {
		if p.overlaps(as[0].Pos, as[0].Pos+as[0].Length) {
			return true
		}
	}
	return false
}

// fullCalls is the batch workload's fixed work: about one warm
// full-series call per measured second (a call takes ~0.8 s on the
// reference container).
func (b *bench) fullCalls() int { return max(3, int(math.Round(b.seconds))) }

func runBatch(b *bench) error {
	in := makeBatchInput(b.seed, batchLen, batchWindow)
	if b.trace {
		return traceBatch(b, in)
	}
	rep := b.rep

	// Warm-up: this process's own first call is not timed.
	ref, err := egi.Detect(in.series, batchOpts())
	if err != nil {
		return err
	}
	rep.check(topHitsPlanted(ref.Anomalies, in.planted), "top-1 anomaly %+v overlaps no planted anomaly %v", ref.Anomalies, in.planted)

	// The cold processes and the small calls are spread over the whole run
	// rather than bunched at its start, so each figure averages over the
	// same stretch of a shared machine's time as the full-series calls.
	// Small calls follow a collection: left to run on the heap the
	// full-series calls leave behind, its collections land inside these
	// 20 ms calls and dominate their spread.
	n := b.fullCalls()
	hopSeries := newECGSource(b.seed*31+7, hopWindow, 8, 20).next(nil, n*smallPerCall*hopSliceLen)
	bufStride := (len(in.series) - bufSliceLen) / (n*smallPerCall - 1)
	var full, setup, recovery, rss, buf, hop []float64
	total := 0.0
	for i := 0; i < n; i++ {
		if i%max(1, n/coldRuns) == 0 && len(setup) < coldRuns {
			s, r, mb, err := coldRun(b, in)
			rep.op(err)
			if err == nil {
				setup, recovery, rss = append(setup, s), append(recovery, r), append(rss, mb)
			}
		}
		t0 := time.Now()
		res, err := egi.Detect(in.series, batchOpts())
		d := time.Since(t0)
		rep.op(err)
		if err == nil {
			full = append(full, ms(d))
			total += d.Seconds()
			rep.check(reflect.DeepEqual(res.Anomalies, ref.Anomalies), "call %d ranking %+v differs from the first %+v", i, res.Anomalies, ref.Anomalies)
		}
		runtime.GC()
		for k := i * smallPerCall; k < (i+1)*smallPerCall; k++ {
			if d, ok := smallDetect(rep, in.series[k*bufStride:k*bufStride+bufSliceLen], batchWindow); ok {
				buf = append(buf, d)
			}
			if d, ok := smallDetect(rep, hopSeries[k*hopSliceLen:(k+1)*hopSliceLen], hopWindow); ok {
				hop = append(hop, d)
			}
		}
	}

	rep.set("points_per_s", float64(len(full)*batchLen)/total, "1/s", len(full))
	rep.set("ack_p50_ms", median(buf), "ms", len(buf))
	rep.set("hoprun_ack_p50_ms", median(hop), "ms", len(hop))
	rep.set("event_lag_p50_ms", median(full), "ms", len(full))
	rep.set("rss_peak_mb", median(rss), "MB", len(rss))
	rep.set("setup_s", median(setup), "s", len(setup))
	rep.set("recovery_s", median(recovery), "s", len(recovery))
	return nil
}

// coldRun runs one cold child: its first Detect call is a set-up sample,
// its exec-to-exit time a recovery sample, and its peak RSS — a process
// that runs Detect once, with the collector left to its own pacing — a
// memory sample.
func coldRun(b *bench, in batchInput) (setup, recovery, rssMB float64, err error) {
	out, wall, err := runCold(b, strconv.FormatInt(b.seed, 10))
	if err != nil {
		return 0, 0, 0, err
	}
	var hit bool
	if _, err := fmt.Sscanf(out, "%g %t %g", &setup, &hit, &rssMB); err != nil {
		return 0, 0, 0, fmt.Errorf("cold child output %q: %w", out, err)
	}
	b.rep.check(hit, "cold call's top-1 anomaly overlaps no planted anomaly %v", in.planted)
	return setup, wall.Seconds(), rssMB, nil
}

// smallDetect times one Detect call and returns its latency in
// milliseconds; a call that fails or ranks nothing is a failed operation.
func smallDetect(rep *report, xs []float64, window int) (float64, bool) {
	t0 := time.Now()
	res, err := egi.Detect(xs, egi.Options{Window: window})
	d := time.Since(t0)
	if err == nil && len(res.Anomalies) == 0 {
		err = fmt.Errorf("Detect on %d points returned no anomalies", len(xs))
	}
	rep.op(err)
	return ms(d), err == nil
}
