// Package stream is the online face of the ensemble detector: points are
// pushed one at a time (or in batches), memory stays bounded by the ring
// buffer, and anomaly events are emitted as the ensemble rule density
// curve confirms new minima.
//
// Since the engine refactor the detector owns no pipeline of its own: it
// keeps a rolling prefix-sum ring (timeseries.RingFeatures) over the most
// recent BufLen points and, every Hop points, asks a long-lived
// engine.Engine for the ensemble result over the buffered span — one "hop
// run" per chunk, run k seeded with Seed + k*engine.SeedStride.
// The engine reuses each member's discretization across overlapping hops
// (only the new suffix windows are encoded per run), amortizes grammar
// induction the same way — each member's resumable grammar is appended the
// hop's new tokens and periodically rebased onto the live buffer, see
// Config.RebaseEvery — and pools the hot-path scratch, so steady-state
// pushes allocate almost nothing; discretization is bit-identical to
// from-scratch runs, and the resumable grammar to a from-scratch induction
// over its epoch's tokens, properties the engine and stream tests pin.
// The per-run ensemble curves (each already normalized onto
// [0,1]) are stitched by averaging in overlap regions. A stream position
// is *final* once no future hop run can cover it, i.e. once the buffer has
// slid past it; only then are its window scores computed and events
// decided, so an emitted Event never changes retroactively.
//
// With the default Hop (BufLen - Window + 1) the hop runs are the chunks
// of a chunk-and-stitch batch detector with chunks of BufLen points:
// StitchedCurve pushes a whole series through such a detector, and that
// is egi.DetectChunked. A stream whose buffer never overflows (BufLen >=
// stream length) reproduces core.Detect exactly at Flush. Smaller hops trade
// extra recomputation for lower detection latency and smoother stitching —
// and profit the most from incremental re-discretization, since
// consecutive spans then overlap almost entirely.
//
// Amortized cost per pushed point is the ensemble cost of one buffer
// divided by Hop — independent of the stream length, and, at the default
// hop, independent of BufLen too.
package stream

import (
	"errors"
	"fmt"
	"math"

	"egi/internal/engine"
	"egi/internal/grammar"
	"egi/internal/timeseries"
)

// Defaults for the streaming-specific knobs. The ensemble knobs default in
// the engine (paper §7 values).
const (
	// DefaultBufFactor sets BufLen = DefaultBufFactor * Window when
	// BufLen is not given.
	DefaultBufFactor = 10
	// DefaultThreshold is the event threshold on the stitched window
	// score: a dip of the score curve to or below it emits one Event.
	// Scores live in [0,1] (normalized ensemble rule density; lower =
	// more anomalous).
	DefaultThreshold = 0.2
)

// Errors reported by the detector.
var (
	ErrFlushed      = errors.New("stream: detector already flushed")
	ErrNonFinite    = errors.New("stream: non-finite point")
	ErrNotReady     = errors.New("stream: not enough covered points yet")
	ErrBadBufLen    = errors.New("stream: buffer length must be at least 4x the window")
	ErrBadHop       = errors.New("stream: hop must be in [1, buflen-window+1]")
	ErrBadThreshold = errors.New("stream: threshold must be in (0, 1] (zero selects the default)")
	ErrBadQuantile  = errors.New("stream: adaptive quantile must be in (0, 1)")
)

// NonFinitePolicy selects what Push does with a NaN or ±Inf point. The
// ingest boundary is the only place non-finite values can enter: past it,
// one NaN silently poisons z-normalization, the SAX words and every
// downstream density curve for the rest of the buffer, so the policy is
// applied before the point touches the ring.
type NonFinitePolicy int

const (
	// NonFiniteReject (the default) rejects the point with ErrNonFinite.
	NonFiniteReject NonFinitePolicy = iota
	// NonFiniteClamp replaces the point with the last finite point pushed
	// (dropping it when nothing finite has been pushed yet), so gappy
	// telemetry holds its level instead of aborting the batch.
	NonFiniteClamp
	// NonFiniteDrop silently skips the point; stream positions are not
	// consumed by dropped points.
	NonFiniteDrop
)

// Event is one confirmed anomaly: a window of Length points starting at
// stream position Pos (counting from the first point ever pushed) whose
// mean stitched ensemble density is Density. Events are emitted when the
// window-score curve rises back above the threshold after a dip, or at
// Flush; each dip yields exactly one Event, its deepest window.
type Event struct {
	Pos     int
	Length  int
	Density float64
}

// Config parameterizes a streaming detector. Only Window is required;
// zero values select defaults.
type Config struct {
	// Window is the sliding window length n, the scale of the anomalies
	// sought. Required.
	Window int
	// BufLen is the ring buffer capacity: each hop run sees exactly the
	// last BufLen points. Default 10x Window; must be >= 4x Window
	// (egi.DetectChunked's minimum chunk length: its chunk is one buffer).
	BufLen int
	// Hop is the number of points between ensemble re-inductions.
	// Default BufLen - Window + 1, the largest hop that still leaves no
	// coverage gaps, and the chunk stride of egi.DetectChunked. Smaller hops
	// lower latency at proportionally higher cost (mitigated by the
	// engine's incremental re-discretization).
	Hop int
	// Threshold is the window-score level at or below which a dip of
	// the stitched curve is reported as an Event, in (0, 1]. The zero
	// value selects the 0.2 default (so an exact-zero threshold is not
	// expressible; use a tiny positive value to report only windows of
	// near-zero density, and set OnEvent to nil to ignore events
	// entirely).
	Threshold float64
	// AdaptiveQuantile, when nonzero, replaces the fixed Threshold by a
	// running quantile of the finalized window scores: a window is
	// anomalous when its score falls at or below the current estimate
	// of this quantile (e.g. 0.05 tracks the lowest 5% of scores seen
	// so far). Must be in (0, 1). The fixed Threshold still applies
	// during the estimator's warm-up — its first max(5, ceil(2/q))
	// scores, enough for the target quantile to carry real support.
	AdaptiveQuantile float64
	// OnEvent, when non-nil, is called synchronously (from Push,
	// PushBatch or Flush) for each confirmed Event, in stream order.
	OnEvent func(Event)

	// NonFinite selects how Push treats NaN/±Inf points: reject (default),
	// clamp to the last finite point, or drop.
	NonFinite NonFinitePolicy

	// RebaseEvery bounds how many hop runs a member's resumable grammar
	// may span before it is rebuilt over the live buffer alone (the
	// engine's induction epoch). 0 selects the adaptive default: per-run
	// induction at the default hop (each run, like each chunk of
	// egi.DetectChunked, an independent induction),
	// amortized-O(hop) induction with bounded history at overlapping
	// hops. K >= 1 rebases every K runs: larger K gives the grammar more
	// cross-hop context and retains proportionally more token history;
	// K = 1 forces from-scratch induction every run.
	RebaseEvery int

	// Ensemble knobs, passed through to the engine; zero values take
	// the paper's defaults (N=50, w,a in [2,10], tau=0.4, topK=3).
	EnsembleSize int
	WMax, AMax   int
	Tau          float64
	TopK         int
	Seed         int64
	Parallelism  int

	// fromScratch disables the engine's incremental re-discretization;
	// the ablation/testing knob behind the incremental==from-scratch
	// property tests.
	fromScratch bool
	// rebuildEachRun forces the engine to rebuild every member's
	// induction state from scratch over its epoch's full token range on
	// every run, on the same rebase schedule — the reference semantics
	// the amortized==rebuilt property tests compare against. It needs
	// the full epoch history, so pipeline trimming is suspended while
	// set; testing only.
	rebuildEachRun bool
}

// Normalized returns the configuration with defaults filled in and the
// streaming knobs validated — the exact settings a detector built from c
// would run with. Serving layers use it to compare two configurations
// for effective equality (for example, a per-stream override request
// against the settings an existing stream already runs with).
func (c Config) Normalized() (Config, error) { return c.normalized() }

// normalized fills in defaults and validates the streaming knobs; the
// ensemble knobs are validated by the engine at construction.
func (c Config) normalized() (Config, error) {
	if c.Window < 2 {
		return c, fmt.Errorf("stream: window must be >= 2, got %d", c.Window)
	}
	if c.BufLen == 0 {
		c.BufLen = DefaultBufFactor * c.Window
	}
	if c.BufLen < 4*c.Window {
		return c, fmt.Errorf("%w: buflen=%d window=%d", ErrBadBufLen, c.BufLen, c.Window)
	}
	if c.Hop == 0 {
		c.Hop = c.BufLen - c.Window + 1
	}
	if c.Hop < 1 || c.Hop > c.BufLen-c.Window+1 {
		return c, fmt.Errorf("%w: hop=%d buflen=%d window=%d", ErrBadHop, c.Hop, c.BufLen, c.Window)
	}
	if c.Threshold == 0 {
		c.Threshold = DefaultThreshold
	}
	if c.Threshold < 0 || c.Threshold > 1 {
		return c, fmt.Errorf("%w: got %v", ErrBadThreshold, c.Threshold)
	}
	if c.AdaptiveQuantile != 0 && (c.AdaptiveQuantile <= 0 || c.AdaptiveQuantile >= 1) {
		return c, fmt.Errorf("%w: got %v", ErrBadQuantile, c.AdaptiveQuantile)
	}
	if c.NonFinite < NonFiniteReject || c.NonFinite > NonFiniteDrop {
		return c, fmt.Errorf("stream: unknown non-finite policy %d", c.NonFinite)
	}
	return c, nil
}

// engineConfig is the engine configuration shared by every hop run (the
// per-run seed is passed per span).
func (c Config) engineConfig() engine.Config {
	return engine.Config{
		Window:         c.Window,
		Size:           c.EnsembleSize,
		WMax:           c.WMax,
		AMax:           c.AMax,
		Tau:            c.Tau,
		TopK:           c.TopK,
		Parallelism:    c.Parallelism,
		RebaseEvery:    c.RebaseEvery,
		FromScratch:    c.fromScratch,
		RebuildEachRun: c.rebuildEachRun,
	}
}

// Detector is a streaming anomaly detector. It is not safe for concurrent
// use; share it through a manager stream id (internal/manager serializes
// each stream's detector under its own lock) or give each goroutine its
// own.
type Detector struct {
	cfg Config

	// Rolling prefix sums over the most recent BufLen points — the only
	// copy of the data the detector keeps.
	ring  *timeseries.RingFeatures
	total int // points pushed since creation

	// The shared detection engine; owns per-member incremental pipelines
	// and pooled scratch across hop runs.
	eng *engine.Engine

	// Hop-run bookkeeping.
	runIdx    int // runs completed; also the per-run seed index
	lastStart int // stream position of the last run's first point
	covered   int // exclusive end of the stitched (covered) region

	// Stitched curve over [pendOff, covered): per-position sums and
	// coverage counts, averaged on demand. Trimmed after every periodic
	// run, so its length never exceeds BufLen + Window - 1.
	pendOff  int
	sum, cnt []float64

	// Event extraction state: window starts below scorePos have final
	// scores; a dip below the threshold is open between runs.
	scorePos int
	inDip    bool
	dipPos   int
	dipMin   float64
	quant    *p2Quantile // running score quantile; nil unless adaptive
	warmup   int         // scores before the adaptive estimate is trusted

	// Last finite point accepted — what NonFiniteClamp substitutes.
	lastVal  float64
	haveLast bool

	// batchScratch materializes the effective values of a mixed
	// finite/non-finite batch under the Clamp/Drop policies, one bulk
	// segment at a time; bounded by one run segment (<= BufLen values).
	batchScratch []float64

	// final, when non-nil, receives every stitched value trimTo drops,
	// in stream order: the whole-series curve StitchedCurve returns.
	// Only StitchedCurve sets it; it is not detector state (snapshots
	// and MemoryFootprint leave it out).
	final []float64

	flushed bool
}

// New creates a streaming detector from cfg.
func New(cfg Config) (*Detector, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	// Surface ensemble-knob errors at construction, not first hop.
	eng, err := engine.New(cfg.engineConfig())
	if err != nil {
		return nil, err
	}
	ring, err := timeseries.NewRingFeatures(cfg.BufLen)
	if err != nil {
		return nil, err
	}
	d := &Detector{
		cfg:       cfg,
		ring:      ring,
		eng:       eng,
		lastStart: -1,
	}
	if cfg.AdaptiveQuantile > 0 {
		d.quant = newP2Quantile(cfg.AdaptiveQuantile)
		// Right after its five-sample initialization the P² estimate of a
		// low quantile is still close to the sample median, which would
		// over-fire badly; hold the fixed threshold until the estimator
		// has seen enough scores for the target quantile to have a few
		// expected samples below it.
		d.warmup = int(math.Ceil(2 / cfg.AdaptiveQuantile))
		if d.warmup < 5 {
			d.warmup = 5
		}
	}
	return d, nil
}

// Total returns the number of points pushed so far.
func (d *Detector) Total() int { return d.total }

// Runs returns the number of hop runs completed so far. Replay tooling
// uses it to detect run boundaries while stepping a restored detector
// point by point.
func (d *Detector) Runs() int { return d.runIdx }

// Flushed reports whether Flush has been called.
func (d *Detector) Flushed() bool { return d.flushed }

// MemoryFootprint is the detector's retained-memory accounting in bytes:
// the prefix-sum ring, the engine (member pipelines + pooled scratch), and
// the stitch buffers. Every component is bounded — the ring by BufLen, the
// stitch region by BufLen + Window - 1, the engine by its span length — so
// under sustained pushing the footprint climbs to a plateau and stays
// there; the stream tests pin that bound. Serving layers roll this number
// up across streams to enforce byte budgets.
func (d *Detector) MemoryFootprint() int64 {
	return d.ring.MemoryBytes() +
		d.eng.MemoryFootprint() +
		int64(cap(d.sum)+cap(d.cnt))*8 +
		int64(cap(d.batchScratch))*8
}

// buffered is the number of points currently in the ring.
func (d *Detector) buffered() int { return d.total - d.ring.First() }

// Push appends one point to the stream. Every Hop points (once the buffer
// has filled) it triggers an ensemble re-induction over the buffer, which
// may emit Events through cfg.OnEvent.
func (d *Detector) Push(x float64) error {
	if d.flushed {
		return ErrFlushed
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		switch d.cfg.NonFinite {
		case NonFiniteClamp:
			if !d.haveLast {
				return nil // nothing finite to hold; treat like a drop
			}
			x = d.lastVal
		case NonFiniteDrop:
			return nil
		default:
			return fmt.Errorf("%w: %v at position %d", ErrNonFinite, x, d.total)
		}
	}
	if err := d.ring.Append(x); err != nil {
		return err
	}
	d.lastVal, d.haveLast = x, true
	d.total++
	if d.buffered() == d.cfg.BufLen && d.sinceRun() >= d.cfg.Hop {
		return d.run(d.nextStart(), true)
	}
	return nil
}

// PushBatch pushes the points in order; it stops at the first error.
func (d *Detector) PushBatch(xs []float64) error {
	_, err := d.PushBatchN(xs)
	return err
}

// nonFinite reports whether x is NaN or ±Inf.
func nonFinite(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }

// PushBatchN pushes the points in order, stopping at the first error, and
// reports how many were consumed — processed without error, including
// points absorbed by the Clamp/Drop non-finite policies. On error the
// count is the index of the offending point: everything before it is
// applied, nothing after it was looked at. Clients use the count to
// resume a partially applied batch without replaying or losing points;
// the durability layer uses it as the write-ahead log coordinate.
//
// PushBatchN is the ingest fast path, not just a loop: the batch's
// non-finite policy is settled in one scan up front, points are
// bulk-appended to the ring between run boundaries (one accounting update
// per segment instead of per point), and hop runs fire at exactly the
// stream positions a per-point Push loop would fire them — events,
// curves, consumed counts and errors are bit-identical either way, a
// property the batch tests pin.
func (d *Detector) PushBatchN(xs []float64) (int, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	if d.flushed {
		return 0, ErrFlushed
	}
	bad := -1
	for i, x := range xs {
		if nonFinite(x) {
			bad = i
			break
		}
	}
	if bad < 0 {
		return d.pushFinite(xs)
	}
	if d.cfg.NonFinite == NonFiniteReject {
		if n, err := d.pushFinite(xs[:bad]); err != nil {
			return n, err
		}
		return bad, fmt.Errorf("%w: %v at position %d", ErrNonFinite, xs[bad], d.total)
	}
	return d.pushPolicyBatch(xs, bad)
}

// untilNextRun is the number of points that must still be appended before
// the hop-run condition (full buffer, a hop of new points) holds — the
// length of the next bulk-append segment.
func (d *Detector) untilNextRun() int {
	n := d.cfg.BufLen - d.buffered()
	if h := d.cfg.Hop - d.sinceRun(); h > n {
		n = h
	}
	if n < 1 {
		n = 1
	}
	return n
}

// pushFinite bulk-appends known-finite points, firing hop runs at exactly
// the stream positions the per-point loop would. On a run error the
// triggering point is reported unconsumed, matching Push.
func (d *Detector) pushFinite(xs []float64) (int, error) {
	i := 0
	for i < len(xs) {
		seg := d.untilNextRun()
		k := len(xs) - i
		atRun := k >= seg
		if atRun {
			k = seg
		}
		if err := d.ring.AppendBatch(xs[i : i+k]); err != nil {
			return i, err
		}
		d.total += k
		d.lastVal, d.haveLast = xs[i+k-1], true
		i += k
		if atRun {
			if err := d.run(d.nextStart(), true); err != nil {
				return i - 1, err
			}
		}
	}
	return len(xs), nil
}

// pushPolicyBatch handles a batch with non-finite points under the
// Clamp/Drop policies: the finite prefix goes straight from xs, then the
// mixed remainder is materialized segment by segment into the batch
// scratch — clamped values substituted, dropped values skipped — and
// bulk-appended like the finite path. bad is the index of the first
// non-finite point.
func (d *Detector) pushPolicyBatch(xs []float64, bad int) (int, error) {
	if n, err := d.pushFinite(xs[:bad]); err != nil {
		return n, err
	}
	consumed := bad
	for consumed < len(xs) {
		seg := d.untilNextRun()
		eff := d.batchScratch[:0]
		raw := consumed
		lastVal, haveLast := d.lastVal, d.haveLast
		for raw < len(xs) && len(eff) < seg {
			x := xs[raw]
			raw++
			if nonFinite(x) {
				if d.cfg.NonFinite != NonFiniteClamp || !haveLast {
					continue // dropped: consumes the raw point, appends nothing
				}
				x = lastVal
			}
			eff = append(eff, x)
			lastVal, haveLast = x, true
		}
		d.batchScratch = eff
		if len(eff) == 0 {
			consumed = raw // a trailing run of dropped points
			continue
		}
		if err := d.ring.AppendBatch(eff); err != nil {
			return consumed, err // unreachable: eff is all finite
		}
		d.total += len(eff)
		d.lastVal, d.haveLast = lastVal, haveLast
		if len(eff) == seg {
			if err := d.run(d.nextStart(), true); err != nil {
				// The run was triggered by the push of raw point raw-1,
				// which the per-point loop reports unconsumed.
				return raw - 1, err
			}
		}
		consumed = raw
	}
	return len(xs), nil
}

// sinceRun is the number of points pushed after the last run (or all of
// them before the first run).
func (d *Detector) sinceRun() int {
	if d.lastStart < 0 {
		return d.total
	}
	return d.total - (d.lastStart + d.cfg.BufLen)
}

// nextStart is the first stream position of the next run's span: the hop
// grid, anchored at 0 (at the default hop, the chunk grid).
func (d *Detector) nextStart() int {
	if d.lastStart < 0 {
		return d.total - d.buffered()
	}
	return d.lastStart + d.cfg.Hop
}

// Flush finishes the stream: it runs the ensemble over the still-uncovered
// tail (at the default hop, the final partial chunk),
// finalizes every remaining window score, emits any open dip as a last
// Event, and marks the detector flushed. Curve and Anomalies remain
// usable; further pushes return ErrFlushed. Flush is idempotent.
func (d *Detector) Flush() error {
	if d.flushed {
		return nil
	}
	d.flushed = true
	start := d.nextStart()
	if d.total-start >= d.cfg.Window && d.covered < d.total {
		if err := d.run(start, false); err != nil {
			return err
		}
	}
	d.finalizeScores(d.covered)
	if d.inDip {
		d.emit()
	}
	return nil
}

// run re-induces the ensemble over stream span [start, d.total) on the
// shared engine, stitches the resulting curve, finalizes newly-immutable
// window scores, and (for periodic runs) trims the stitched region back to
// its bounded size. The engine is told where the next run can start — the
// next hop position, or the end of the stream for the flush run — so it
// trims its token pipelines to there and keeps a member's grammar only
// while that run could extend it.
func (d *Detector) run(start int, trim bool) error {
	next := d.total
	if trim {
		next = start + d.cfg.Hop
	}
	res, err := d.eng.DetectSpan(d.ring, start, d.total, next, d.cfg.Seed+int64(d.runIdx)*engine.SeedStride)
	if err != nil && err != engine.ErrNoUsableCurves {
		return fmt.Errorf("stream: run %d [%d,%d): %w", d.runIdx, start, d.total, err)
	}

	// Extend the stitched region through d.total and accumulate. A
	// locally-constant span (ErrNoUsableCurves) contributes zero density
	// but full coverage: the stitched ranking treats it as unexplained,
	// as Detect treats a flat region inside its span.
	for d.pendOff+len(d.sum) < d.total {
		d.sum = append(d.sum, 0)
		d.cnt = append(d.cnt, 0)
	}
	for i := start; i < d.total; i++ {
		if res != nil {
			d.sum[i-d.pendOff] += res.Curve[i-start]
		}
		d.cnt[i-d.pendOff]++
	}
	d.runIdx++
	d.lastStart = start
	d.covered = d.total

	// Positions before this run's start can never be covered again:
	// their stitched values — and the window scores of every window
	// ending at or before start — are final.
	d.finalizeScores(start)
	if trim {
		d.trimTo(start - d.cfg.Window + 1)
	}
	return nil
}

// finalizeScores computes the stitched window scores for every window that
// lies entirely inside [0, end) and has not been scored yet, feeding each
// through the dip state machine.
func (d *Detector) finalizeScores(end int) {
	n := d.cfg.Window
	if end-d.scorePos < n {
		return
	}
	// Sliding mean of the averaged curve over [p, p+n).
	var winSum float64
	for i := d.scorePos; i < d.scorePos+n; i++ {
		winSum += d.avg(i)
	}
	inv := 1 / float64(n)
	for p := d.scorePos; p+n <= end; p++ {
		d.observe(p, winSum*inv)
		if p+n < end {
			winSum += d.avg(p+n) - d.avg(p)
		}
	}
	d.scorePos = end - n + 1
}

// avg is the stitched curve value at stream position p.
func (d *Detector) avg(p int) float64 {
	i := p - d.pendOff
	if d.cnt[i] == 0 {
		return 0
	}
	return d.sum[i] / d.cnt[i]
}

// threshold returns the event threshold in effect for the next finalized
// score: the fixed level, or the running quantile once it has warmed up.
func (d *Detector) threshold() float64 {
	if d.quant != nil && d.quant.Count() >= d.warmup {
		return d.quant.Value()
	}
	return d.cfg.Threshold
}

// observe advances the dip state machine with the final score of window
// start p. A maximal run of scores at or below the threshold is one dip;
// when it closes, its deepest window becomes an Event.
func (d *Detector) observe(p int, score float64) {
	thr := d.threshold()
	if d.quant != nil {
		d.quant.Add(score)
	}
	if score <= thr {
		if !d.inDip || score < d.dipMin {
			d.dipPos, d.dipMin = p, score
		}
		d.inDip = true
		return
	}
	if d.inDip {
		d.emit()
	}
}

func (d *Detector) emit() {
	d.inDip = false
	if d.cfg.OnEvent != nil {
		d.cfg.OnEvent(Event{Pos: d.dipPos, Length: d.cfg.Window, Density: d.dipMin})
	}
}

// trimTo drops stitched-curve entries before stream position p, keeping
// the region bounded by BufLen + Window - 1 entries.
func (d *Detector) trimTo(p int) {
	if p <= d.pendOff {
		return
	}
	k := p - d.pendOff
	if k > len(d.sum) {
		k = len(d.sum)
	}
	if d.final != nil {
		for i := d.pendOff; i < d.pendOff+k; i++ {
			d.final = append(d.final, d.avg(i))
		}
	}
	d.sum = d.sum[:copy(d.sum, d.sum[k:])]
	d.cnt = d.cnt[:copy(d.cnt, d.cnt[k:])]
	d.pendOff = p
}

// Curve returns the retained stitched ensemble curve and the stream
// position of its first value. The retained region spans at most the ring
// buffer plus the Window-1 points before it; with the default hop it is
// the corresponding suffix of StitchedCurve over the same points.
func (d *Detector) Curve() (start int, curve []float64) {
	start = d.total - d.buffered() - (d.cfg.Window - 1)
	if start < d.pendOff {
		start = d.pendOff
	}
	if start >= d.covered {
		return start, nil
	}
	curve = make([]float64, d.covered-start)
	for i := range curve {
		curve[i] = d.avg(start + i)
	}
	return start, curve
}

// StitchedCurve pushes the whole series through a fresh detector built
// from cfg, flushes it, and returns the stitched curve over every point:
// the chunk-and-stitch form of the batch detector (egi.DetectChunked),
// with chunks of BufLen points. Each value is collected as trimming
// finalizes it, so what stays resident is the ring, one stitch region and
// the returned curve.
func StitchedCurve(series []float64, cfg Config) ([]float64, error) {
	d, err := New(cfg)
	if err != nil {
		return nil, err
	}
	d.final = make([]float64, 0, len(series))
	if err := d.PushBatch(series); err != nil {
		return nil, err
	}
	if err := d.Flush(); err != nil {
		return nil, err
	}
	d.trimTo(d.covered) // hands the rest of the stitched region to d.final
	return d.final, nil
}

// Anomalies ranks the top-K anomalies over the retained stitched curve —
// the streaming analogue of Result.Anomalies, scoped to the detector's
// bounded horizon. Event emission is the mechanism for anomalies that have
// scrolled out of this horizon. Before the first run completes it returns
// ErrNotReady.
func (d *Detector) Anomalies() ([]Event, error) {
	start, curve := d.Curve()
	if len(curve) < d.cfg.Window {
		return nil, fmt.Errorf("%w: %d covered, window %d", ErrNotReady, len(curve), d.cfg.Window)
	}
	topK := d.cfg.TopK
	if topK == 0 {
		topK = engine.DefaultTopK
	}
	cands, err := grammar.RankAnomalies(curve, d.cfg.Window, topK)
	if err != nil {
		return nil, err
	}
	out := make([]Event, len(cands))
	for i, c := range cands {
		out[i] = Event{Pos: start + c.Pos, Length: c.Length, Density: c.Density}
	}
	return out, nil
}
