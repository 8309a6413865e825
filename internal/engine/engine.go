// Package engine is the reusable detection core both faces of the library
// are thin layers over: the batch detectors (internal/core, egi.Detect) and
// the online detector (internal/stream: egi.Stream, and egi.DetectChunked,
// which pushes a whole series through it).
//
// An Engine owns one ensemble configuration's long-lived resources — the
// multi-resolution SAX resolver, the (w,a) parameter grid, per-member
// incremental discretization pipelines, and pooled hot-path scratch
// (per-PAA-size encode buffers, per-member curve buffers) — and
// runs Algorithm 1 of the paper over *spans* of one logical series:
//
//	res, err := eng.DetectSpan(src, start, end, next, seed)
//
// src is any global-coordinate prefix-sum store (timeseries.Features for a
// series in memory, timeseries.RingFeatures for a bounded stream window).
// Because every window's SAX word is computed from range sums addressed by
// global position, a word is the same float-for-float no matter which span
// asks for it. That makes re-discretization incremental: when a hop shifts
// the span by H points, each member pipeline keeps the token sequence for
// the overlapping region and encodes only the H new suffix windows, with
// numerosity-reduction run state resumed at the seam — and the result is
// bit-identical to discretizing the new span from scratch (the property
// tests pin this).
//
// next is the caller's promise about the future: no later span starts
// before it (a stream passes its next hop position, a one-off batch run its
// end, and 0 promises nothing). The engine uses it to drop what no later
// span can read — pipeline tokens before next, and the grammar of every
// member that any span starting at or after next would rebase.
//
// Grammar induction is amortized like discretization: each member holds a
// resumable sequitur.Builder fed the incremental token suffix its pipeline
// produces, so a hop appends O(hop) tokens instead of re-inducing the
// O(span) sequence, and the rule density curve is computed from the live
// grammar restricted to the span (grammar.WindowedDensityInto). The
// builder's grammar is anchored at an epoch base at or before the span
// start; a rebase rebuilds it over exactly the current span — on a
// member's first run, on seams (token gaps, trimmed history), whenever
// consecutive spans share no windows (which keeps every span of the
// default-hop schedule, and so every egi.DetectChunked chunk, bit-identical
// to an independent run over that span),
// and periodically per Config.RebaseEvery so rules anchored in expired
// tokens don't accumulate. Between rebases the grammar sees the tokens of
// every span since the epoch base — more context than a per-span
// induction; the amortized property tests pin that the resumable state is
// always exactly the grammar a from-scratch induction over the epoch's
// tokens would build. A member keeps its builder only while a span starting
// at or after next could extend its epoch. Otherwise (at the default hop,
// after every run) its task hands the builder and its fed positions to a
// free list of at most Config.Parallelism entries, and the next rebasing
// member takes its storage from there instead of allocating its own.
// Curve combination then runs per span exactly as in
// the batch detector: the survivors are read, never rewritten, by one pass
// over the span's columns that normalizes each gathered value and takes
// the column's median, and grammar.RankAnomalies picks the top K in K
// linear scans.
//
// The member stage of a span is a pipeline of tasks sharing the
// Config.Parallelism slots. Members that share a PAA size w share the §6.2
// multi-resolution work (one PAA and one breakpoint resolution per window),
// so encoding runs as one task per w: the size's sax.Encoder, the window
// walk the single-run detectors use too, brings that group's pipelines up
// to the span's last window; the task then frees its slot and starts one
// task per group member for induction and the density curve. Induction of
// one group thus overlaps the encoding of the others. The combination runs
// once every member task is done; its column pass is split into at most
// Parallelism contiguous blocks that run concurrently, so what stays on
// one core after the member stage is the selection of the kept curves and
// the K ranking scans. Each task writes only its own members' state (a
// column block only its own columns) and a word depends only on its
// window, so results are identical at every Parallelism, including 1. The
// single-run detector (grammar.Detect) is one such member run over a
// whole series.
package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"egi/internal/grammar"
	"egi/internal/sax"
	"egi/internal/sequitur"
	"egi/internal/stat"
)

// Defaults used by the paper's experiments (§7, first paragraph).
const (
	DefaultEnsembleSize = 50
	DefaultWMax         = 10
	DefaultAMax         = 10
	DefaultTau          = 0.4
	DefaultTopK         = 3
)

// SeedStride separates the parameter-generation seeds of consecutive spans
// on a chunk/hop grid: span k runs with seed base + k*SeedStride. The
// streaming hop runs (internal/stream, and through it the chunks of
// egi.DetectChunked) use it, and reference loops in tests seed their
// spans the same way.
const SeedStride = 1000003

// Combiner selects how the surviving normalized curves are merged.
type Combiner int

const (
	// CombineMedian is the paper's combiner: the pointwise median.
	CombineMedian Combiner = iota
	// CombineMean is the ablation alternative: the pointwise mean.
	CombineMean
)

// Normalizer selects how each surviving curve is rescaled before merging.
type Normalizer int

const (
	// NormalizeMax divides by the curve maximum (the paper's choice: zero
	// densities stay exactly zero).
	NormalizeMax Normalizer = iota
	// NormalizeMinMax is the ablation alternative the paper argues
	// against: (x-min)/(max-min) moves nonzero minima to zero.
	NormalizeMinMax
)

// Config parameterizes the ensemble detector. The zero value is not valid;
// fill in Window and rely on Normalized() for the rest.
type Config struct {
	// Window is the sliding window length n. Required.
	Window int
	// Size is the ensemble size N (number of (w,a) combinations).
	Size int
	// WMax and AMax bound the random parameter ranges [2, WMax] × [2, AMax].
	WMax, AMax int
	// Tau is the ensemble selectivity: the fraction of curves, ranked by
	// descending standard deviation, kept for combination. (0, 1].
	Tau float64
	// TopK is the number of ranked anomaly candidates to return.
	TopK int
	// Seed drives the random parameter generation; runs with equal Seed
	// and otherwise equal inputs are deterministic.
	Seed int64
	// Combine selects the curve combiner (median by default).
	Combine Combiner
	// Normalize selects the per-curve normalization (max by default).
	Normalize Normalizer
	// Parallelism caps concurrent encode and member tasks — the
	// per-PAA-size SAX encoding and the per-member induction/density-curve
	// work of one span — and the column blocks of its combination; <= 0
	// means GOMAXPROCS, and 1 runs the same work in sequence. Results do
	// not depend on it.
	Parallelism int
	// RebaseEvery bounds how many spans a member's resumable induction
	// epoch may cover before its grammar is rebuilt over the current span
	// alone. 0 (the default) selects the adaptive schedule: rebase when
	// consecutive spans share no windows, and whenever the epoch's window
	// extent exceeds twice the span's — which keeps per-span semantics at
	// non-overlapping hop schedules (each default-hop span, and so each
	// DetectChunked chunk, is an independent run) and amortized-O(hop)
	// induction at overlapping ones.
	// K >= 1 rebases each member after K spans it participated in; larger
	// K retains more grammar context (and more token history in memory)
	// between rebuilds, K = 1 forces per-span induction everywhere.
	RebaseEvery int
	// RebuildEachRun forces every run to rebuild its members' induction
	// state from scratch over the epoch's full token range instead of
	// appending the new suffix, following the exact same rebase schedule.
	// It is the reference semantics of the amortized induction — the
	// property tests assert the two modes are bit-identical — at O(span)
	// induction cost per run; leave it off outside tests and ablations.
	// It needs the full epoch token history, so it cannot be combined
	// with FromScratch, and the engine does not trim its pipelines to a
	// span call's next.
	RebuildEachRun bool
	// FromScratch disables incremental re-discretization: every span
	// re-encodes all of its windows. Results are identical either way
	// (the property tests assert exactly that); the flag exists as the
	// ablation baseline and for the tests themselves. It does not affect
	// grammar induction, which consumes the same tokens in both modes.
	FromScratch bool
}

// Normalized returns the config with defaults filled in, or an error if a
// field is out of range. Callers that build long-lived detectors on top of
// Config (e.g. internal/stream) use it to surface configuration errors at
// construction time rather than on the first detection run.
func (c Config) Normalized() (Config, error) {
	if c.Size == 0 {
		c.Size = DefaultEnsembleSize
	}
	if c.WMax == 0 {
		c.WMax = DefaultWMax
	}
	if c.AMax == 0 {
		c.AMax = DefaultAMax
	}
	if c.Tau == 0 {
		c.Tau = DefaultTau
	}
	if c.TopK == 0 {
		c.TopK = DefaultTopK
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.Window < 2:
		return c, fmt.Errorf("engine: window must be >= 2, got %d", c.Window)
	case c.Size < 1:
		return c, fmt.Errorf("engine: ensemble size must be >= 1, got %d", c.Size)
	case c.WMax < 2:
		return c, fmt.Errorf("engine: wmax must be >= 2, got %d", c.WMax)
	case c.AMax < 2 || c.AMax > sax.MaxAlphabet:
		return c, fmt.Errorf("engine: amax must be in [2, %d], got %d", sax.MaxAlphabet, c.AMax)
	case c.Tau < 0 || c.Tau > 1:
		return c, fmt.Errorf("engine: tau must be in (0, 1], got %v", c.Tau)
	case c.TopK < 1:
		return c, fmt.Errorf("engine: topK must be >= 1, got %d", c.TopK)
	case c.RebaseEvery < 0:
		return c, fmt.Errorf("engine: rebase interval must be >= 0, got %d", c.RebaseEvery)
	case c.RebuildEachRun && c.FromScratch:
		return c, errors.New("engine: RebuildEachRun needs the incremental token history; it cannot be combined with FromScratch")
	}
	return c, nil
}

// Member records one ensemble member's run.
type Member struct {
	Params sax.Params // the (w, a) combination
	Std    float64    // standard deviation of its rule density curve
	Kept   bool       // survived the selectivity cut
}

// MemberCurve is one ensemble member's full output: its parameters, its
// rule density curve, and the curve's standard deviation (the selection
// statistic of Algorithm 1). Exposing members separately lets parameter
// sweeps (ensemble size N, selectivity τ) reuse the expensive induction
// work across settings.
type MemberCurve struct {
	Params sax.Params
	Curve  []float64
	Std    float64
}

// Result is the outcome of one ensemble detection over a span. Positions
// (curve indices, candidate starts) are span-local.
type Result struct {
	// Curve is the ensemble rule density curve d_e, each point in [0, 1].
	Curve []float64
	// Candidates are the ranked anomaly candidates (ascending density).
	Candidates []grammar.Candidate
	// Members documents every ensemble member, in generation order.
	Members []Member
}

// ErrNoUsableCurves is returned when every member produced a degenerate
// (zero-variance, zero-max) curve — e.g. on a constant span.
var ErrNoUsableCurves = errors.New("engine: no usable rule density curves (is the series constant?)")

// Source is the data access an Engine needs: constant-time range sums over
// a retained span of global positions, the source its encoders walk.
// timeseries.Features (First()==0, whole series) and
// timeseries.RingFeatures (rolling window of a stream) both implement it.
type Source = sax.WindowSource

// group is one PAA size's encode task: the span's members with that size,
// their pipelines, and the size's encoder. Groups touch disjoint member
// pipelines, so they encode concurrently.
type group struct {
	members []int                 // member indices (generation order) with this PAA size
	pipes   []*sax.IncrementalSeq // their pipelines, in the same order
	enc     *sax.Encoder          // the size's window walk and its scratch
}

// memberState is one (w,a) member's resumable induction state, surviving
// across spans like its discretization pipeline: the live grammar over the
// epoch's tokens, the global window position of every token fed (aligned
// with the builder's token indices — what maps rule occurrences back to
// stream positions), and the epoch bookkeeping driving the rebase
// schedule. The builder holds word ids of the member's pipeline
// dictionary. It is nil, with no fed positions, while no later span can
// extend the epoch: until the member's first rebase, and from the run after
// which every span the caller can still ask for would rebase it (see
// Engine.rebasesFrom). A rebase then takes a builder from the engine's free
// list, or allocates one sized from the epoch's token count.
type memberState struct {
	b     *sequitur.Builder
	pos   []int // global window start per fed token
	base  int   // global window position the epoch is anchored at
	fedTo int   // last global window index fed into the builder
	runs  int   // spans participated in since the last rebase
}

// spare is a released member's induction storage, kept warm on the
// engine's free list for the next rebasing member.
type spare struct {
	b   *sequitur.Builder
	pos []int
}

// Engine runs the ensemble pipeline over spans of one logical series. It
// is not safe for concurrent use (its internal parallelism is confined to
// the encode and member tasks within a call); give each goroutine its own
// Engine or serialize access.
type Engine struct {
	cfg Config
	mr  *sax.MultiResolver

	// Parameter generation: the full (w,a) grid in generation order and a
	// reseedable rng, so drawing a span's members allocates nothing.
	grid   []sax.Params
	draw   []sax.Params
	rng    *rand.Rand
	seqSel []*sax.IncrementalSeq // members' pipelines for the current span

	// Incremental per-member pipelines, keyed by (w,a), surviving across
	// spans. Bound source, high-water mark and the last span's next guard
	// against misuse: a new source, a regressing span end or a span
	// starting before the promised next resets every pipeline.
	pipes   map[sax.Params]*sax.IncrementalSeq
	src     Source
	lastEnd int
	next    int

	// Amortized per-member induction states, keyed and lifecycled like
	// pipes; inductSel is the members' states for the current span, in
	// generation order (selected serially in prepare so the member
	// goroutines never touch the map).
	induct    map[sax.Params]*memberState
	inductSel []*memberState

	// Free list of released members' builders and fed-position records,
	// at most Config.Parallelism long. Member tasks share it.
	spareMu sync.Mutex
	spares  []spare

	// Pooled hot-path scratch.
	groups  []group       // encode tasks, indexed by PAA size
	curves  []MemberCurve // member outputs for the current span (curve storage reused)
	comb    combiner      // combination scratch, reused across spans
	errs    []error
	sem     chan struct{} // one token per running encode or member task
	running sync.WaitGroup

	// footprint memoizes MemoryFootprint; fpOK is cleared by every call
	// that can change what the engine retains.
	footprint int64
	fpOK      bool

	onRebase func(vocab, retained int) // see SetRebaseHook
}

// New builds an engine for the configuration. The returned engine has no
// bound data yet; the first DetectSpan/MemberCurves call binds it to a
// Source.
func New(cfg Config) (*Engine, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	mr, err := sax.NewMultiResolver(cfg.AMax)
	if err != nil {
		return nil, err
	}
	wmax := cfg.WMax
	if wmax > cfg.Window {
		wmax = cfg.Window
	}
	var grid []sax.Params
	for w := 2; w <= wmax; w++ {
		for a := 2; a <= cfg.AMax; a++ {
			grid = append(grid, sax.Params{W: w, A: a})
		}
	}
	groups := make([]group, wmax+1)
	for w := 2; w <= wmax; w++ {
		if groups[w].enc, err = sax.NewEncoder(mr, cfg.Window, w); err != nil {
			return nil, err
		}
	}
	return &Engine{
		cfg:    cfg,
		mr:     mr,
		grid:   grid,
		rng:    rand.New(rand.NewSource(0)),
		pipes:  make(map[sax.Params]*sax.IncrementalSeq),
		induct: make(map[sax.Params]*memberState),
		groups: groups,
		sem:    make(chan struct{}, cfg.Parallelism),
	}, nil
}

// Config returns the engine's normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

// drawParams reproduces core.GenerateParams for this engine's grid without
// allocating: reseed, copy the pristine grid into the draw scratch,
// shuffle, truncate to the ensemble size.
func (e *Engine) drawParams(seed int64) []sax.Params {
	e.rng.Seed(seed)
	e.draw = append(e.draw[:0], e.grid...)
	e.rng.Shuffle(len(e.draw), func(i, j int) { e.draw[i], e.draw[j] = e.draw[j], e.draw[i] })
	if e.cfg.Size < len(e.draw) {
		e.draw = e.draw[:e.cfg.Size]
	}
	return e.draw
}

// bind attaches the engine to a source, resetting every pipeline when the
// source changes, the span end regresses or the span starts before the
// last call's next (the incremental invariants hold only along one
// monotonically advancing series, and released grammars and trimmed tokens
// only as far as that promise). It opens every DetectSpan and MemberCurves
// call, so it also clears the footprint memo for the retained state those
// calls are about to change.
func (e *Engine) bind(src Source, start, end int) {
	if src != e.src || end < e.lastEnd || start < e.next {
		// Drop every pipeline and induction state; each is rebuilt from
		// scratch at the next span that draws its parameters.
		for p := range e.pipes {
			delete(e.pipes, p)
		}
		for p := range e.induct {
			delete(e.induct, p)
		}
		e.src, e.next = src, 0
	}
	e.lastEnd = end
	e.fpOK = false
}

// checkSpan validates a span request against the configuration and source.
func (e *Engine) checkSpan(src Source, start, end int) error {
	if src == nil {
		return errors.New("engine: nil source")
	}
	if end-start < e.cfg.Window {
		return fmt.Errorf("engine: span [%d,%d) shorter than window %d", start, end, e.cfg.Window)
	}
	if start < src.First() || end > src.End() {
		return fmt.Errorf("engine: span [%d,%d) outside retained [%d,%d)", start, end, src.First(), src.End())
	}
	if len(e.grid) == 0 {
		return errors.New("engine: no valid parameter combinations")
	}
	return nil
}

// prepare draws the span's members, selects their pipelines and induction
// states (creating missing ones, resetting stale pipelines to the span start
// so they re-discretize from scratch) and assigns each member to its PAA
// size's encode group. It runs serially, so the tasks never touch the maps.
func (e *Engine) prepare(src Source, start int, seed int64) []sax.Params {
	params := e.drawParams(seed)
	e.seqSel = e.seqSel[:0]
	e.inductSel = e.inductSel[:0]
	for w := range e.groups {
		e.groups[w].members = e.groups[w].members[:0]
		e.groups[w].pipes = e.groups[w].pipes[:0]
	}
	for i, p := range params {
		seq, ok := e.pipes[p]
		if !ok {
			seq = sax.NewIncrementalSeq(p, start)
			e.pipes[p] = seq
		}
		if e.cfg.FromScratch || seq.NextWin() < src.First() {
			seq.Reset(start)
		}
		e.seqSel = append(e.seqSel, seq)
		st, ok := e.induct[p]
		if !ok {
			st = &memberState{}
			e.induct[p] = st
		}
		e.inductSel = append(e.inductSel, st)
		g := &e.groups[p.W]
		g.members = append(g.members, i)
		g.pipes = append(g.pipes, seq)
	}
	return params
}

// runMembers executes the member stage of the span (lines 4–8 of
// Algorithm 1) as the task pipeline the package comment describes, each
// task holding one of the Config.Parallelism tokens of e.sem while it runs.
// On return e.curves[i] is member i's output.
func (e *Engine) runMembers(src Source, params []sax.Params, start, end, next int) error {
	if cap(e.curves) < len(params) {
		e.curves = make([]MemberCurve, len(params))
	}
	e.curves = e.curves[:len(params)]
	if cap(e.errs) < len(params) {
		e.errs = make([]error, len(params))
	}
	e.errs = e.errs[:len(params)]
	for i := range e.errs {
		e.errs[i] = nil
	}
	for w := range e.groups {
		g := &e.groups[w]
		if len(g.members) == 0 {
			continue
		}
		e.running.Add(1)
		e.sem <- struct{}{}
		go e.runGroup(g, src, params, start, end, next)
	}
	e.running.Wait()
	for _, err := range e.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runGroup is one PAA size's encode task: it encodes the group, frees its
// token, then starts its members' tasks.
func (e *Engine) runGroup(g *group, src Source, params []sax.Params, start, end, next int) {
	defer e.running.Done()
	err := g.enc.Encode(src, g.pipes, end-e.cfg.Window)
	<-e.sem
	for _, i := range g.members {
		if err != nil {
			e.errs[i] = err
			continue
		}
		e.running.Add(1)
		e.sem <- struct{}{}
		go e.runMember(i, params[i], start, end, next)
	}
}

// runMember is one member's task: advance its resumable induction to the
// span, build its rule density curve into the member's pooled buffer, and
// release the member's grammar if no span starting at or after next can
// extend it.
func (e *Engine) runMember(i int, p sax.Params, start, end, next int) {
	defer e.running.Done()
	defer func() { <-e.sem }()
	n := e.cfg.Window
	st := e.inductSel[i]
	if err := e.advanceInduction(st, e.seqSel[i], start, end-n); err != nil {
		e.errs[i] = err
		return
	}
	curve, err := grammar.WindowedDensityInto(e.curves[i].Curve, st.b, st.pos, start, end, n)
	if err != nil {
		e.errs[i] = err
		return
	}
	e.curves[i] = MemberCurve{Params: p, Curve: curve, Std: stat.PopStd(curve)}
	if e.rebasesFrom(st, next) {
		e.release(st)
	}
}

// release hands a member's builder and fed positions to the free list, or
// to the garbage collector once the list holds Config.Parallelism entries
// (no more builders than that are ever being rebuilt at once), leaving the
// member to rebase at its next run.
func (e *Engine) release(st *memberState) {
	e.spareMu.Lock()
	if len(e.spares) < e.cfg.Parallelism {
		e.spares = append(e.spares, spare{st.b, st.pos[:0]})
	}
	e.spareMu.Unlock()
	st.b, st.pos = nil, nil
}

// takeSpare returns a reset builder and an empty fed-position record from
// the free list, or a new builder presized for sizeHint tokens when the
// list is empty.
func (e *Engine) takeSpare(sizeHint int) (*sequitur.Builder, []int) {
	e.spareMu.Lock()
	n := len(e.spares)
	if n == 0 {
		e.spareMu.Unlock()
		return sequitur.NewBuilderSize(sizeHint), nil
	}
	sp := e.spares[n-1]
	e.spares[n-1] = spare{}
	e.spares = e.spares[:n-1]
	e.spareMu.Unlock()
	sp.b.Reset()
	return sp.b, sp.pos
}

// rebuildInduction re-induces one member's grammar from scratch over the
// windows [anchor, lastWin]: the builder is reset (storage stays warm) and
// fed the pipeline's covering tokens for that range in place, with the
// fed-position record rebuilt in global coordinates. The first covering
// token may start before the anchor; it stands in for the run it was cut
// out of, so it is re-anchored to the anchor itself.
//
// A rebase is the one moment the builder holds no ids of the pipeline's
// dictionary, so it is also where the dictionary is compacted once it has
// outgrown the retained tokens (2× plus a constant): between rebases it
// grows only by the words of the windows encoded since the last one.
func (e *Engine) rebuildInduction(st *memberState, seq *sax.IncrementalSeq, anchor, lastWin int) error {
	toks, err := seq.Covering(anchor, lastWin)
	if err != nil {
		return err
	}
	if seq.VocabLen() > 2*seq.Len()+64 {
		seq.Compact() // renumbers toks in place
	}
	if e.onRebase != nil {
		e.onRebase(seq.VocabLen(), seq.Len())
	}
	if st.b == nil {
		st.b, st.pos = e.takeSpare(len(toks))
	} else {
		st.b.Reset()
	}
	if cap(st.pos) < len(toks) {
		st.pos = make([]int, 0, len(toks))
	}
	st.pos = append(st.pos[:0], anchor)
	st.b.PushID(toks[0].ID)
	for _, tk := range toks[1:] {
		st.b.PushID(tk.ID)
		st.pos = append(st.pos, tk.Pos)
	}
	return nil
}

// SetRebaseHook installs fn (nil removes it) as the engine's rebase
// observer: after every member rebase it receives the member pipeline's
// dictionary size and retained token count, right after any compaction.
// It is a test seam for the pipelines' dictionary bound. fn runs on the
// engine's member tasks, concurrently, so it must be safe for concurrent
// use; install it before the engine's first span.
func (e *Engine) SetRebaseHook(fn func(vocab, retained int)) { e.onRebase = fn }

// advanceInduction brings one member's resumable induction state up to
// date with the span whose windows are [start, lastWin]: either a rebase —
// reset the builder and re-induce exactly the span's token sequence,
// re-anchoring the epoch at the span start — or an incremental append of
// the tokens for the windows fed since the member's last participation.
// The rebase schedule (see Config.RebaseEvery) depends only on the span
// grid and the member's participation history, never on discretization
// mode or timing, which is what keeps FromScratch/incremental and
// RebuildEachRun/amortized runs bit-identical. It touches only this
// member's state, so members advance concurrently.
func (e *Engine) advanceInduction(st *memberState, seq *sax.IncrementalSeq, start, lastWin int) error {
	spanW := lastWin - start + 1
	fresh := st.b == nil || st.b.Len() == 0
	// A span starting before the epoch or after history the member's
	// pipeline has dropped rebases too. So does, under the adaptive
	// schedule, an epoch whose extent would pass twice the span's: that
	// caps retained history at ~2 spans and amortizes the O(span) rebuild
	// over at least a span's worth of appends.
	rebase := fresh || st.base > start || st.fedTo < seq.TrimmedTo()-1 || e.rebasesFrom(st, start) ||
		e.cfg.RebaseEvery == 0 && lastWin+1-st.base > 2*spanW
	if rebase {
		if err := e.rebuildInduction(st, seq, start, lastWin); err != nil {
			return err
		}
		st.base, st.fedTo, st.runs = start, lastWin, 1
		return nil
	}
	if e.cfg.RebuildEachRun {
		// Reference semantics: re-induce the whole epoch from scratch,
		// keeping the existing anchor.
		if err := e.rebuildInduction(st, seq, st.base, lastWin); err != nil {
			return err
		}
	} else if lastWin > st.fedTo {
		suffix, err := seq.Suffix(st.fedTo, lastWin)
		if err != nil {
			return err
		}
		// Ids compare like the words they stand for: a pipeline reset
		// keeps its dictionary, and compaction happens only at a rebase.
		last, _ := st.b.LastID()
		for _, tk := range suffix {
			if tk.ID == last {
				// A re-emitted run head at a pipeline reset seam (the
				// numerosity run restarted mid-word); the canonical
				// continuation of the epoch's sequence skips it.
				continue
			}
			st.b.PushID(tk.ID)
			st.pos = append(st.pos, tk.Pos)
			last = tk.ID
		}
	}
	if lastWin > st.fedTo {
		st.runs++
		st.fedTo = lastWin
	}
	return nil
}

// rebasesFrom reports whether every span starting at or after start rebases
// the member, whatever its end: the part of advanceInduction's rebase test
// that depends on the start alone. A gap in the fed windows forces a
// rebase, since the epoch's token sequence must stay contiguous; so do K
// participations under RebaseEvery = K; and so, under the adaptive
// schedule, does a span sharing no windows with the epoch (per-span
// semantics when spans do not overlap). Each clause that holds at start
// holds at every later start, so after a run, rebasesFrom(st, next) means
// no span the caller can still ask for will read the member's grammar.
func (e *Engine) rebasesFrom(st *memberState, start int) bool {
	if start > st.fedTo+1 {
		return true
	}
	if k := e.cfg.RebaseEvery; k > 0 {
		return st.runs >= k
	}
	return start > st.fedTo
}

// DetectSpan runs Algorithm 1 over the span [start, end) of the source,
// with the given parameter-generation seed, and returns the combined curve
// (span-local, values in [0,1]), the ranked candidates, and the member
// bookkeeping. next is the earliest start any later span on this engine
// can have (0 promises nothing; see the package comment); a later span
// that starts before it is served from scratch. Member curves live in
// pooled buffers and are read, never rewritten, by the combination; the
// returned Result owns fresh memory and survives further engine use.
func (e *Engine) DetectSpan(src Source, start, end, next int, seed int64) (*Result, error) {
	if err := e.memberStage(src, start, end, next, seed); err != nil {
		return nil, err
	}
	return e.comb.combine(e.curves, e.cfg)
}

// memberStage runs lines 4–8 of Algorithm 1 over the span into e.curves,
// then lets the pipelines drop every token no span starting at or after
// next can need. Under RebuildEachRun the epochs re-read their full token
// history, so nothing is trimmed.
func (e *Engine) memberStage(src Source, start, end, next int, seed int64) error {
	if err := e.checkSpan(src, start, end); err != nil {
		return err
	}
	e.bind(src, start, end)
	params := e.prepare(src, start, seed)
	if err := e.runMembers(src, params, start, end, next); err != nil {
		return err
	}
	e.next = next
	if !e.cfg.RebuildEachRun {
		for _, seq := range e.pipes {
			seq.TrimBefore(next)
		}
	}
	return nil
}

// MemberCurves runs only the member stage of the span (lines 4–8 of
// Algorithm 1) and returns one MemberCurve per drawn (w,a) combination, in
// generation order. The curves are fresh copies, safe to retain across
// further engine use — this is the entry point for parameter sweeps that
// recombine one member set under many (τ, combiner) settings. next is as
// for DetectSpan.
func (e *Engine) MemberCurves(src Source, start, end, next int, seed int64) ([]MemberCurve, error) {
	if err := e.memberStage(src, start, end, next, seed); err != nil {
		return nil, err
	}
	out := make([]MemberCurve, len(e.curves))
	for i, m := range e.curves {
		out[i] = MemberCurve{
			Params: m.Params,
			Curve:  append([]float64(nil), m.Curve...),
			Std:    m.Std,
		}
	}
	return out, nil
}

// MemoryFootprint is the engine's retained-memory accounting in bytes: the
// per-member incremental pipelines (tokens + word bytes), the resumable
// induction states of the members a later span can still extend (grammar
// arena + tables + fed-position records, each bounded by the rebase
// schedule's epoch extent), the free list of released builders and their
// position records (at most Config.Parallelism), plus the pooled hot-path
// scratch (per-member curve buffers, parameter grid and draw buffer,
// encode-group buffers, combination scratch). It deliberately
// counts the deterministic, capacity-based footprint of the buffers the
// engine owns — the quantities its bounded-memory guarantees are about —
// rather than chasing Go runtime allocator truth. The dominant terms are
// the pipelines, induction states and curve buffers, all bounded by the
// span length (times the bounded epoch factor) the owner feeds it, so a
// streaming owner's engine footprint plateaus once the hop schedule
// reaches steady state. The value is memoized between the calls that can
// change it, so serving layers may read it after every push.
func (e *Engine) MemoryFootprint() int64 {
	if !e.fpOK {
		e.footprint, e.fpOK = e.computeFootprint(), true
	}
	return e.footprint
}

// computeFootprint walks every retained buffer; MemoryFootprint memoizes it.
func (e *Engine) computeFootprint() int64 {
	var total int64
	for _, seq := range e.pipes {
		total += seq.MemoryBytes()
	}
	for _, st := range e.induct {
		if st.b != nil {
			total += st.b.MemoryBytes()
		}
		total += int64(cap(st.pos)) * 8
	}
	for _, sp := range e.spares {
		total += sp.b.MemoryBytes() + int64(cap(sp.pos))*8
	}
	const stringHeader, memberCurveSize = 16, 48
	const spareSize = 32 // builder pointer + position slice header
	for _, m := range e.curves[:cap(e.curves)] {
		total += int64(cap(m.Curve)) * 8
	}
	total += int64(cap(e.grid)+cap(e.draw)) * stringHeader // sax.Params: two ints
	total += int64(cap(e.seqSel)+cap(e.inductSel)) * 8
	total += int64(cap(e.spares)) * spareSize
	for _, g := range e.groups {
		total += int64(cap(g.members)+cap(g.pipes)) * 8
		if g.enc != nil {
			total += g.enc.MemoryBytes()
		}
	}
	total += int64(cap(e.curves)) * memberCurveSize
	total += e.comb.memoryBytes()
	total += int64(cap(e.errs)) * stringHeader
	return total
}

// PipeState is the portable form of one member's discretization pipeline,
// tagged with the member's parameters.
type PipeState struct {
	// Params is the member's (w, a) combination.
	Params sax.Params
	// Seq is the pipeline's captured token state.
	Seq sax.SeqState
}

// InductState is the portable form of one member's resumable induction
// state. The grammar itself is not walked: a Sequitur grammar is a lossless
// encoding of its pushed token sequence, so Words (the expanded sequence,
// ids rendered through the member pipeline's dictionary) plus a
// deterministic re-induction reproduce it exactly. A member whose grammar
// was released (no later span could extend it) or never built has no Pos
// and no Words, and its next run rebases it.
type InductState struct {
	// Params is the member's (w, a) combination.
	Params sax.Params
	// Base is the global window position the epoch is anchored at.
	Base int
	// FedTo is the last global window index fed into the builder.
	FedTo int
	// Runs counts spans participated in since the last rebase.
	Runs int
	// Pos is the global window start of every fed token, in push order.
	Pos []int
	// Words is the fed token sequence, in push order (len == len(Pos)).
	Words []string
}

// State is the engine's complete resumable state: everything that survives
// across spans. Scratch buffers and pooled arenas are deliberately absent —
// they are rebuilt on demand and carry no detection semantics. Members are
// sorted by (w, a) so equal engines produce equal states.
type State struct {
	// LastEnd is the high-water span end, guarding bind's regression check.
	LastEnd int
	// Pipes holds every member pipeline's state.
	Pipes []PipeState
	// Induct holds every member's resumable induction state.
	Induct []InductState
}

// State captures the engine's resumable state for serialization. Word ids
// are rendered back into words, so the state holds no engine-internal
// numbering.
func (e *Engine) State() State {
	st := State{LastEnd: e.lastEnd}
	for p, seq := range e.pipes {
		st.Pipes = append(st.Pipes, PipeState{Params: p, Seq: seq.State()})
	}
	var ids []int32
	for p, ms := range e.induct {
		is := InductState{
			Params: p,
			Base:   ms.base,
			FedTo:  ms.fedTo,
			Runs:   ms.runs,
			Pos:    append([]int(nil), ms.pos...),
		}
		if ms.b != nil {
			ids = ms.b.AppendIDs(ids[:0])
			is.Words = e.pipes[p].Words(ids)
		}
		st.Induct = append(st.Induct, is)
	}
	sortParams := func(a, b sax.Params) bool { return a.W < b.W || (a.W == b.W && a.A < b.A) }
	sort.Slice(st.Pipes, func(i, j int) bool { return sortParams(st.Pipes[i].Params, st.Pipes[j].Params) })
	sort.Slice(st.Induct, func(i, j int) bool { return sortParams(st.Induct[i].Params, st.Induct[j].Params) })
	return st
}

// RestoreState rebinds the engine to src and reinstates a captured state:
// pipelines are reconstructed from their token records and induction
// grammars re-induced from their fed sequences (bit-identical to the
// captured grammars, by the resumable property), each word interned through
// its member pipeline's dictionary. The engine must be freshly
// constructed with the same configuration the state was captured under;
// subsequent DetectSpan calls continue exactly where the captured engine
// left off.
func (e *Engine) RestoreState(src Source, st State) error {
	if len(e.pipes) != 0 || len(e.induct) != 0 {
		return errors.New("engine: RestoreState needs a fresh engine")
	}
	for _, ps := range st.Pipes {
		if err := checkWords(ps.Seq.Params, ps.Seq.Tokens, ps.Seq.Prev); err != nil {
			return err
		}
		e.pipes[ps.Params] = sax.RestoreSeq(ps.Seq)
	}
	for _, is := range st.Induct {
		if len(is.Pos) != len(is.Words) {
			return fmt.Errorf("engine: induction state %v: %d positions, %d words", is.Params, len(is.Pos), len(is.Words))
		}
		seq, ok := e.pipes[is.Params]
		if !ok {
			return fmt.Errorf("engine: induction state %v has no pipeline", is.Params)
		}
		for _, w := range is.Words {
			if !is.Params.ValidWord(w) {
				return fmt.Errorf("engine: induction state %v: %q is not one of its words", is.Params, w)
			}
		}
		ms := &memberState{
			pos:   append([]int(nil), is.Pos...),
			base:  is.Base,
			fedTo: is.FedTo,
			runs:  is.Runs,
		}
		if len(is.Words) > 0 {
			ms.b = sequitur.NewBuilderSize(len(is.Words))
			for _, w := range is.Words {
				ms.b.PushID(seq.Intern(w))
			}
		}
		e.induct[is.Params] = ms
	}
	e.src = src
	e.lastEnd = st.LastEnd
	e.fpOK = false
	return nil
}

// checkWords rejects a captured pipeline whose words are not SAX words of
// its parameters; the dictionaries intern only such words.
func checkWords(p sax.Params, toks []sax.Token, prev string) error {
	if prev != "" && !p.ValidWord(prev) {
		return fmt.Errorf("engine: pipeline %v: run word %q is not one of its words", p, prev)
	}
	for _, t := range toks {
		if !p.ValidWord(t.Word) {
			return fmt.Errorf("engine: pipeline %v: token %q is not one of its words", p, t.Word)
		}
	}
	return nil
}

// Combine performs lines 9–14 of Algorithm 1 on caller-owned precomputed
// member curves: rank by standard deviation, keep the top tau fraction,
// normalize each survivor, merge, and rank anomalies on the combined curve.
// The inputs are not mutated. Only cfg.Tau, cfg.Window, cfg.TopK,
// cfg.Combine, cfg.Normalize and cfg.Parallelism are used, so callers can
// sweep the first five cheaply over one set of members.
func Combine(memberCurves []MemberCurve, cfg Config) (*Result, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	var cb combiner
	return cb.combine(memberCurves, cfg)
}

// combiner is the scratch of lines 9–14 of Algorithm 1, which an engine
// keeps across spans. Survivors are never rewritten: each keeps its curve
// and the normalization to apply (stat.Scale), and the column kernels
// apply it as they gather a column.
type combiner struct {
	stds    []float64
	kept    [][]float64
	scales  []stat.Scale
	scratch []stat.ColumnScratch // one per column block
}

// memoryBytes is the combiner's retained scratch, at capacity.
func (cb *combiner) memoryBytes() int64 {
	const sliceHeader, scaleSize = 24, 24
	total := int64(cap(cb.stds))*8 + int64(cap(cb.kept))*sliceHeader + int64(cap(cb.scales))*scaleSize
	for i := range cb.scratch {
		total += cb.scratch[i].MemoryBytes()
	}
	return total
}

func (cb *combiner) combine(memberCurves []MemberCurve, cfg Config) (*Result, error) {
	if len(memberCurves) == 0 {
		return nil, errors.New("engine: no member curves")
	}
	members := make([]Member, len(memberCurves))
	stds := cb.stds[:0]
	for i, m := range memberCurves {
		members[i] = Member{Params: m.Params, Std: m.Std}
		stds = append(stds, m.Std)
	}
	cb.stds = stds

	keep := int(cfg.Tau * float64(len(memberCurves)))
	if keep < 1 {
		keep = 1
	}
	if keep > len(memberCurves) {
		keep = len(memberCurves)
	}
	order := stat.ArgSortDesc(stds)
	kept, scales := cb.kept[:0], cb.scales[:0]
	for _, idx := range order[:keep] {
		if stds[idx] <= 0 {
			// A flat curve carries no anomaly signal; never include it,
			// even if that leaves fewer than keep survivors.
			continue
		}
		members[idx].Kept = true
		curve := memberCurves[idx].Curve
		if cfg.Normalize == NormalizeMinMax {
			scales = append(scales, stat.MinMaxScale(curve))
		} else {
			scales = append(scales, stat.MaxScale(curve))
		}
		kept = append(kept, curve)
	}
	cb.kept, cb.scales = kept, scales
	if len(kept) == 0 {
		return nil, ErrNoUsableCurves
	}
	width := len(kept[0])
	for _, c := range kept[1:] {
		if len(c) != width {
			return nil, errors.New("engine: member curves have unequal lengths")
		}
	}

	curve := make([]float64, width)
	cb.columns(curve, cfg)
	cands, err := grammar.RankAnomalies(curve, cfg.Window, cfg.TopK)
	if err != nil {
		return nil, err
	}
	return &Result{Curve: curve, Candidates: cands, Members: members}, nil
}

// columns fills curve with the merged survivors in one pass over the
// columns, split into at most cfg.Parallelism contiguous blocks that run
// concurrently, each with its own column scratch. A column's value depends
// on that column alone (the sort order a block carries from column to
// column only makes sorting cheaper), so the curve does not depend on
// Parallelism.
func (cb *combiner) columns(curve []float64, cfg Config) {
	blocks := min(cfg.Parallelism, len(curve))
	for len(cb.scratch) < blocks {
		cb.scratch = append(cb.scratch, stat.ColumnScratch{})
	}
	block := func(k int) {
		lo, hi := k*len(curve)/blocks, (k+1)*len(curve)/blocks
		if cfg.Combine == CombineMean {
			stat.ColumnMeans(curve, cb.kept, cb.scales, lo, hi)
			return
		}
		stat.ColumnMedians(curve, cb.kept, cb.scales, lo, hi, &cb.scratch[k])
	}
	var wg sync.WaitGroup
	for k := 1; k < blocks; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			block(k)
		}()
	}
	if blocks > 0 {
		block(0)
	}
	wg.Wait()
}
