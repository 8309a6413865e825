package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"egi/internal/core"
	"egi/internal/grammar"
	"egi/internal/manager"
	"egi/internal/router"
	"egi/internal/sax"
	"egi/internal/sequitur"
	"egi/internal/stat"
	"egi/internal/stream"
	"egi/internal/timeseries"
	"egi/internal/wal"
)

// The traced run replays a workload's exact inputs in-process, one layer
// per pass, through each layer's public functions, with a span around
// every call. Spans of one request share its plan index across passes, so
// a layer's self time is derived per request as its span minus the span
// of the layer below for the same request, pushed through that lower
// layer alone in the next pass. Spans sit in the benchmark's files, around
// calls into the program; the program itself is not instrumented.

// spanRec is one recorded call.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"` // the layer above, for the same request
	Req    int    `json:"req"`              // plan request index; -1 outside any request
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []spanRec
}

// span times fn as one call of the named layer.
func (t *tracer) span(name, parent string, req int, fn func() error) (time.Duration, error) {
	s := time.Now()
	err := fn()
	e := time.Now()
	t.spans = append(t.spans, spanRec{Name: name, Start: int64(s.Sub(t.epoch)), End: int64(e.Sub(t.epoch)), Parent: parent, Req: req})
	return e.Sub(s), err
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledger is one traced replay: the workload's configuration and inputs,
// the live run's per-request round trips, and the per-request durations
// each in-process pass measured.
type ledger struct {
	b      *bench
	w      serveWorkload
	plan   *servePlan
	run    *serveRun
	timed  []bool // requests whose self times count: the timed phases
	hopRun []bool // requests whose points fire a hop run
	t      *tracer

	routerPush, managerPush, streamPush []time.Duration
	shardOf                             []int // stream -> member index, from the router pass
}

func (w serveWorkload) streamConfig() stream.Config {
	return stream.Config{Window: w.window, BufLen: w.bufLen, Hop: w.hop}
}

func shardName(i int) string { return fmt.Sprintf("shard-%03d", i) }

func (l *ledger) managerConfig(dir string, events *manager.Broker) manager.Config {
	cfg := manager.Config{Stream: l.w.streamConfig(), SnapshotEvery: l.w.snapEvery, Events: events}
	if l.w.durable {
		cfg.DataDir = dir
	}
	return cfg
}

func (l *ledger) dir(name string) string { return filepath.Join(l.b.work, "ledger", name) }

// host is the layer egiserve calls: the router when sharded, else the
// one manager.
func (l *ledger) hostPush() []time.Duration {
	if l.w.shards > 1 {
		return l.routerPush
	}
	return l.managerPush
}

// routerPass pushes every request through a router over the workload's
// member count (one member where egiserve runs unrouted: the router is
// then off the end-to-end path, and this measures what it would add).
func (l *ledger) routerPass() (memDelta, error) {
	rep := l.b.rep
	broker := manager.NewBroker()
	defer broker.Close()
	var members []router.Member
	for i := 0; i < l.w.shards; i++ {
		m, err := manager.New(l.managerConfig(l.dir("router/"+shardName(i)), broker))
		if err != nil {
			return memDelta{}, err
		}
		members = append(members, router.Member{Name: shardName(i), Host: m})
	}
	r, err := router.New(router.Config{Members: members})
	if err != nil {
		return memDelta{}, err
	}
	defer r.Close()
	// Sized so the broker never blocks a push on this reader.
	events, cancel := r.Subscribe("", 1<<16)
	defer cancel()
	l.routerPush = make([]time.Duration, len(l.plan.reqs))
	mem := measureMem(func() {
		for i, q := range l.plan.reqs {
			id, pts := l.plan.ids[q.stream], l.plan.points(q)
			d, err := l.t.span("router.push", "egiserve.request", i, func() error { return pushAll(r.PushBatchN, id, pts) })
			rep.op(err)
			l.routerPush[i] = d
		}
	})
	// The manager pass places each stream on the member the router chose.
	l.shardOf = make([]int, len(l.plan.ids))
	for s, id := range l.plan.ids {
		st, err := r.StreamStats(id)
		if err != nil {
			return memDelta{}, err
		}
		if _, err := fmt.Sscanf(st.Shard, "shard-%d", &l.shardOf[s]); err != nil && l.w.shards > 1 {
			return memDelta{}, fmt.Errorf("stream %s on unknown shard %q", id, st.Shard)
		}
	}
	rep.set("router.lookups", float64(r.Metrics().Lookups), "count", len(l.plan.reqs))
	if l.w.shards > 1 {
		rep.set("manager.events_published", float64(len(events)), "count", len(l.plan.reqs))
	}
	return mem, nil
}

func pushAll(push func(string, []float64) (int, error), id string, pts []float64) error {
	n, err := push(id, pts)
	if err == nil && n != len(pts) {
		err = fmt.Errorf("%s: pushed %d of %d points", id, n, len(pts))
	}
	return err
}

// managerPass pushes every request straight into the manager that holds
// its stream, then times checkpoints.
func (l *ledger) managerPass() (memDelta, error) {
	rep := l.b.rep
	parent := "egiserve.request"
	if l.w.shards > 1 {
		parent = "router.push"
	}
	mgrs := make([]*manager.Manager, l.w.shards)
	subs := make([]<-chan manager.Event, l.w.shards)
	for i := range mgrs {
		m, err := manager.New(l.managerConfig(l.dir("manager/"+shardName(i)), nil))
		if err != nil {
			return memDelta{}, err
		}
		defer m.Close()
		mgrs[i] = m
		var cancel func()
		subs[i], cancel = m.Subscribe("", 1<<16)
		defer cancel()
	}
	l.managerPush = make([]time.Duration, len(l.plan.reqs))
	mem := measureMem(func() {
		for i, q := range l.plan.reqs {
			m := mgrs[l.shardOf[q.stream]]
			id, pts := l.plan.ids[q.stream], l.plan.points(q)
			d, err := l.t.span("manager.push", parent, i, func() error { return pushAll(m.PushBatchN, id, pts) })
			rep.op(err)
			l.managerPush[i] = d
		}
	})
	var bytes, degraded int64
	published := 0
	for i, m := range mgrs {
		st := m.Stats()
		bytes += st.TotalBytes
		degraded += st.Degraded
		published += len(subs[i])
	}
	rep.set("manager.bytes_per_stream", float64(bytes)/float64(len(l.plan.ids)), "bytes", len(l.plan.ids))
	rep.set("manager.degraded", float64(degraded), "count", len(l.plan.ids))
	if l.w.shards == 1 {
		rep.set("manager.events_published", float64(published), "count", len(l.plan.reqs))
	}

	// Checkpoints: the durable workload checkpoints on its own schedule;
	// a memory-only workload never does, so its streams are imported into
	// a durable scratch manager to time what a checkpoint would cost.
	auto := 0
	if l.w.durable {
		since := make([]int, len(l.plan.ids))
		for _, q := range l.plan.reqs {
			since[q.stream] += q.hi - q.lo
			if since[q.stream] >= l.w.snapEvery {
				auto++
				since[q.stream] = 0
			}
		}
	}
	rep.set("manager.checkpoints", float64(auto), "count", len(l.plan.reqs))
	var scratch *manager.Manager
	if !l.w.durable {
		cfg := l.managerConfig("", nil)
		cfg.DataDir = l.dir("checkpoint")
		var err error
		if scratch, err = manager.New(cfg); err != nil {
			return memDelta{}, err
		}
		defer scratch.Close()
	}
	var cps []float64
	for s, id := range l.plan.ids[:min(len(l.plan.ids), 16)] {
		m := mgrs[l.shardOf[s]]
		if scratch != nil {
			st, err := m.ExportStream(id)
			if err == nil {
				err = scratch.ImportStream(st)
			}
			if err != nil {
				return memDelta{}, err
			}
			m = scratch
		}
		for k := 0; k < max(1, 4/len(l.plan.ids)); k++ {
			d, err := l.t.span("manager.checkpoint", "", -1, func() error { return m.SnapshotStream(id) })
			rep.op(err)
			cps = append(cps, ms(d))
		}
	}
	rep.set("manager.checkpoint_ms_p50", median(cps), "ms", len(cps))
	return mem, nil
}

// streamPass pushes every request into a bare detector per stream and
// times snapshots and restores.
func (l *ledger) streamPass() ([]int, error) {
	rep := l.b.rep
	cfg := l.w.streamConfig()
	events := 0
	dets := make([]*stream.Detector, len(l.plan.ids))
	for s := range dets {
		c := cfg
		c.OnEvent = func(stream.Event) { events++ }
		d, err := stream.New(c)
		if err != nil {
			return nil, err
		}
		dets[s] = d
	}
	l.streamPush = make([]time.Duration, len(l.plan.reqs))
	var hop, perPoint []float64
	runs := 0
	for i, q := range l.plan.reqs {
		d, pts := dets[q.stream], l.plan.points(q)
		before := d.Runs()
		dur, err := l.t.span("stream.push", "manager.push", i, func() error {
			n, err := d.PushBatchN(pts)
			if err == nil && n != len(pts) {
				err = fmt.Errorf("pushed %d of %d points", n, len(pts))
			}
			return err
		})
		rep.op(err)
		l.streamPush[i] = dur
		if fired := d.Runs() - before; fired > 0 {
			runs += fired
			hop = append(hop, ms(dur)/float64(fired))
		} else {
			perPoint = append(perPoint, ns(dur)/float64(len(pts)))
		}
	}
	var foot int64
	var snapBytes, restore []float64
	sizes := make([]int, len(dets))
	for s, d := range dets {
		foot += d.MemoryFootprint()
		var snap []byte
		_, _ = l.t.span("stream.snapshot", "manager.checkpoint", -1, func() error { snap = d.Snapshot(); return nil })
		sizes[s] = len(snap)
		snapBytes = append(snapBytes, float64(len(snap)))
		for k := 0; k < max(1, 4/len(dets)); k++ {
			dur, err := l.t.span("stream.restore", "", -1, func() error { _, err := stream.Restore(cfg, snap); return err })
			rep.op(err)
			restore = append(restore, ms(dur))
		}
		dets[s] = nil // release the detector before the next restore
	}
	rep.set("stream.hop_runs", float64(runs), "count", len(hop))
	rep.set("stream.hop_run_ms_p50", median(hop), "ms", len(hop))
	rep.set("stream.hop_run_ms_p99", quantile(hop, 0.99), "ms", len(hop))
	rep.set("stream.push_ns_per_point", median(perPoint), "ns", len(perPoint))
	rep.set("stream.bytes_per_stream", float64(foot)/float64(len(dets)), "bytes", len(dets))
	rep.set("stream.snapshot_bytes", median(snapBytes), "bytes", len(snapBytes))
	rep.set("stream.restore_ms", median(restore), "ms", len(restore))
	rep.set("stream.events", float64(events), "count", len(l.plan.reqs))
	return sizes, nil
}

// walPass appends every request to one write-ahead log per stream, with
// checkpoints on the manager's schedule (its 8192-point default where the
// workload runs memory-only) and a final one per stream, using payloads of
// the stream pass's snapshot sizes; then times fsync and recovery.
func (l *ledger) walPass(snapSizes []int) error {
	rep := l.b.rep
	every := l.w.snapEvery
	if every == 0 {
		every = 8192
	}
	stores := make([]*wal.Store, len(l.plan.ids))
	logs := make([]*wal.StreamLog, len(l.plan.ids))
	for s, id := range l.plan.ids {
		st, err := wal.Open(l.dir("wal/"+id), wal.Options{})
		if err != nil {
			return err
		}
		lg, _, err := st.OpenStream(id)
		if err != nil {
			return err
		}
		stores[s], logs[s] = st, lg
	}
	since := make([]int, len(l.plan.ids))
	logged := 0.0
	var appends, snaps, syncs []float64
	checkpoint := func(s, total int) {
		logged += logBytes(stores[s].Dir())
		payload := make([]byte, snapSizes[s])
		d, err := l.t.span("wal.snapshot", "manager.checkpoint", -1, func() error { return logs[s].Snapshot(total, payload) })
		rep.op(err)
		snaps = append(snaps, ms(d))
		since[s] = 0
	}
	syncEvery := max(1, len(l.plan.reqs)/100)
	for i, q := range l.plan.reqs {
		pts := l.plan.points(q)
		d, err := l.t.span("wal.append", "manager.push", i, func() error { return logs[q.stream].Append(q.lo, pts) })
		rep.op(err)
		appends = append(appends, us(d))
		if i%syncEvery == 0 {
			d, err := l.t.span("wal.fsync", "manager.push", i, logs[q.stream].Sync)
			rep.op(err)
			syncs = append(syncs, ms(d))
		}
		since[q.stream] += len(pts)
		if since[q.stream] >= every {
			checkpoint(q.stream, q.hi)
		}
	}
	points := 0
	for s, series := range l.plan.series {
		points += len(series)
		checkpoint(s, len(series))
		rep.op(logs[s].Close())
	}
	var recov []float64
	for s, id := range l.plan.ids {
		d, err := l.t.span("wal.recover", "", -1, func() error { _, err := stores[s].Recover(id); return err })
		rep.op(err)
		recov = append(recov, ms(d))
	}
	rep.set("wal.append_us_p50", median(appends), "us", len(appends))
	rep.set("wal.bytes_per_point", logged/float64(points), "bytes", points)
	rep.set("wal.snapshot_ms_p50", median(snaps), "ms", len(snaps))
	rep.set("wal.recover_ms_per_stream", median(recov), "ms", len(recov))
	rep.set("wal.fsync_ms_p50", median(syncs), "ms", len(syncs))
	return nil
}

// logBytes sums the sizes of the log segments under a store directory.
func logBytes(dir string) float64 {
	files, _ := filepath.Glob(filepath.Join(dir, "*", "wal-*.log")) // the pattern is constant and valid
	total := 0.0
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			total += float64(st.Size())
		}
	}
	return total
}

// stagePass replays Detect stage by stage on each slice — SAX encoding of
// every member in one multi-resolution pass, then per member grammar
// induction and rule density, then the ensemble combination — single
// threaded, and times core.Detect on the same slice at the default
// parallelism and at Parallelism 1. The replayed ranking must equal
// Detect's.
func (l *ledger) stagePass(slices [][]float64, window, detectRepeats int) error {
	rep := l.b.rep
	var encode, induce, density, combine, detect, par1 float64
	words := 0
	for _, xs := range slices {
		cfg, err := core.Config{Window: window, Parallelism: 1}.Normalized()
		if err != nil {
			return err
		}
		f, err := timeseries.NewFeatures(xs)
		if err != nil {
			return err
		}
		params := core.GenerateParams(rand.New(rand.NewSource(cfg.Seed)), cfg.Size, cfg.WMax, cfg.AMax, cfg.Window)
		mr, err := sax.NewMultiResolver(cfg.AMax)
		if err != nil {
			return err
		}
		var toks [][]sax.Token
		d, err := l.t.span("sax.encode", "core.detect_par1", -1, func() (err error) {
			toks, err = sax.DiscretizeMany(f, window, params, mr)
			return err
		})
		if err != nil {
			return err
		}
		encode += ms(d)
		curves := make([]core.MemberCurve, len(params))
		for i, p := range params {
			b := sequitur.NewBuilder()
			pos := make([]int, 0, len(toks[i]))
			d, _ := l.t.span("sequitur.induce", "core.detect_par1", -1, func() error {
				for _, tk := range toks[i] {
					b.Push(tk.Word)
					pos = append(pos, tk.Pos)
				}
				return nil
			})
			induce += ms(d)
			words += len(toks[i])
			var curve []float64
			d, err := l.t.span("grammar.density", "core.detect_par1", -1, func() (err error) {
				curve, err = grammar.WindowedDensityInto(nil, b, pos, 0, len(xs), window)
				return err
			})
			if err != nil {
				return err
			}
			density += ms(d)
			curves[i] = core.MemberCurve{Params: p, Curve: curve, Std: stat.PopStd(curve)}
		}
		var staged *core.Result
		d, err = l.t.span("core.combine", "core.detect_par1", -1, func() (err error) {
			staged, err = core.CombineMembers(curves, cfg)
			return err
		})
		if err != nil {
			return err
		}
		combine += ms(d)

		var ref *core.Result
		d, err = l.t.span("core.detect_par1", "", -1, func() (err error) {
			ref, err = core.Detect(xs, cfg)
			return err
		})
		if err != nil {
			return err
		}
		par1 += ms(d)
		rep.check(reflect.DeepEqual(staged.Candidates, ref.Candidates), "stage-by-stage ranking %v differs from core.Detect %v", staged.Candidates, ref.Candidates)
		for k := 0; k < detectRepeats; k++ {
			d, err := l.t.span("core.detect", "", -1, func() error {
				_, err := core.Detect(xs, core.Config{Window: window})
				return err
			})
			if err != nil {
				return err
			}
			detect += ms(d) / float64(detectRepeats)
		}
	}
	n := float64(len(slices))
	stages := (encode + induce + density + combine) / n
	rep.set("sax.encode_ms", encode/n, "ms", len(slices))
	rep.set("sequitur.induce_ms", induce/n, "ms", len(slices))
	rep.set("grammar.density_ms", density/n, "ms", len(slices))
	rep.set("core.combine_ms", combine/n, "ms", len(slices))
	rep.set("core.detect_ms", detect/n, "ms", len(slices)*detectRepeats)
	rep.set("core.detect_ms_par1", par1/n, "ms", len(slices))
	rep.set("core.stage_gap_pct", 100*(par1/n-stages)/(par1/n), "%", len(slices))
	rep.set("sequitur.builder_ns_per_word", induce*1e6/float64(words), "ns", words)
	fmt.Printf("# stages per slice (%d slices): encode %.3f + induce %.3f + density %.3f + combine %.3f = %.3f ms vs Detect at Parallelism=1 %.3f ms (gap %.1f%%); default parallelism %.3f ms\n",
		len(slices), encode/n, induce/n, density/n, combine/n, stages, par1/n, 100*(par1/n-stages)/(par1/n), detect/n)
	return nil
}

// runPasses executes every pass, derives self times and the
// reconciliation, and returns the Go runtime activity of the host pass:
// the router where egiserve routes, else the manager.
func (l *ledger) runPasses() (memDelta, error) {
	rep := l.b.rep
	l.t.spans = append(l.t.spans, requestSpans(l.t.epoch, l.run.timings)...)
	routerMem, err := l.routerPass()
	if err != nil {
		return memDelta{}, fmt.Errorf("router pass: %w", err)
	}
	freeMemory()
	managerMem, err := l.managerPass()
	if err != nil {
		return memDelta{}, fmt.Errorf("manager pass: %w", err)
	}
	freeMemory()
	sizes, err := l.streamPass()
	if err != nil {
		return memDelta{}, fmt.Errorf("stream pass: %w", err)
	}
	freeMemory()
	if err := l.walPass(sizes); err != nil {
		return memDelta{}, fmt.Errorf("wal pass: %w", err)
	}

	all := l.reconcile("all requests", func(int) bool { return true }, true)
	l.reconcile("requests that fire no hop run", func(i int) bool { return !l.hopRun[i] }, false)
	l.reconcile("hop-run requests", func(i int) bool { return l.hopRun[i] }, false)
	rep.set("ledger.gap_pct", all, "%", len(l.run.timings))
	if l.w.shards > 1 {
		return routerMem, nil
	}
	return managerMem, nil
}

// reconcile sets or prints the self times of the timed requests keep
// selects, and returns the gap between the round-trip median and the sum
// of the medians of the layers on the request's path, as a share of the
// round-trip median.
func (l *ledger) reconcile(label string, keep func(int) bool, set bool) float64 {
	rep := l.b.rep
	var request, eSelf, rSelf, mSelf, sPush, rPush, mPush []float64
	host := l.hostPush()
	for i, tm := range l.run.timings {
		if !l.timed[i] || tm.err != nil || !keep(i) {
			continue
		}
		request = append(request, us(tm.service()))
		eSelf = append(eSelf, us(tm.service()-host[i]))
		rSelf = append(rSelf, us(l.routerPush[i]-l.managerPush[i]))
		mSelf = append(mSelf, us(l.managerPush[i]-l.streamPush[i]))
		sPush = append(sPush, us(l.streamPush[i]))
		rPush = append(rPush, us(l.routerPush[i]))
		mPush = append(mPush, us(l.managerPush[i]))
	}
	if len(request) == 0 {
		return 0
	}
	if set {
		rep.set("egiserve.request_us_p50", median(request), "us", len(request))
		rep.set("egiserve.self_us_p50", median(eSelf), "us", len(eSelf))
		rep.set("router.push_us_p50", median(rPush), "us", len(rPush))
		rep.set("router.self_us_p50", median(rSelf), "us", len(rSelf))
		rep.set("manager.push_us_p50", median(mPush), "us", len(mPush))
		rep.set("manager.self_us_p50", median(mSelf), "us", len(mSelf))
	}
	layers := median(eSelf) + median(mSelf) + median(sPush)
	path := "egiserve self %.1f + manager self %.1f + stream push %.1f"
	args := []any{median(eSelf), median(mSelf), median(sPush)}
	if l.w.shards > 1 {
		layers += median(rSelf)
		path = "egiserve self %.1f + router self %.1f + manager self %.1f + stream push %.1f"
		args = []any{median(eSelf), median(rSelf), median(mSelf), median(sPush)}
	}
	gap := 100 * (median(request) - layers) / median(request)
	fmt.Printf("# ledger %s, %s (n=%d): round trip p50 %.1f us vs "+path+" = %.1f us; gap %.1f%%%s\n",
		append(append([]any{l.w.name, label, len(request), median(request)}, args...), layers, gap, gapNote(gap))...)
	return gap
}

func gapNote(gap float64) string {
	if gap > 15 || gap < -15 {
		return " (outside 15%: medians of per-request differences do not add up to the round-trip median)"
	}
	return ""
}

// requestSpans records the live run's round trips as the root spans.
func requestSpans(epoch time.Time, ts []timing) []spanRec {
	out := make([]spanRec, 0, len(ts))
	for i, t := range ts {
		if t.sent.IsZero() {
			continue
		}
		out = append(out, spanRec{Name: "egiserve.request", Start: int64(t.sent.Sub(epoch)), End: int64(t.done.Sub(epoch)), Req: i})
	}
	return out
}

func setGoMetrics(rep *report, m memDelta, points int) {
	rep.set("go.allocs_per_point", float64(m.allocs)/float64(points), "count", points)
	rep.set("go.alloc_bytes_per_point", float64(m.bytes)/float64(points), "bytes", points)
	rep.set("go.gc_cycles", float64(m.gcs), "count", 1)
}

// freeMemory returns a finished pass's heap to the OS before the next
// pass builds its own, so passes do not stack their working sets.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setLoadgen records the live run's generator and server-side counts.
func setLoadgen(rep *report, run *serveRun, open []int) {
	var late, ack []float64
	for _, i := range open {
		late = append(late, ms(run.timings[i].late()))
		ack = append(ack, ms(run.timings[i].latency()))
	}
	sent, rejected := 0, 0
	for _, t := range run.timings {
		if t.sent.IsZero() {
			continue
		}
		sent++
		if t.err != nil {
			rejected++
		}
	}
	rep.set("loadgen.late_p99_ms", quantile(late, 0.99), "ms", len(late))
	rep.set("loadgen.requests", float64(sent), "count", sent)
	rep.set("loadgen.ack_p99_ms", quantile(ack, 0.99), "ms", len(ack))
	rep.set("egiserve.rejected", float64(rejected), "count", sent)
	rep.set("egiserve.sse_events", float64(run.sse), "count", sent)
}

func (l *ledger) finish() error {
	path := filepath.Join(l.b.traceDir, l.w.name+"-seed"+strconv.FormatInt(l.b.seed, 10)+".spans.jsonl")
	if err := l.t.write(path); err != nil {
		return err
	}
	fmt.Printf("# %d spans written to %s\n", len(l.t.spans), path)
	return nil
}

// traceServe is the traced run of a serving workload: the live run has
// already happened (its round trips are the egiserve spans); replay its
// inputs through every layer.
func traceServe(b *bench, w serveWorkload, run *serveRun, exp *expectation) error {
	p := run.plan
	l := &ledger{b: b, w: w, plan: p, run: run, timed: make([]bool, len(p.reqs)), hopRun: exp.hopRun, t: &tracer{epoch: time.Now()}}
	var open []int
	for i, q := range p.reqs {
		l.timed[i] = q.phase == phaseOpen || q.phase == phaseClosed
		if q.phase == phaseOpen {
			open = append(open, i)
		}
	}
	setLoadgen(b.rep, run, open)
	mem, err := l.runPasses()
	if err != nil {
		return err
	}
	points := 0
	for _, s := range p.series {
		points += len(s)
	}
	setGoMetrics(b.rep, mem, points)
	var slices [][]float64
	for _, s := range p.series[:min(len(p.series), 16)] {
		slices = append(slices, s[len(s)-w.bufLen:])
	}
	if err := l.stagePass(slices, w.window, 1); err != nil {
		return err
	}
	return l.finish()
}

// batchServe replays the batch series as one stream through the serving
// layers in the traced run: paper defaults, a default stream buffer, 100-
// point requests at a fixed rate. None of these layers is on
// batch_paper's end-to-end path; the ledger measures them on its input so
// every layer has a figure on every workload.
var batchServe = serveWorkload{name: "batch_paper", shards: 1, window: batchWindow, bufLen: bufSliceLen, rate: 200, streams: 1, body: 100}

func traceBatch(b *bench, in batchInput) error {
	rep := b.rep
	w := batchServe
	p := &servePlan{ids: []string{"batch"}, series: [][]float64{in.series}}
	for lo := 0; lo < len(in.series); lo += w.body {
		p.reqs = append(p.reqs, request{stream: 0, lo: lo, hi: min(lo+w.body, len(in.series)), phase: phaseOpen})
	}
	p.phaseEnd = [4]int{0, len(p.reqs), len(p.reqs), len(p.reqs)}
	exp, err := replayPlan(w, p, len(p.reqs))
	if err != nil {
		return err
	}
	run, err := liveReplay(b, w, p, exp)
	if err != nil {
		return err
	}
	l := &ledger{b: b, w: w, plan: p, run: run, timed: make([]bool, len(p.reqs)), hopRun: exp.hopRun, t: &tracer{epoch: time.Now()}}
	open := make([]int, len(p.reqs))
	for i := range p.reqs {
		l.timed[i] = true
		open[i] = i
	}
	setLoadgen(rep, run, open)
	if _, err := l.runPasses(); err != nil {
		return err
	}
	freeMemory()

	// Go runtime cost of the batch workload itself: warm Detect calls.
	if _, err := core.Detect(in.series, core.Config{Window: batchWindow}); err != nil {
		return err
	}
	const calls = 2
	mem := measureMem(func() {
		for k := 0; k < calls; k++ {
			_, err = core.Detect(in.series, core.Config{Window: batchWindow})
			rep.op(err)
		}
	})
	setGoMetrics(rep, mem, calls*len(in.series))
	if err := l.stagePass([][]float64{in.series}, batchWindow, 2); err != nil {
		return err
	}
	return l.finish()
}

// liveReplay pushes a plan through a fresh egiserve at the workload's
// fixed rate, checks its SSE events against the offline replay, and
// returns the round trips.
func liveReplay(b *bench, w serveWorkload, p *servePlan, exp *expectation) (*serveRun, error) {
	srv, _, err := startServer(b, w.args(""))
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	sub, err := subscribe(srv.base)
	if err != nil {
		return nil, err
	}
	run := &serveRun{plan: p, bodies: make([]body, len(p.reqs))}
	for i, q := range p.reqs {
		run.bodies[i] = encodeBody(p.ids[q.stream], p.points(q), w.jsonArray)
	}
	cli := newIngestClient(srv.base)
	defer cli.close()
	run.timings = openLoop(cli.send, run.bodies, w.rate)
	for _, t := range run.timings {
		b.rep.op(t.err)
	}
	want := 0
	for _, evs := range exp.events {
		want += len(evs)
	}
	sub.waitFor(want, 20*time.Second)
	got, health, err := sub.stop()
	b.rep.op(err)
	b.rep.check(health == 0, "%d SSE health frames: a stream degraded or was quarantined", health)
	run.sse = len(got)
	checkEvents(b.rep, p, exp, got, run.timings)
	return run, nil
}

// memDelta is the Go runtime's allocation and GC activity over a span.
type memDelta struct{ allocs, bytes, gcs uint64 }

func measureMem(fn func()) memDelta {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return memDelta{b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, uint64(b.NumGC - a.NumGC)}
}
