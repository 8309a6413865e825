package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"egi"
)

// serveWorkload describes one serving workload: how egiserve runs and
// what traffic it receives.
type serveWorkload struct {
	name      string
	shards    int
	durable   bool // -data-dir set (fsync stays off)
	jsonArray bool // JSON-array bodies instead of NDJSON
	window    int
	bufLen    int
	hop       int // 0 = the server default, bufLen-window+1
	snapEvery int
	// rate is the fixed open-loop request rate, about a quarter of what
	// one connection sustains on the reference container.
	rate float64
	// closedPerSec sizes the closed-loop phase: requests per measured
	// second, near what one connection sustains.
	closedPerSec float64
	streams      int
	zipf         float64
	minGap       int
	maxGap       int
	body         int
	cycleReqs    int // requests pushed before each durable kill
}

// fanout is serve_fanout: four shards behind the router, memory-only, many
// streams with 20-point bodies, so per-request layers and a working set
// far larger than the CPU caches dominate.
var fanout = serveWorkload{
	name: "serve_fanout", shards: 4, window: 100, bufLen: 1000,
	rate: 500, closedPerSec: 2000,
	streams: 48, zipf: 0.6, minGap: 8, maxGap: 20, body: 20,
}

// durable is serve_durable: one shard (no router), write-ahead logged with
// a checkpoint every 2048 points, hop 100 so the amortized resumable
// induction runs, large bodies so HTTP and routing costs stay small.
var durable = serveWorkload{
	name: "serve_durable", shards: 1, durable: true, jsonArray: true,
	window: 100, bufLen: 1000, hop: 100, snapEvery: 2048,
	rate: 90, closedPerSec: 360,
	streams: 8, zipf: 0, minGap: 5, maxGap: 12, body: 40, cycleReqs: 200,
}

const (
	prefillBuffers = 5  // past the per-stream memory plateau
	recoveryCycles = 5  // kill-and-restart cycles per run
	setupStarts    = 21 // server starts timed per run for setup_s
	// closedChunks splits the closed-loop phase; points_per_s is the
	// median chunk rate, so a brief stall from a neighbour on a shared
	// machine moves one chunk, not the figure.
	closedChunks = 8
)

func (w serveWorkload) effHop() int {
	if w.hop > 0 {
		return w.hop
	}
	return w.bufLen - w.window + 1
}

// spec sizes the plan: each timed phase is fixed work worth about half of
// the measured seconds.
func (w serveWorkload) spec(seconds float64) planSpec {
	s := planSpec{
		streams: w.streams, period: w.window, minGap: w.minGap, maxGap: w.maxGap, zipf: w.zipf,
		prefill: prefillBuffers * w.bufLen, hop: w.effHop(), prefillBody: w.bufLen, body: w.body,
		open:   int(math.Round(w.rate * seconds / 2)),
		closed: int(math.Round(w.closedPerSec * seconds / 2)),
	}
	if w.durable {
		s.cycles, s.cycleReqs = recoveryCycles, w.cycleReqs
	}
	return s
}

func (w serveWorkload) streamOptions() egi.StreamOptions {
	return egi.StreamOptions{Window: w.window, BufLen: w.bufLen, Hop: w.hop}
}

func (w serveWorkload) args(dataDir string) []string {
	a := []string{
		"-window", strconv.Itoa(w.window), "-buflen", strconv.Itoa(w.bufLen),
		"-shards", strconv.Itoa(w.shards), "-idle-after", "0",
	}
	if w.hop > 0 {
		a = append(a, "-hop", strconv.Itoa(w.hop))
	}
	if w.durable {
		a = append(a, "-data-dir", dataDir, "-snapshot-every", strconv.Itoa(w.snapEvery))
	}
	return a
}

// expectation is the offline egi.Stream replay of a plan: every stream's
// events, each tagged with the request whose points confirmed it, and
// which requests fired a hop run.
type expectation struct {
	events [][]expEvent
	hopRun []bool
}

type expEvent struct {
	a   egi.Anomaly
	req int
}

// replayPlan feeds requests [0, upTo) of the plan through one offline
// egi.Stream per stream, request by request, on two workers.
func replayPlan(w serveWorkload, p *servePlan, upTo int) (*expectation, error) {
	exp := &expectation{events: make([][]expEvent, len(p.ids)), hopRun: make([]bool, len(p.reqs))}
	byStream := make([][]int, len(p.ids))
	for i, r := range p.reqs[:upTo] {
		byStream[r.stream] = append(byStream[r.stream], i)
	}
	for i, r := range p.reqs {
		exp.hopRun[i] = crossesRun(r.lo, r.hi, w.bufLen, w.effHop())
	}
	jobs := make(chan int)
	errs := make([]error, len(p.ids))
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				errs[s] = replayStream(w, p, byStream[s], &exp.events[s])
			}
		}()
	}
	for s := range p.ids {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	return exp, errors.Join(errs...)
}

func replayStream(w serveWorkload, p *servePlan, reqs []int, out *[]expEvent) (err error) {
	// A panic on this worker goroutine would bypass the teardown in run.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replaying stream: panic: %v", r)
		}
	}()
	cur := -1
	opts := w.streamOptions()
	opts.OnAnomaly = func(a egi.Anomaly) { *out = append(*out, expEvent{a: a, req: cur}) }
	st, err := egi.Stream(opts)
	if err != nil {
		return err
	}
	for _, i := range reqs {
		cur = i
		if err := st.PushBatch(p.points(p.reqs[i])); err != nil {
			return err
		}
	}
	return nil
}

// crossesRun reports whether appending stream positions [lo, hi) fires a
// hop run: runs fire when the total reaches bufLen, then every hop points.
func crossesRun(lo, hi, bufLen, hop int) bool {
	if hi < bufLen {
		return false
	}
	// Smallest run total >= lo+1.
	k := 0
	if lo+1 > bufLen {
		k = (lo + 1 - bufLen + hop - 1) / hop
	}
	return bufLen+k*hop <= hi
}

// serveRun is what one end-to-end serving run observed; the traced run
// reuses it.
type serveRun struct {
	plan    *servePlan
	bodies  []body
	timings []timing // per plan request
	sse     int      // anomaly frames received before the first kill
}

func runServe(b *bench, w serveWorkload) error {
	rep := b.rep
	plan := makePlan(w.spec(b.seconds), b.seed)
	_, closedEnd := plan.phaseReqs(phaseClosed)
	exp, err := replayPlan(w, plan, closedEnd)
	if err != nil {
		return fmt.Errorf("offline replay: %w", err)
	}
	bodies := make([]body, len(plan.reqs))
	for i, r := range plan.reqs {
		bodies[i] = encodeBody(plan.ids[r.stream], plan.points(r), w.jsonArray)
	}

	// Set-up: exec to /healthz ready, timed over fresh starts in three
	// groups — before the run, after its timed phases and at its end — so
	// the figure spans the run's stretch of a shared machine's time.
	setup, err := timeStarts(b, w, setupStarts/3-1, "a")
	if err != nil {
		return err
	}
	dataDir := ""
	if w.durable {
		dataDir = filepath.Join(b.work, "data")
	}
	srv, d, err := startServer(b, w.args(dataDir))
	if err != nil {
		return err
	}
	setup = append(setup, d.Seconds())

	sub, err := subscribe(srv.base)
	if err != nil {
		return err
	}
	run := &serveRun{plan: plan, bodies: bodies, timings: make([]timing, len(plan.reqs))}
	cli := newIngestClient(srv.base)
	for phase := phasePrefill; phase <= phaseClosed; phase++ {
		lo, hi := plan.phaseReqs(phase)
		var ts []timing
		if phase == phaseOpen {
			ts = openLoop(cli.send, bodies[lo:hi], w.rate)
		} else {
			ts = closedLoop(cli.send, bodies[lo:hi])
		}
		copy(run.timings[lo:hi], ts)
		for _, t := range ts {
			rep.op(t.err)
		}
	}
	want := 0
	for _, evs := range exp.events {
		want += len(evs)
	}
	sub.waitFor(want, 20*time.Second)
	rss, err := vmHWM(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	got, health, subErr := sub.stop()
	rep.op(subErr)
	rep.check(health == 0, "%d SSE health frames: a stream degraded or was quarantined", health)
	run.sse = len(got)
	lags := checkEvents(rep, plan, exp, got, run.timings)
	cli.close()

	more, err := timeStarts(b, w, setupStarts/3, "b")
	if err != nil {
		return err
	}
	setup = append(setup, more...)
	recovery, err := measureRecovery(b, w, run, &srv, dataDir)
	srv.kill()
	if err != nil {
		return err
	}
	if more, err = timeStarts(b, w, setupStarts/3, "c"); err != nil {
		return err
	}
	setup = append(setup, more...)

	if b.trace {
		return traceServe(b, w, run, exp)
	}

	openLo, openHi := plan.phaseReqs(phaseOpen)
	var ack, hopAck []float64
	for i := openLo; i < openHi; i++ {
		l := ms(run.timings[i].latency())
		ack = append(ack, l)
		if exp.hopRun[i] {
			hopAck = append(hopAck, l)
		}
	}
	closedLo, _ := plan.phaseReqs(phaseClosed)
	var rates []float64
	for c := 0; c < closedChunks; c++ {
		lo := closedLo + c*(closedEnd-closedLo)/closedChunks
		hi := closedLo + (c+1)*(closedEnd-closedLo)/closedChunks
		points := 0
		for i := lo; i < hi; i++ {
			points += run.bodies[i].points
		}
		rates = append(rates, float64(points)/run.timings[hi-1].done.Sub(run.timings[lo].sent).Seconds())
	}
	rep.set("points_per_s", median(rates), "1/s", closedEnd-closedLo)
	rep.set("ack_p50_ms", median(ack), "ms", len(ack))
	rep.set("hoprun_ack_p50_ms", median(hopAck), "ms", len(hopAck))
	rep.set("event_lag_p50_ms", median(lags), "ms", len(lags))
	rep.set("rss_peak_mb", rss, "MB", 1)
	rep.set("setup_s", median(setup), "s", len(setup))
	rep.set("recovery_s", median(recovery), "s", len(recovery))
	fmt.Printf("# %s: open-loop ack p99 %.3f ms (n=%d), SSE events %d\n", w.name, quantile(ack, 0.99), len(ack), len(got))
	fmt.Printf("# %s: closed-loop chunk rates %.0f /s; recovery cycles %.3f s\n", w.name, rates, recovery)
	return nil
}

// timeStarts starts and kills n fresh servers (each durable one on an
// empty data directory, removed afterwards) and returns their set-up
// times in seconds.
func timeStarts(b *bench, w serveWorkload, n int, tag string) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		dir := ""
		if w.durable {
			dir = filepath.Join(b.work, "setup-"+tag+strconv.Itoa(i))
		}
		s, d, err := startServer(b, w.args(dir))
		if err != nil {
			return nil, err
		}
		s.kill()
		out = append(out, d.Seconds())
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// checkEvents compares each stream's SSE anomaly frames, in arrival
// order, with the offline replay's events bit for bit, and returns the
// event lags (receipt minus the due time of the confirming request) of
// the events confirmed in the timed phases.
func checkEvents(rep *report, p *servePlan, exp *expectation, got []sseEvent, ts []timing) []float64 {
	index := map[string]int{}
	for s, id := range p.ids {
		index[id] = s
	}
	per := make([][]sseEvent, len(p.ids))
	for _, ev := range got {
		s, ok := index[ev.Stream]
		if !ok {
			rep.check(false, "SSE event for unknown stream %q", ev.Stream)
			continue
		}
		per[s] = append(per[s], ev)
	}
	var lags []float64
	for s := range p.ids {
		want := exp.events[s]
		ok := len(per[s]) == len(want)
		for j := 0; ok && j < len(want); j++ {
			e, g := want[j].a, per[s][j]
			ok = e.Pos == g.Pos && e.Length == g.Length && math.Float64bits(e.Density) == math.Float64bits(g.Density)
			if ok && p.reqs[want[j].req].phase != phasePrefill {
				lags = append(lags, ms(g.at.Sub(ts[want[j].req].due)))
			}
		}
		rep.check(ok, "stream %s: SSE events %v differ from the offline egi.Stream replay %v", p.ids[s], per[s], want)
	}
	return lags
}

// measureRecovery measures recovery_s. Durable: checkpoint every stream,
// push the same fixed work to each (1000 points with the durable plan),
// SIGKILL, restart on the same data directory, and wait until every
// stream's point count equals its acknowledged count; every cycle thus
// replays a log tail of the same length. Memory-only: SIGKILL, restart, and
// resend every stream's last buffer, the state a memory-only deployment
// can rebuild; recovered when every resend is acknowledged.
func measureRecovery(b *bench, w serveWorkload, run *serveRun, srv **server, dataDir string) ([]float64, error) {
	rep := b.rep
	p := run.plan
	acked := make([]int, len(p.ids))
	_, closedEnd := p.phaseReqs(phaseClosed)
	for i, r := range p.reqs[:closedEnd] {
		if run.timings[i].err == nil {
			acked[r.stream] = r.hi
		}
	}
	var out []float64
	next := closedEnd
	for c := 0; c < recoveryCycles; c++ {
		if w.durable {
			cli := newIngestClient((*srv).base)
			for _, id := range p.ids {
				rep.op(cli.checkpoint(id))
			}
			hi := next + w.cycleReqs
			ts := closedLoop(cli.send, run.bodies[next:hi])
			cli.close()
			copy(run.timings[next:hi], ts)
			for k, t := range ts {
				rep.op(t.err)
				if t.err == nil {
					acked[p.reqs[next+k].stream] = p.reqs[next+k].hi
				}
			}
			next = hi
		}
		(*srv).kill()
		t0 := time.Now()
		s, _, err := startServer(b, w.args(dataDir))
		if err != nil {
			return nil, err
		}
		*srv = s
		if w.durable {
			ok := awaitPoints(s.base, p.ids, acked, 30*time.Second)
			rep.check(ok, "after restart %d the stream point counts differ from the acknowledged counts %v", c, acked)
		} else {
			cli := newIngestClient(s.base)
			for st, id := range p.ids {
				rep.op(cli.send(encodeBody(id, p.series[st][acked[st]-w.bufLen:acked[st]], w.jsonArray)))
			}
			cli.close()
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// awaitPoints polls GET /v1/streams until every stream reports exactly
// its acknowledged point count.
func awaitPoints(base string, ids []string, acked []int, limit time.Duration) bool {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if streamPointsMatch(hc, base, ids, acked) {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

func streamPointsMatch(hc *http.Client, base string, ids []string, acked []int) bool {
	resp, err := hc.Get(base + "/v1/streams")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var list struct {
		Streams []struct {
			ID     string `json:"id"`
			Points int    `json:"points"`
		} `json:"streams"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&list) != nil {
		return false
	}
	have := map[string]int{}
	for _, s := range list.Streams {
		have[s.ID] = s.Points
	}
	for i, id := range ids {
		if have[id] != acked[i] {
			return false
		}
	}
	return true
}
