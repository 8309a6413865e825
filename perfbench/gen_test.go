package main

import (
	"bytes"
	"math/rand"
	"testing"

	"egi/internal/stream"
)

// planBytes serializes everything a plan sends: each request's target
// and its exact body bytes, in order.
func planBytes(w serveWorkload, seed int64) []byte {
	p := makePlan(w.spec(2), seed)
	var out bytes.Buffer
	for _, q := range p.reqs {
		b := encodeBody(p.ids[q.stream], p.points(q), w.jsonArray)
		out.WriteString(b.path)
		out.Write(b.data)
	}
	return out.Bytes()
}

func TestGeneratorByteDeterministic(t *testing.T) {
	for _, w := range []serveWorkload{fanout, durable} {
		a, b := planBytes(w, 42), planBytes(w, 42)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two plans from seed 42 differ", w.name)
		}
		if bytes.Equal(a, planBytes(w, 43)) {
			t.Errorf("%s: seeds 42 and 43 give the same plan", w.name)
		}
	}
	x, y := makeBatchInput(42, batchLen, batchWindow), makeBatchInput(42, batchLen, batchWindow)
	if !bytes.Equal(encodeBody("b", x.series, true).data, encodeBody("b", y.series, true).data) {
		t.Error("batch input from seed 42 is not byte-identical across calls")
	}
	if len(x.planted) == 0 {
		t.Error("batch input has no planted anomaly")
	}
}

// TestPrefillSpreadsHopPhases checks that every stream is prefilled past
// the memory plateau and that the streams' positions within one hop are
// spread across it, so their hop runs do not fire together.
func TestPrefillSpreadsHopPhases(t *testing.T) {
	for _, w := range []serveWorkload{fanout, durable} {
		p := makePlan(w.spec(2), 5)
		_, end := p.phaseReqs(phasePrefill)
		filled := make([]int, len(p.ids))
		for _, q := range p.reqs[:end] {
			filled[q.stream] = q.hi
		}
		phases := map[int]bool{}
		for s, n := range filled {
			if n < prefillBuffers*w.bufLen {
				t.Errorf("%s: stream %d prefilled with %d points, want >= %d", w.name, s, n, prefillBuffers*w.bufLen)
			}
			phases[(n-w.bufLen)%w.effHop()] = true
		}
		if len(phases) != len(filled) {
			t.Errorf("%s: %d streams share %d hop phases", w.name, len(filled), len(phases))
		}
	}
}

// TestCrossesRunMatchesDetector pins the hop-run arithmetic the benchmark
// uses to pick hop-run requests against the detector's own run counter.
func TestCrossesRunMatchesDetector(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, hop := range []int{0, 7, 81} {
		cfg := stream.Config{Window: 20, BufLen: 100, Hop: hop}
		d, err := stream.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eff := hop
		if eff == 0 {
			eff = cfg.BufLen - cfg.Window + 1
		}
		src := newECGSource(3, 20, 5, 9)
		total := 0
		for k := 0; k < 200; k++ {
			n := 1 + rng.Intn(40)
			before := d.Runs()
			if _, err := d.PushBatchN(src.next(nil, n)); err != nil {
				t.Fatal(err)
			}
			if got, want := crossesRun(total, total+n, cfg.BufLen, eff), d.Runs() > before; got != want {
				t.Fatalf("hop %d: push [%d,%d): crossesRun %v, detector fired %v", hop, total, total+n, got, want)
			}
			total += n
		}
	}
}
