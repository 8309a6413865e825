package main

import (
	"fmt"
	"math"
	"math/rand"
)

// span is a half-open [lo, hi) range of stream positions.
type span struct{ lo, hi int }

func (s span) overlaps(lo, hi int) bool { return s.lo < hi && lo < s.hi }

// ecgSource yields one ECG-like signal: PQRST beats of about period samples
// with heart-rate variability, baseline wander and sensor noise, and
// every gap beats (drawn from [minGap, maxGap]) one anomalous beat of a
// randomly chosen kind. It is driven by its own seeded generator, so a
// stream's samples depend only on its seed, never on how many samples
// other streams drew.
type ecgSource struct {
	rng            *rand.Rand
	period         int
	minGap, maxGap int

	i                  int // next sample index
	beatStart, beatLen int
	kind               int // anomaly kind of the current beat; -1 normal
	scale              float64
	untilAnomaly       int
	planted            []span
}

func newECGSource(seed int64, period, minGap, maxGap int) *ecgSource {
	g := &ecgSource{
		rng:    rand.New(rand.NewSource(seed)),
		period: period, minGap: minGap, maxGap: maxGap,
		kind: -1, beatLen: period,
	}
	g.untilAnomaly = g.gap()
	return g
}

func (g *ecgSource) gap() int { return g.minGap + g.rng.Intn(g.maxGap-g.minGap+1) }

func bump(x, c, w float64) float64 { d := (x - c) / w; return math.Exp(-0.5 * d * d) }

// startBeat draws the next beat's length and decides whether it is the
// next planted anomaly.
func (g *ecgSource) startBeat() {
	g.beatStart = g.i
	// Heart-rate variability stays within ±15%, so no normal beat is as
	// unusual as a planted one and the planted beats are the true anomalies.
	v := max(-0.15, min(0.15, 0.05*g.rng.NormFloat64()))
	g.beatLen = g.period + int(v*float64(g.period))
	g.kind = -1
	g.untilAnomaly--
	if g.untilAnomaly <= 0 {
		g.untilAnomaly = g.gap()
		g.kind = g.rng.Intn(4)
		g.scale = 0.9 + 0.4*g.rng.Float64()
		g.planted = append(g.planted, span{g.beatStart, g.beatStart + g.beatLen})
	}
}

// next appends n samples to dst.
func (g *ecgSource) next(dst []float64, n int) []float64 {
	for k := 0; k < n; k++ {
		if g.i == 0 || g.i-g.beatStart >= g.beatLen {
			g.startBeat()
		}
		x := float64(g.i-g.beatStart) / float64(g.beatLen)
		var v float64
		switch g.kind {
		case 0: // ventricular-like: no P wave, wide inverted complex
			v = g.scale * (-0.9*bump(x, 0.4, 0.06) + 0.5*bump(x, 0.65, 0.08))
		case 1: // dropout: the beat is missing
			v = 0
		case 2: // ST elevation with a tall, wide T wave
			v = 0.12*bump(x, 0.18, 0.04) + 1.2*bump(x, 0.38, 0.012) +
				g.scale*(0.45*bump(x, 0.5, 0.1)+0.5*bump(x, 0.66, 0.06))
		case 3: // premature double complex
			v = g.scale * (1.1*bump(x, 0.25, 0.012) + 1.1*bump(x, 0.55, 0.012) - 0.3*bump(x, 0.6, 0.01))
		default:
			v = 0.12*bump(x, 0.18, 0.04) + 1.2*bump(x, 0.38, 0.012) -
				0.28*bump(x, 0.42, 0.01) + 0.3*bump(x, 0.62, 0.05)
		}
		wander := 0.1 * math.Sin(2*math.Pi*float64(g.i)/(13.7*float64(g.period)))
		dst = append(dst, v+wander+0.03*g.rng.NormFloat64())
		g.i++
	}
	return dst
}

// Phases of a serving workload's request plan.
const (
	phasePrefill = iota // untimed warm-up past the memory plateau
	phaseOpen           // fixed-rate, open-loop
	phaseClosed         // back-to-back, closed-loop
	phaseCycle          // fixed work before each kill-and-restart cycle
)

// request is one ingest request of a plan: points [lo, hi) of one stream.
type request struct {
	stream int
	lo, hi int
	phase  int
}

// servePlan is a serving workload's complete input: every stream's series
// and the ordered requests that carry it. The program under test receives
// exactly these points, nothing else.
type servePlan struct {
	ids      []string
	series   [][]float64
	reqs     []request
	phaseEnd [4]int // index one past each phase's last request
}

// phaseReqs returns the index range of one phase's requests.
func (p *servePlan) phaseReqs(phase int) (int, int) {
	lo := 0
	if phase > 0 {
		lo = p.phaseEnd[phase-1]
	}
	return lo, p.phaseEnd[phase]
}

// planSpec sizes a serving plan.
type planSpec struct {
	streams     int
	period      int     // beat length, equal to the detector window
	minGap      int     // beats between planted anomalies: lower bound
	maxGap      int     // and upper bound
	zipf        float64 // stream-choice skew exponent; 0 = uniform
	prefill     int     // points per stream before timing (>= 5 buffers)
	hop         int     // hop-run stride the prefill offsets spread across
	prefillBody int     // points per prefill request
	body        int     // points per timed request
	open        int     // requests in the fixed-rate phase
	closed      int     // requests in the closed-loop phase
	cycles      int     // kill-and-restart cycles
	cycleReqs   int     // requests before each cycle's kill, round-robin
}

// makePlan builds a serving plan deterministically from the seed. Each
// stream's prefill is prefill plus its own offset: the offsets are a
// seeded permutation of evenly spaced phases across one hop, so the
// streams' hop runs start spread out instead of firing together.
func makePlan(spec planSpec, seed int64) *servePlan {
	rng := rand.New(rand.NewSource(seed))
	p := &servePlan{
		ids:    make([]string, spec.streams),
		series: make([][]float64, spec.streams),
	}
	used := make([]int, spec.streams)
	add := func(s, n, phase int) {
		p.reqs = append(p.reqs, request{stream: s, lo: used[s], hi: used[s] + n, phase: phase})
		used[s] += n
	}
	perm := rng.Perm(spec.streams)
	for s := 0; s < spec.streams; s++ {
		p.ids[s] = streamID(s)
		total := spec.prefill + perm[s]*spec.hop/spec.streams
		for used[s] < total {
			add(s, min(spec.prefillBody, total-used[s]), phasePrefill)
		}
	}
	p.phaseEnd[phasePrefill] = len(p.reqs)

	cum := make([]float64, spec.streams)
	acc := 0.0
	for s := range cum {
		acc += 1 / math.Pow(float64(s+1), spec.zipf)
		cum[s] = acc
	}
	// The popularity order is a seeded shuffle, so which stream is hot
	// (and therefore which hop phases collide) changes with the seed.
	hot := rng.Perm(spec.streams)
	pick := func() int {
		u := rng.Float64() * acc
		for s, c := range cum {
			if u < c {
				return hot[s]
			}
		}
		return hot[len(hot)-1]
	}
	for k := 0; k < spec.open; k++ {
		add(pick(), spec.body, phaseOpen)
	}
	p.phaseEnd[phaseOpen] = len(p.reqs)
	for k := 0; k < spec.closed; k++ {
		add(pick(), spec.body, phaseClosed)
	}
	p.phaseEnd[phaseClosed] = len(p.reqs)
	// Cycle work is round-robin, the same number of points for every
	// stream, so the log tail a restart replays has a fixed length.
	for k := 0; k < spec.cycles*spec.cycleReqs; k++ {
		add(k%spec.streams, spec.body, phaseCycle)
	}
	p.phaseEnd[phaseCycle] = len(p.reqs)

	for s := range p.series {
		src := newECGSource(seed*1_000_003+int64(s)+1, spec.period, spec.minGap, spec.maxGap)
		p.series[s] = src.next(make([]float64, 0, used[s]), used[s])
	}
	return p
}

func streamID(s int) string { return fmt.Sprintf("s%02d", s) }

// points returns the samples one request carries.
func (p *servePlan) points(r request) []float64 { return p.series[r.stream][r.lo:r.hi] }

// batchInput is the batch workload's series and its planted anomalies.
type batchInput struct {
	series  []float64
	planted []span
}

// makeBatchInput builds the batch series: 50k samples at one beat per
// detector window, with an anomalous beat every 60 to 90 beats.
func makeBatchInput(seed int64, length, window int) batchInput {
	src := newECGSource(seed*7_919+3, window, 60, 90)
	s := src.next(make([]float64, 0, length), length)
	var planted []span
	for _, sp := range src.planted {
		if sp.lo < length { // a beat cut off by the series end is still planted
			planted = append(planted, span{sp.lo, min(sp.hi, length)})
		}
	}
	return batchInput{series: s, planted: planted}
}
