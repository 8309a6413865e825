package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ingestClient sends ingest requests over exactly one keep-alive
// connection, so requests queue behind one another the way a single
// producer's do.
type ingestClient struct {
	hc   *http.Client
	base string
}

func newIngestClient(base string) *ingestClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &ingestClient{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *ingestClient) close() { c.hc.CloseIdleConnections() }

// body is one pre-encoded ingest request.
type body struct {
	path        string
	contentType string
	data        []byte
	points      int
}

// encodeBody renders points as an NDJSON body (one number per line) or,
// with jsonArray, as one JSON array. Both encodings round-trip float64
// exactly.
func encodeBody(id string, pts []float64, jsonArray bool) body {
	var b []byte
	ct := "application/x-ndjson"
	if jsonArray {
		ct = "application/json"
		b = append(b, '[')
		for i, v := range pts {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	} else {
		for _, v := range pts {
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
			b = append(b, '\n')
		}
	}
	return body{path: "/v1/streams/" + id + "/points", contentType: ct, data: b, points: len(pts)}
}

// send posts one body and checks the server applied every point.
func (c *ingestClient) send(b body) error {
	resp, err := c.hc.Post(c.base+b.path, b.contentType, bytes.NewReader(b.data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", b.path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var ack struct {
		Pushed int `json:"pushed"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		return fmt.Errorf("%s: decoding ack: %w", b.path, err)
	}
	if ack.Pushed != b.points {
		return fmt.Errorf("%s: pushed %d of %d points", b.path, ack.Pushed, b.points)
	}
	return nil
}

// checkpoint forces a durability checkpoint of one stream.
func (c *ingestClient) checkpoint(id string) error {
	resp, err := c.hc.Post(c.base+"/v1/streams/"+id+"/snapshot", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("checkpoint %s: HTTP %d: %s", id, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return nil
}

// timing is one request's schedule and outcome. In an open loop due is
// when the schedule said to send; in a closed loop it equals sent. ready
// is when the generator was free to send it: its due time, or the
// previous acknowledgment if that came later (one connection carries one
// request at a time).
type timing struct {
	due, ready, sent, done time.Time
	err                    error
}

// latency is the time from due to acknowledgment: a stall delays every
// request due behind it, and this counts that wait.
func (t timing) latency() time.Duration { return t.done.Sub(t.due) }

// service is the round trip alone, from send to acknowledgment.
func (t timing) service() time.Duration { return t.done.Sub(t.sent) }

// late is how long the generator itself took to send the request once it
// was due and the connection was free: its own scheduling delay, apart
// from any wait the server imposed.
func (t timing) late() time.Duration { return t.sent.Sub(t.ready) }

// openLoop sends bodies on a fixed schedule of rate per second, whether
// or not earlier requests have completed; with one connection a slow
// request delays those due behind it, and each is timed from its due
// time so the delay shows.
func openLoop(send func(body) error, bodies []body, rate float64) []timing {
	out := make([]timing, len(bodies))
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(2 * time.Millisecond)
	var prev time.Time
	for i, b := range bodies {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ready := due
		if prev.After(due) {
			ready = prev
		}
		sent := time.Now()
		err := send(b)
		prev = time.Now()
		out[i] = timing{due: due, ready: ready, sent: sent, done: prev, err: err}
	}
	return out
}

// closedLoop sends bodies back to back: each request is due the moment
// the previous one is acknowledged.
func closedLoop(send func(body) error, bodies []body) []timing {
	out := make([]timing, len(bodies))
	for i, b := range bodies {
		sent := time.Now()
		err := send(b)
		out[i] = timing{due: sent, ready: sent, sent: sent, done: time.Now(), err: err}
	}
	return out
}

// sseEvent is one anomaly frame received on the event firehose.
type sseEvent struct {
	Stream  string  `json:"stream"`
	Pos     int     `json:"pos"`
	Length  int     `json:"length"`
	Density float64 `json:"density"`
	at      time.Time
}

// subscription reads the SSE firehose in the background.
type subscription struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	events []sseEvent
	health int // health-transition frames
	err    error
}

// subscribe opens GET /v1/events and returns once the server has
// registered the subscription (the response headers arrived), so no
// event published afterwards can be missed.
func subscribe(base string) (*subscription, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: HTTP %d", resp.StatusCode)
	}
	s := &subscription{cancel: cancel, done: make(chan struct{})}
	go s.read(resp.Body)
	return s, nil
}

func (s *subscription) read(body io.ReadCloser) {
	defer close(s.done)
	defer body.Close()
	r := bufio.NewReader(body)
	kind := ""
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			s.mu.Lock()
			if err != io.EOF && !strings.Contains(err.Error(), "canceled") {
				s.err = err
			}
			s.mu.Unlock()
			return
		}
		at := time.Now()
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			s.mu.Lock()
			if kind == "anomaly" {
				var ev sseEvent
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					s.err = err
				}
				ev.at = at
				s.events = append(s.events, ev)
			} else if kind == "health" {
				s.health++
			}
			s.mu.Unlock()
		}
	}
}

// waitFor blocks until at least n anomaly frames arrived or limit passed.
func (s *subscription) waitFor(n int, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		got := len(s.events)
		s.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the subscription and returns what it received.
func (s *subscription) stop() ([]sseEvent, int, error) {
	s.cancel()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events, s.health, s.err
}
