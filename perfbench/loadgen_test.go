package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsStall drives a fake server that stalls one request
// for 200 ms. Requests due during the stall queue behind it on the one
// connection; timed from their due time they show the wait, so a stall
// cannot hide behind the few requests that happen to be in flight
// (coordinated omission), while their own round trips stay short and the
// generator is not reported late.
func TestOpenLoopCountsStall(t *testing.T) {
	const stallAt, stall = 10, 200 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"pushed":1}`))
	}))
	defer srv.Close()
	cli := newIngestClient(srv.URL)
	defer cli.close()

	bodies := make([]body, 80)
	for i := range bodies {
		bodies[i] = encodeBody("s", []float64{1}, false)
	}
	ts := openLoop(cli.send, bodies, 200) // one request due every 5 ms
	inflated := 0
	for i, tm := range ts {
		if tm.err != nil {
			t.Fatalf("request %d: %v", i, tm.err)
		}
		if i > stallAt && tm.latency() > 50*time.Millisecond {
			inflated++
			if tm.service() > 50*time.Millisecond {
				t.Errorf("request %d: round trip %v, want short (only request %d stalls)", i, tm.service(), stallAt)
			}
		}
		if tm.late() > 20*time.Millisecond {
			t.Errorf("request %d: generator late by %v", i, tm.late())
		}
	}
	if next := ts[stallAt+1].latency(); next < stall-2*5*time.Millisecond {
		t.Errorf("request after the stall: latency from due %v, want about %v", next, stall)
	}
	// 200 ms of stall at one request per 5 ms delays ~40 later requests;
	// a loop timing from send would report none of them.
	if inflated < 25 {
		t.Errorf("%d requests after the stall show its delay, want >= 25", inflated)
	}
}
