package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// request is one pre-generated HTTP request of a plan. Everything about
// it except its timing is fixed before the timed phase starts.
type request struct {
	path string
	body []byte
}

// response is what the generator records for one request: status,
// the header the correctness oracle reads, the body, and four times
// measured from the phase start. In an open loop, due is the schedule
// slot, release the pacer wake-up that let the request go, send the
// moment a connection picked it up; in a closed loop all three equal send.
type response struct {
	status  int
	failed  bool   // transport error, timeout or non-200
	fp      string // X-Fingerprint or X-Taskset-Fingerprint
	body    []byte
	due     time.Duration
	release time.Duration
	send    time.Duration
	end     time.Duration
}

// newClient returns an HTTP client that keeps at most conns keep-alive
// connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// do sends one request and fills in everything but the times.
func do(ctx context.Context, client *http.Client, base string, rq request, r *response) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		r.failed = true
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		r.failed = true
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.status = resp.StatusCode
	r.failed = err != nil || resp.StatusCode != http.StatusOK
	r.body = body
	r.fp = resp.Header.Get("X-Fingerprint")
	if r.fp == "" {
		r.fp = resp.Header.Get("X-Taskset-Fingerprint")
	}
}

// closedLoop sends reqs over conns connections, each sending its next
// request only after the previous one completed, until the plan or, when
// it is positive, the time limit runs out. It returns the responses to
// the plan's prefix that was sent, in plan order, plus the phase's wall
// time. Times are measured from start.
func closedLoop(ctx context.Context, client *http.Client, base string, reqs []request, conns int, start time.Time, limit time.Duration) ([]response, time.Duration) {
	out := make([]response, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && (limit <= 0 || time.Since(start) < limit) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &out[i]
				r.send = time.Since(start)
				r.due, r.release = r.send, r.send
				do(ctx, client, base, reqs[i], r)
				r.end = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), len(reqs))], time.Since(start)
}

// openLoop releases reqs at rate per second from start on, regardless of
// how fast responses come back, queueing released requests for conns
// connections, and returns the responses in plan order plus the phase's
// wall time (first due slot to last response).
func openLoop(ctx context.Context, client *http.Client, base string, reqs []request, rate float64, conns int, start time.Time) ([]response, time.Duration) {
	out := make([]response, len(reqs))
	ready := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				r := &out[i]
				r.send = time.Since(start)
				do(ctx, client, base, reqs[i], r)
				r.end = time.Since(start)
			}
		}()
	}
	pace(ctx, realClock{start}, len(reqs), rate, func(i int, due, at time.Duration) {
		out[i].due, out[i].release = due, at
		ready <- i
	})
	close(ready)
	wg.Wait()
	return out, time.Since(start)
}

// clock is the pacer's view of time, so tests can drive it with a fake.
type clock interface {
	// Now is the time elapsed since the phase started.
	Now() time.Duration
	Sleep(d time.Duration)
}

type realClock struct{ start time.Time }

func (c realClock) Now() time.Duration  { return time.Since(c.start) }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// pace schedules n requests at rate per second, request i being due at
// i/rate. Timers on a shared VM overshoot by about a millisecond, far
// more than the gap between requests, so the pacer never sleeps per
// request: on each wake-up it releases every request already due,
// stamping each with that wake-up time, then sleeps until the next one is
// due. A request is timed from its release; release minus due is the
// pacer's lag, reported on its own.
func pace(ctx context.Context, c clock, n int, rate float64, release func(i int, due, at time.Duration)) {
	dueAt := func(i int) time.Duration { return time.Duration(float64(i) * float64(time.Second) / rate) }
	for i := 0; i < n && ctx.Err() == nil; {
		now := c.Now()
		for ; i < n && dueAt(i) <= now; i++ {
			release(i, dueAt(i), now)
		}
		if i < n {
			c.Sleep(dueAt(i) - now)
		}
	}
}
