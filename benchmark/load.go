package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// The loader opens at most two connections to the daemon: one carries
// the workload's foreground stream (the /classify open loop, or the
// /classify/batch closed loop), the other the learn stream and the
// control requests around the timed phase.

// record is one request as the loader saw it: a span with the time it
// was due (open loop), the time it could first have been sent (its due
// time, or the previous response's arrival if that came later), and
// the times it was sent and completed, all relative to the phase
// start.
type record struct {
	ID     int           `json:"id"`
	Kind   string        `json:"kind"`
	Due    time.Duration `json:"due_ns"`
	Ready  time.Duration `json:"ready_ns"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Status int           `json:"status"`
	Input  int           `json:"input"` // index of the pre-encoded body sent
	// body is the response, kept for the output checks.
	body []byte
}

// latency is the request's latency from its due time, less any delay
// the loader itself added: it counts the wait a slow response imposed
// on the requests queued behind it on the connection, but not the
// loader waking late from its sleep, which late reports instead.
func (r record) latency() time.Duration { return r.End - r.Start + r.Ready - r.Due }

// late is how long after the request could have been sent the loader
// sent it.
func (r record) late() time.Duration { return r.Start - r.Ready }

// openLoop sends bodies[i % len] at t0 + i/rate until at least minN
// requests were due and more() reports false. Each request is timed
// from its due time, so a slow response delays — and is charged to —
// the requests behind it.
func openLoop(c *conn, bodies [][]byte, rate float64, t0 time.Time, minN int, more func() bool) []record {
	recs := make([]record, 0, minN)
	var prevEnd time.Duration
	for i := 0; i < minN || more(); i++ {
		due := time.Duration(float64(i) * float64(time.Second) / rate)
		if wait := due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		in := i % len(bodies)
		start := time.Since(t0)
		status, body, err := c.post("/classify", "application/json", bodies[in])
		if err != nil {
			status = 0
		}
		end := time.Since(t0)
		recs = append(recs, record{ID: i, Kind: "classify", Due: due, Ready: max(due, prevEnd), Start: start, End: end, Status: status, Input: in, body: body})
		prevEnd = end
	}
	return recs
}

// closedLoop sends the batch bodies back to back on one connection
// until d has elapsed. Only the first response to each body is kept:
// every later response to the same body must repeat it byte for byte
// (same snapshot, same verdicts), which is checked here without
// parsing on the timed path.
func closedLoop(c *conn, bodies [][]byte, t0 time.Time, d time.Duration) (recs []record, first [][]byte, mismatches int) {
	first = make([][]byte, len(bodies))
	var prevEnd time.Duration
	for i := 0; time.Since(t0) < d; i++ {
		in := i % len(bodies)
		start := time.Since(t0)
		status, body, err := c.post("/classify/batch", "application/x-ndjson", bodies[in])
		if err != nil {
			status = 0
		}
		// In a closed loop a request is due when the previous response
		// arrives; the gap until it is sent is the loader's own time.
		rec := record{ID: i, Kind: "batch", Due: prevEnd, Ready: prevEnd, Start: start, End: time.Since(t0), Status: status, Input: in}
		prevEnd = rec.End
		switch {
		case status != http.StatusOK:
			rec.body = body
		case first[in] == nil:
			first[in] = body
		case !bytes.Equal(first[in], body):
			mismatches++
		}
		recs = append(recs, rec)
	}
	return recs, first, mismatches
}

// Learn pacing: the loader stops submitting once the daemon reports
// highWater queued submissions and resumes when the queue has drained
// to lowWater, so the bounded queue (256 by default) never fills and
// nothing sheds.
const (
	highWater = 96
	lowWater  = 16
	// pollEvery spaces the /healthz polls of a paused learn stream: the
	// consumer drains a 64-example batch in tens of milliseconds, and
	// faster polling would only take CPU from the daemon.
	pollEvery = 10 * time.Millisecond
)

// learnResult is the learn stream's outcome.
type learnResult struct {
	recs        []record
	first, last time.Duration // first submission sent, flush returned
	flushStatus int
	err         error
}

// learnLoop submits every learn body in order, pacing by the queue
// depth the daemon reports, then drains the queue with POST
// /admin/flush. done is set when the flush has returned.
func learnLoop(c *conn, items []learnItem, t0 time.Time, done *atomic.Bool) (res learnResult) {
	defer done.Store(true)
	res.first = time.Since(t0)
	for i, it := range items {
		start := time.Since(t0)
		status, body, err := c.post("/learn", "application/json", it.body)
		if err != nil {
			status = 0
		}
		res.recs = append(res.recs, record{ID: i, Kind: "learn", Due: start, Ready: start, Start: start, End: time.Since(t0), Status: status, Input: i, body: body})
		if status != http.StatusAccepted {
			continue
		}
		var lr serve.LearnResponse
		if json.Unmarshal(body, &lr) != nil || !lr.Queued {
			res.recs[i].Status = 0 // a malformed acknowledgement is a failed operation
			continue
		}
		if lr.Depth < highWater {
			continue
		}
		for {
			time.Sleep(pollEvery)
			var h serve.HealthResponse
			if err := c.getJSON("/healthz", &h); err != nil {
				res.err = err
				return res
			}
			if h.LearnQueueDepth <= lowWater {
				break
			}
		}
	}
	status, _, err := c.post("/admin/flush", "application/json", nil)
	res.last = time.Since(t0)
	res.flushStatus = status
	if err != nil {
		res.err = fmt.Errorf("flush: %w", err)
	}
	return res
}
