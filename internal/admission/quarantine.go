package admission

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mail"
	"repro/internal/obs"
	"repro/internal/tokenize"
)

// QuarantineConfig tunes the deferred-candidate buffer.
type QuarantineConfig struct {
	// Capacity bounds the buffer (<= 0 is unbounded). When full, new
	// holds are dropped and counted as overflow — backpressure never
	// propagates to the delivery path.
	Capacity int
	// MaxReviews drops a candidate that is still undecidable after
	// this many swap-time reviews (<= 0 selects 2). Expiry is
	// conservative: an example nothing would vouch for within two
	// generations does not train.
	MaxReviews int
	// Trace, when non-nil, records hold and release lifecycle events
	// for sampled candidates.
	Trace *obs.Tracer
}

// HeldMessage is one quarantined training candidate.
type HeldMessage struct {
	Msg *mail.Message
	// Stream is the candidate tokenized once at vetting time — for a
	// candidate restored from a record, once at resume (Restream) — and
	// is never nil; reviews hand it back to the judge so a deferred
	// candidate is judged on the stream it was vetted on.
	Stream *tokenize.TokenStream
	Spam   bool
	// Reason is the admission decision that parked it here.
	Reason string
	// Reviews counts swap-time reviews it has survived undecided.
	Reviews int
	// At is when the candidate entered the buffer (for a candidate
	// restored from persisted state, when it was loaded — age restarts
	// at resume because the hold timestamp is not persisted).
	At time.Time
}

// QuarantineStats is a snapshot of the buffer's accounting; every
// field except Pending is monotone.
type QuarantineStats struct {
	// Pending is the current buffer depth.
	Pending int
	// Held is the total number of candidates ever quarantined.
	Held uint64
	// Released is the total re-admitted into training at reviews.
	Released uint64
	// Dropped is the total rejected at reviews.
	Dropped uint64
	// Expired is the total dropped for exceeding MaxReviews undecided.
	Expired uint64
	// Overflow is the total dropped on arrival because the buffer was
	// at capacity.
	Overflow uint64
}

// Quarantine buffers candidates an admitter deferred, in arrival
// order, until a snapshot swap reviews them. It implements
// engine.QuarantineSink, so a Guarded engine routes quarantine
// verdicts here automatically, and it is safe for concurrent holds
// against a review in progress.
type Quarantine struct {
	mu   sync.Mutex
	cfg  QuarantineConfig
	held []HeldMessage
	// reviewing counts entries a Review in progress has detached from
	// held; capacity checks include them so concurrent holds cannot
	// balloon the buffer past its bound while a review runs.
	reviewing int

	totalHeld uint64
	released  uint64
	dropped   uint64
	expired   uint64
	overflow  uint64
}

// NewQuarantine builds an empty buffer.
func NewQuarantine(cfg QuarantineConfig) *Quarantine {
	if cfg.MaxReviews <= 0 {
		cfg.MaxReviews = 2
	}
	return &Quarantine{cfg: cfg}
}

// Hold buffers one candidate (engine.QuarantineSink). ts is the
// candidate's token stream, kept with the message for the swap-time
// review.
func (q *Quarantine) Hold(m *mail.Message, ts *tokenize.TokenStream, spam bool, reason string) {
	q.mu.Lock()
	if q.cfg.Capacity > 0 && len(q.held)+q.reviewing >= q.cfg.Capacity {
		q.overflow++
		q.mu.Unlock()
		return
	}
	q.totalHeld++
	q.held = append(q.held, HeldMessage{Msg: m, Stream: ts, Spam: spam, Reason: reason, At: time.Now()})
	q.mu.Unlock()
	if d := ts.Digest(); q.cfg.Trace.Sampled(d) {
		q.cfg.Trace.Record(obs.TraceEvent{Kind: obs.TraceHold, Digest: d, Shard: -1, Reason: reason})
	}
}

// Restream replaces every held candidate's stream with stream(m)
// (engine.QuarantineSink). A resume calls it once, right after
// LoadState, with the serving tokenizer of the shard each candidate
// routes to: a record keeps the held messages but not their streams.
// It holds the buffer's lock while it tokenizes, so stream must not
// call back into the quarantine.
func (q *Quarantine) Restream(stream func(*mail.Message) *tokenize.TokenStream) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range q.held {
		q.held[i].Stream = stream(q.held[i].Msg)
	}
}

// Len returns the current buffer depth.
func (q *Quarantine) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.held)
}

// Pending returns a copy of the buffer in arrival order.
func (q *Quarantine) Pending() []HeldMessage {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]HeldMessage, len(q.held))
	copy(out, q.held)
	return out
}

// Stats snapshots the accounting.
func (q *Quarantine) Stats() QuarantineStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QuarantineStats{
		Pending:  len(q.held),
		Held:     q.totalHeld,
		Released: q.released,
		Dropped:  q.dropped,
		Expired:  q.expired,
		Overflow: q.overflow,
	}
}

// Register exposes the buffer's accounting on a metrics registry.
// Depth and oldest-age are the two curves a poisoning campaign bends
// first: an attacker draining the probe budget pushes arrivals into
// the buffer (depth climbs) and a review that keeps deferring them
// ages the head. Sampled at scrape time under the buffer's own lock.
// No-op on a nil registry.
func (q *Quarantine) Register(reg *obs.Registry) {
	reg.GaugeFunc("admission_quarantine_depth", "candidates currently held", func() float64 {
		return float64(q.Len())
	})
	reg.GaugeFunc("admission_quarantine_oldest_age_seconds", "age of the oldest held candidate", func() float64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		if len(q.held) == 0 {
			return 0
		}
		return time.Since(q.held[0].At).Seconds()
	})
	reg.CounterFunc("admission_quarantine_held_total", "candidates ever quarantined", func() float64 { return float64(q.Stats().Held) })
	reg.CounterFunc("admission_quarantine_released_total", "candidates re-admitted into training at reviews", func() float64 { return float64(q.Stats().Released) })
	reg.CounterFunc("admission_quarantine_dropped_total", "candidates rejected at reviews (expiries included)", func() float64 { return float64(q.Stats().Dropped) })
	reg.CounterFunc("admission_quarantine_expired_total", "candidates dropped for exceeding MaxReviews undecided", func() float64 { return float64(q.Stats().Expired) })
	reg.CounterFunc("admission_quarantine_overflow_total", "holds dropped on arrival at capacity", func() float64 { return float64(q.Stats().Overflow) })
}

// Review re-vets every held candidate in arrival order with judge —
// typically the refreshed admission chain, right after a snapshot
// swap granted it fresh probe budget. Accepted candidates are removed
// and returned for training; rejected ones are removed and counted
// dropped; still-undecidable ones stay held unless they have exhausted
// MaxReviews, in which case they expire (counted in both dropped and
// expired). Order is deterministic: given the same buffer and a
// deterministic judge, two reviews release the same messages in the
// same order.
func (q *Quarantine) Review(judge func(m *mail.Message, ts *tokenize.TokenStream, spam bool) Decision) (released []HeldMessage, droppedNow int) {
	q.mu.Lock()
	pending := q.held
	q.held = nil
	q.reviewing = len(pending)
	q.mu.Unlock()

	// Judge outside the lock: probes are slow and Hold must not block
	// behind them. New holds during the review land in the fresh
	// buffer and wait for the next swap.
	var keep []HeldMessage
	var dropped, expired uint64
	for _, h := range pending {
		switch d := judge(h.Msg, h.Stream, h.Spam); d.Verdict {
		case Accepted:
			released = append(released, h)
			if dg := h.Stream.Digest(); q.cfg.Trace.Sampled(dg) {
				q.cfg.Trace.Record(obs.TraceEvent{Kind: obs.TraceRelease, Digest: dg, Shard: -1, Reason: d.Reason})
			}
		case Rejected:
			dropped++
		default:
			h.Reviews++
			if h.Reviews >= q.cfg.MaxReviews {
				expired++
				dropped++
			} else {
				keep = append(keep, h)
			}
		}
	}

	q.mu.Lock()
	// Still-held candidates precede anything quarantined mid-review,
	// preserving arrival order.
	q.held = append(keep, q.held...)
	q.reviewing = 0
	q.released += uint64(len(released))
	q.dropped += dropped
	q.expired += expired
	q.mu.Unlock()
	return released, int(dropped)
}

// String summarizes the buffer for traces.
func (q *Quarantine) String() string {
	s := q.Stats()
	return fmt.Sprintf("quarantine[pending=%d held=%d released=%d dropped=%d expired=%d overflow=%d]",
		s.Pending, s.Held, s.Released, s.Dropped, s.Expired, s.Overflow)
}
