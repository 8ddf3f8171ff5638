package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TraceKind names one stage of a message's decision lifecycle.
type TraceKind uint8

const (
	// TraceClassify is the at-delivery verdict: label + score at the
	// serving generation.
	TraceClassify TraceKind = iota
	// TraceAdmit is an admission decision on a candidate training
	// example: verdict + reason.
	TraceAdmit
	// TraceHold is a quarantine hold (the admit verdict deferred the
	// candidate to swap-time review).
	TraceHold
	// TraceRelease is a quarantine review releasing a held candidate
	// back toward training; a review that drops instead records
	// TraceAdmit with the rejecting verdict.
	TraceRelease
	// TraceLearn is one example actually trained into a classifier,
	// recorded when the publish carrying it lands and stamped with the
	// generation that publish created (Guarded.RetrainIncremental).
	TraceLearn
	// TracePublish is a snapshot publish: a new generation went live.
	TracePublish
)

var traceKindNames = [...]string{
	TraceClassify: "classify",
	TraceAdmit:    "admit",
	TraceHold:     "hold",
	TraceRelease:  "release",
	TraceLearn:    "learn",
	TracePublish:  "publish",
}

// String names the kind for traces and logs.
func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return fmt.Sprintf("TraceKind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name, so NDJSON trace dumps
// read without a decoder ring.
func (k TraceKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON parses a kind name back.
func (k *TraceKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range traceKindNames {
		if name == s {
			*k = TraceKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown trace kind %q", s)
}

// TraceEvent is one recorded lifecycle event. Events are small fixed
// structs — the string fields reference strings the decision already
// produced (verdict names are constants, reasons are built once by
// the admitter) — so recording allocates nothing beyond the ring
// itself.
type TraceEvent struct {
	// Seq is the tracer-global sequence number, gapless across all
	// recorded events (sampled-out events do not consume one).
	Seq uint64 `json:"seq"`
	// At is monotonic nanoseconds since the tracer started — stamps
	// from one tracer order totally, across goroutines and wall-clock
	// adjustments.
	At int64 `json:"atNanos"`
	// Kind is the lifecycle stage.
	Kind TraceKind `json:"kind"`
	// Digest identifies the message by its token-stream digest (the
	// tokenize-once identity), 0 when the event is not message-scoped
	// (publish) or the path had no stream. All events of one sampled
	// message share a digest, which is what makes the trace a
	// lifecycle: tokenize → classify → admit → hold/release → learn.
	Digest uint64 `json:"digest,omitempty"`
	// Generation is the serving (or newly published) generation the
	// decision was made at.
	Generation uint64 `json:"generation,omitempty"`
	// Shard is the shard the decision landed on (-1 on unsharded
	// engines).
	Shard int32 `json:"shard"`
	// Verdict is the decision name: a classify label ("ham", "spam",
	// "unsure") or an admission verdict ("accept", "quarantine",
	// "reject").
	Verdict string `json:"verdict,omitempty"`
	// Score is the classify score (classify events only).
	Score float64 `json:"score,omitempty"`
	// Reason is the admission reason ("token flood: 3021 distinct
	// tokens", "roni: probe budget exhausted", ...).
	Reason string `json:"reason,omitempty"`
}

// Tracer is a bounded ring of sampled decision-trace events. The hot
// path asks Sampled(digest) first — one modulo on an atomic-free
// read — and only a sampled message pays the Record cost (a short
// critical section copying one fixed-size struct into the ring).
// Sampling is deterministic by digest, so every lifecycle stage of a
// sampled message is recorded and unsampled messages never record
// anything: the trace replays whole decisions, not a random shuffle
// of stages. A nil *Tracer records nothing and samples nothing, so
// call sites need no guards.
type Tracer struct {
	every uint64
	start time.Time

	recorded atomic.Uint64

	mu   sync.Mutex
	ring []TraceEvent
	next int // ring index of the next write
	n    int // valid entries (== len(ring) once wrapped)
	seq  uint64
}

// NewTracer builds a tracer holding the last capacity events (<= 0
// selects 1024), sampling one message in every (<= 1 records every
// message). Events without a digest (publishes) are always recorded.
func NewTracer(capacity, every int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	if every < 1 {
		every = 1
	}
	return &Tracer{
		every: uint64(every),
		start: time.Now(),
		ring:  make([]TraceEvent, capacity),
	}
}

// Sampled reports whether a message with this digest is traced.
// Deterministic: the same payload samples the same way at every
// stage, on every shard, in every process with the same rate.
func (t *Tracer) Sampled(digest uint64) bool {
	if t == nil {
		return false
	}
	return digest%t.every == 0
}

// Record appends one event, stamping Seq and At. Callers on a
// message-scoped path guard with Sampled(digest) so unsampled
// messages never reach the lock; generation-scoped events (publish)
// record unconditionally.
func (t *Tracer) Record(e TraceEvent) {
	if t == nil {
		return
	}
	e.At = time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	t.ring[t.next] = e
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
	t.recorded.Add(1)
}

// Recorded returns the total number of events ever recorded
// (including ones the ring has since overwritten).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.recorded.Load()
}

// SampleEvery returns the sampling rate (1 = every message).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.every)
}

// Last returns the most recent n events, oldest first (n <= 0 or
// beyond the ring returns everything held). The slice is a copy.
func (t *Tracer) Last(n int) []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.n {
		n = t.n
	}
	out := make([]TraceEvent, n)
	// next is one past the newest entry; walk back n slots.
	startIdx := (t.next - n + len(t.ring)) % len(t.ring)
	for i := 0; i < n; i++ {
		out[i] = t.ring[(startIdx+i)%len(t.ring)]
	}
	return out
}
