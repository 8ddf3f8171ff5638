package serve

// The daemon's wire format: JSON over HTTP, NDJSON for batches. The
// types live apart from the handlers because the repo benchmark
// (benchmark/) and the httptest suite build requests from these
// structs. The handlers decode requests with the decoder in decode.go,
// which FuzzWireDecode holds to encoding/json on these same types —
// one schema, no drift.

import (
	"repro/internal/mail"
)

// WireHeader is one header field on the wire.
type WireHeader struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// WireMessage is one email on the wire: an ordered header and a flat
// text body, mirroring mail.Message. An empty header is valid (the
// paper's dictionary-attack emails have none).
type WireMessage struct {
	Header []WireHeader `json:"header,omitempty"`
	Body   string       `json:"body"`
}

// Mail converts the wire form to the internal message.
func (w WireMessage) Mail() *mail.Message {
	m := &mail.Message{Body: w.Body}
	for _, h := range w.Header {
		m.Header.Add(h.Name, h.Value)
	}
	return m
}

// WireFromMail converts an internal message to the wire form.
func WireFromMail(m *mail.Message) WireMessage {
	w := WireMessage{Body: m.Body}
	for _, f := range m.Header {
		w.Header = append(w.Header, WireHeader{Name: f.Name, Value: f.Value})
	}
	return w
}

// ClassifyRequest is the body of POST /classify and POST /score.
type ClassifyRequest struct {
	Message WireMessage `json:"message"`
}

// ClassifyResponse is one verdict. Generation is the generation of
// the published epoch the verdict was scored against (every shard's).
type ClassifyResponse struct {
	Label      string  `json:"label"`
	Score      float64 `json:"score"`
	Generation uint64  `json:"generation"`
}

// ScoreResponse is one raw score, without thresholding, and the
// generation of the epoch that scored it.
type ScoreResponse struct {
	Score      float64 `json:"score"`
	Generation uint64  `json:"generation"`
}

// LearnRequest is the body of POST /learn: one candidate training
// example with the label it would be trained under. The candidate is
// vetted by the admission chain before it can influence a snapshot —
// the endpoint accepts the submission, not the example.
type LearnRequest struct {
	Message WireMessage `json:"message"`
	Spam    bool        `json:"spam"`
}

// LearnResponse acknowledges an enqueued learn submission. Depth is
// the learn queue depth after the enqueue — a client-visible
// saturation signal before shedding starts.
type LearnResponse struct {
	Queued bool `json:"queued"`
	Depth  int  `json:"depth"`
}

// FlushResponse reports a drained-and-published learn queue.
type FlushResponse struct {
	Flushed    int    `json:"flushed"`
	Generation uint64 `json:"generation"`
}

// SaveResponse reports the snapshot generations a save persisted, one
// per shard (one for a single engine); a save writes one record of
// every shard at the one serving generation.
type SaveResponse struct {
	Generations []uint64 `json:"generations"`
}

// ResumeResponse reports an in-place resume: the snapshot generation
// the classifiers were restored from, the new serving generation they
// were published as, and whether the record carried admission state
// that was loaded with them.
type ResumeResponse struct {
	SnapshotGeneration uint64 `json:"snapshotGeneration"`
	Generation         uint64 `json:"generation"`
	AdmissionLoaded    bool   `json:"admissionLoaded"`
}

// HealthResponse is the body of GET /healthz — the readiness report.
// Status is "ok" (200) or "degraded" (503); degraded means the learn
// queue is saturated and actively shedding, so the daemon is serving
// score-only. Reason is set only when degraded.
type HealthResponse struct {
	Status             string `json:"status"`
	Generation         uint64 `json:"generation"`
	Resumed            bool   `json:"resumed"`
	LearnQueueDepth    int    `json:"learnQueueDepth"`
	LearnQueueCapacity int    `json:"learnQueueCapacity"`
	LearnShed          uint64 `json:"learnShed"`
	Reason             string `json:"reason,omitempty"`
}

// ErrorResponse is the body of every non-2xx response, and of an
// in-stream error line on the NDJSON batch endpoints.
type ErrorResponse struct {
	Error string `json:"error"`
}
