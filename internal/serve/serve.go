// Package serve is the guarded network front-end: an HTTP daemon over
// a guarded fleet that scores on demand and learns only through
// admission control. The fleet is one engine.Engine of N >= 1
// recipient-hashed shards serving one generation behind one
// engine.Guarded, so every endpoint has one code path for every shard
// count.
//
// The paper's threat model is an attacker who reaches the filter
// through its training path. A network front-end is where that path
// opens to the world, so the server is built so it cannot train
// unguarded: it holds the concrete *engine.Guarded — never a raw
// Engine, never an interface abstracting one — and every learn
// submission drains through RetrainIncremental, whose admission chain
// vets each example before it can influence a snapshot. The sbvet
// admitflow analyzer walks this package's call graph like any other
// non-owner package; the daemon staying diagnostic-free is the
// machine-checked proof that no handler reaches the engine's training
// surface around the guard.
//
// The serving and training paths are isolated from each other:
//
//   - Scoring (classify/score, single and NDJSON batch) reads the
//     atomically published snapshot and never touches admission
//     state. Batch requests pass through a max-inflight semaphore —
//     per-connection backpressure, bounded by the client's patience
//     (the request context) rather than an error.
//   - Learning is asynchronous: POST /learn enqueues into a bounded
//     queue and returns 202. A single consumer goroutine drains the
//     queue in batches through the guard's incremental retrain. When
//     the consumer falls behind — or an admitter wedges entirely —
//     the queue fills and the server degrades to score-only: learn
//     submissions shed with 503 + Retry-After while classification
//     continues at full speed. A stuck training path can never block
//     a verdict.
//
// Requests decode in one pass from wire bytes to *mail.Message, with
// exactly encoding/json's rules for the wire types (decode.go), and
// every decoded string copied out of the request buffer. Single bodies
// (/classify, /score, /learn) are strict, as json.Decoder with
// DisallowUnknownFields: the first value is the request, an unknown
// key at any level is a 400, and bytes after the value are never read.
// NDJSON batch lines are lenient, as json.Unmarshal: each line is one
// value, and unknown keys are skipped. The cap is 1 MiB per body and
// per batch line. Batches of any length stream full duplex: verdicts
// for each 64-line chunk go out while the rest of the body is still
// arriving.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/obs"
)

// Config tunes a Server.
type Config struct {
	// LearnQueue bounds the pending learn submissions (<= 0 selects
	// 256). A full queue sheds with 503 + Retry-After.
	LearnQueue int
	// LearnBatch caps the examples drained into one incremental
	// retrain (<= 0 selects 64).
	LearnBatch int
	// MaxInflight bounds concurrently executing batch-scoring
	// requests (<= 0 selects 2x GOMAXPROCS). Excess batch requests
	// wait on the semaphore under their own request context; single
	// classifies never wait.
	MaxInflight int
	// RetryAfter is the backoff advertised on a shed learn
	// submission (<= 0 selects 1s).
	RetryAfter time.Duration
	// Store, when non-nil, enables the save/resume admin endpoints.
	// Every save prunes it to the newest two records under Name.
	Store engine.SnapshotStore
	// Name is the store key of the saved records (defaults to "served").
	Name string
	// Obs, when non-nil, registers the front-end's instruments
	// (per-route request counters and latency histograms, learn-queue
	// depth and shed counters) and enables GET /metrics, which renders
	// the whole registry — typically shared with the engine and
	// admission layers — in Prometheus text exposition format. Nil
	// still counts (the counters back Stats) but /metrics answers 404.
	Obs *obs.Registry
	// Trace, when non-nil, enables GET /trace, replaying the tracer's
	// sampled decision events as NDJSON. The server records no events
	// itself — the engine and admission layers sharing the tracer do.
	Trace *obs.Tracer
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/ —
	// opt-in because profiles are an information leak on an exposed
	// port; enable it where the admin surface is already trusted.
	EnablePprof bool
	// Resumed records that the daemon restored its serving snapshot
	// from a persisted store at startup; /healthz reports it so an
	// operator can tell a fresh filter from a recovered one.
	Resumed bool
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.LearnQueue <= 0 {
		c.LearnQueue = 256
	}
	if c.LearnBatch <= 0 {
		c.LearnBatch = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Name == "" {
		c.Name = "served"
	}
	return c
}

// learnReq is one enqueued learn submission.
type learnReq struct {
	msg  *mail.Message
	spam bool
}

// flushResult is one drained-and-published learn queue.
type flushResult struct {
	gen     uint64
	trained int
	err     error
}

// Server is the HTTP front-end over one guarded fleet. It is an
// http.Handler; callers wrap it in an http.Server or httptest.
type Server struct {
	guarded *engine.Guarded
	cfg     Config

	learnCh  chan learnReq
	adminCh  chan func(pending *[]learnReq)
	inflight chan struct{}

	ctx      context.Context
	cancel   context.CancelFunc
	loopDone chan struct{}

	mux *http.ServeMux

	// Front-end traffic counters, obs-backed so /stats and /metrics
	// read the same instruments; engine-level counters (verdict
	// histogram, admission tallies) live on the engine itself and are
	// reported alongside these in /stats.
	classified  *obs.Counter
	scored      *obs.Counter
	learnQueued *obs.Counter
	learnShed   *obs.Counter
	trained     *obs.Counter
	publishes   *obs.Counter
	publishErrs *obs.Counter
	flushes     *obs.Counter

	// lastShed is the unix-nano timestamp of the most recent learn
	// shed; /healthz reports degraded (503) while the queue is full
	// and a shed is this recent — the sustained-shed readiness signal.
	//
	//sbvet:nostat readiness timestamp, not a monotone counter; healthz reads it, Stats does not
	lastShed atomic.Int64
}

// New returns a started Server over a guarded fleet of any size.
// Callers Close it when done.
func New(g *engine.Guarded, cfg Config) *Server {
	if g == nil {
		panic("serve: New with nil guarded engine")
	}
	s := &Server{guarded: g, cfg: cfg.withDefaults()}
	s.learnCh = make(chan learnReq, s.cfg.LearnQueue)
	s.adminCh = make(chan func(pending *[]learnReq))
	s.inflight = make(chan struct{}, s.cfg.MaxInflight)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.loopDone = make(chan struct{})

	reg := s.cfg.Obs
	s.classified = reg.Counter("serve_classified_total", "messages answered by the verdict endpoints (single and batch)")
	s.scored = reg.Counter("serve_scored_total", "messages answered by the score endpoints (single and batch)")
	s.learnQueued = reg.Counter("serve_learn_queued_total", "accepted learn submissions")
	s.learnShed = reg.Counter("serve_learn_shed_total", "learn submissions refused with 503 while the queue was full")
	s.trained = reg.Counter("serve_trained_total", "examples handed to the guard's retrain")
	s.publishes = reg.Counter("serve_publishes_total", "successful learn-batch publishes")
	s.publishErrs = reg.Counter("serve_publish_errors_total", "failed learn-batch publish attempts")
	s.flushes = reg.Counter("serve_flushes_total", "completed /admin/flush drains")
	reg.GaugeFunc("serve_learn_queue_depth", "learn submissions waiting in the bounded queue", func() float64 {
		return float64(len(s.learnCh))
	})
	reg.GaugeFunc("serve_learn_queue_capacity", "learn queue bound (depth == capacity is the shed condition)", func() float64 {
		return float64(cap(s.learnCh))
	})

	s.routes()
	go s.learnLoop()
	return s
}

// Close stops the learn consumer and waits for it to exit. Admitters
// must honor context cancellation for Close to return promptly; the
// vetting loop checks the server context between examples either way.
func (s *Server) Close() error {
	s.cancel()
	<-s.loopDone
	return nil
}

// keepRecords is how many of the newest records a save leaves under
// Name; Prune also keeps the record a resume would restart from, and
// drops the version-1 admission sidecars no kept record needs.
const keepRecords = 2

// Save persists the serving snapshot of every shard and the admission
// state as one record under Name at the one serving generation
// (SaveGuarded), then prunes the store to the newest keepRecords
// records. It returns the saved generation; a prune error comes with
// the generation that did land. Save must not overlap a publish, whose
// quarantine review detaches the held mail: POST /admin/save runs it
// on the learn loop, and a daemon's exit save runs it after Close.
func (s *Server) Save() (uint64, error) {
	gen, err := engine.SaveGuarded(s.cfg.Store, s.cfg.Name, s.guarded)
	if err != nil {
		return 0, err
	}
	if _, err := engine.Prune(s.cfg.Store, s.cfg.Name, keepRecords); err != nil {
		return gen, fmt.Errorf("saved generation %d, then pruning %q: %w", gen, s.cfg.Name, err)
	}
	return gen, nil
}

// ServeHTTP dispatches to the daemon's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /classify", s.instrument("classify", s.handleClassify))
	s.mux.HandleFunc("POST /score", s.instrument("score", s.handleScore))
	s.mux.HandleFunc("POST /classify/batch", s.instrument("classify_batch", func(w http.ResponseWriter, r *http.Request) {
		s.handleBatch(w, r, true)
	}))
	s.mux.HandleFunc("POST /score/batch", s.instrument("score_batch", func(w http.ResponseWriter, r *http.Request) {
		s.handleBatch(w, r, false)
	}))
	s.mux.HandleFunc("POST /learn", s.instrument("learn", s.handleLearn))
	s.mux.HandleFunc("POST /admin/flush", s.instrument("admin_flush", s.handleFlush))
	s.mux.HandleFunc("POST /admin/save", s.instrument("admin_save", s.handleSave))
	s.mux.HandleFunc("POST /admin/resume", s.instrument("admin_resume", s.handleResume))
	s.mux.HandleFunc("GET /stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /trace", s.instrument("trace", s.handleTrace))
	if s.cfg.EnablePprof {
		// Explicit handler mounts on the daemon's own mux — importing
		// net/http/pprof for its side effect would register on the
		// DefaultServeMux, which this server never serves.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// statusWriter captures the response status for the per-route
// status-class counters. An implicit 200 (a handler that writes the
// body without WriteHeader) is recorded on first Write.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection's writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with its route's latency histogram and
// status-class counters. The instruments are created once at route
// registration — labels are the fixed route name plus a three-value
// status class, so request traffic can move counters but never mint
// new series.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	rl := obs.L("route", route)
	lat := s.cfg.Obs.Histogram("serve_request_seconds", "request latency by route", nil, rl)
	classes := [3]*obs.Counter{
		s.cfg.Obs.Counter("serve_requests_total", "requests by route and status class", rl, obs.L("code", "2xx")),
		s.cfg.Obs.Counter("serve_requests_total", "requests by route and status class", rl, obs.L("code", "4xx")),
		s.cfg.Obs.Counter("serve_requests_total", "requests by route and status class", rl, obs.L("code", "5xx")),
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		lat.ObserveSince(start)
		switch {
		case sw.status < 400:
			classes[0].Inc()
		case sw.status < 500:
			classes[1].Inc()
		default:
			classes[2].Inc()
		}
	}
}

// learnLoop is the single learn consumer and the daemon's one
// publisher: it drains queued submissions in batches of at most
// LearnBatch, publishes each batch through the guard's incremental
// retrain, and runs the admin operations (flush, save, resume) between
// batches, so a resume never lands under a batch that cloned the
// epoch it replaces and a save never runs mid-publish. Everything the
// training path can do to stall — a slow probe, a wedged admitter —
// stalls only this goroutine; the queue then fills and the handlers
// shed, never block.
func (s *Server) learnLoop() {
	defer close(s.loopDone)
	var pending []learnReq
	for {
		select {
		case <-s.ctx.Done():
			return
		case req := <-s.learnCh:
			pending = s.soak(append(pending, req))
			res := s.publishPending(&pending)
			if res.err != nil && s.ctx.Err() != nil {
				return
			}
		case op := <-s.adminCh:
			op(&pending)
		}
	}
}

// soak moves everything already queued into pending, without
// blocking, up to the batch cap.
func (s *Server) soak(pending []learnReq) []learnReq {
	for len(pending) < s.cfg.LearnBatch {
		select {
		case req := <-s.learnCh:
			pending = append(pending, req)
		default:
			return pending
		}
	}
	return pending
}

// publishPending vets and trains the pending batch through the
// guard's incremental retrain, then resets pending. An empty batch
// publishes nothing and reports the current generation.
func (s *Server) publishPending(pending *[]learnReq) flushResult {
	if len(*pending) == 0 {
		return flushResult{gen: s.guarded.Generation()}
	}
	delta := &corpus.Corpus{}
	for _, req := range *pending {
		delta.Add(req.msg, req.spam)
	}
	n := len(*pending)
	*pending = (*pending)[:0]

	gen, err := s.guarded.RetrainIncremental(s.ctx, delta)
	if err != nil {
		s.publishErrs.Inc()
		return flushResult{gen: gen, err: err}
	}
	s.trained.Add(uint64(n))
	s.publishes.Inc()
	return flushResult{gen: gen, trained: n}
}

// acquire takes one inflight slot, waiting under the request context
// — backpressure, not an error. It reports false (and answers 503)
// only when the client gave up or the server is shutting down.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) bool {
	select {
	case s.inflight <- struct{}{}:
		return true
	case <-r.Context().Done():
		writeError(w, http.StatusServiceUnavailable, "request cancelled while waiting for a batch slot")
		return false
	case <-s.ctx.Done():
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return false
	}
}

func (s *Server) release() { <-s.inflight }

// --- Handlers ---

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(w, r, false)
	if !ok {
		return
	}
	res := s.guarded.Classify(req.msg)
	s.classified.Inc()
	writeJSON(w, http.StatusOK, ClassifyResponse{
		Label:      res.Label.String(),
		Score:      res.Score,
		Generation: res.Generation,
	})
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(w, r, false)
	if !ok {
		return
	}
	out, gen, err := s.guarded.ScoreBatch(r.Context(), []*mail.Message{req.msg})
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.scored.Inc()
	writeJSON(w, http.StatusOK, ScoreResponse{Score: out[0], Generation: gen})
}

// batchChunk is the number of NDJSON lines scored per engine batch
// call: large enough to amortize the worker-pool fan-out, small
// enough that results stream back while the client is still sending.
const batchChunk = 64

// handleBatch streams an NDJSON request through the engine in chunks:
// each line is one WireMessage, decoded leniently (unknown keys are
// skipped), each response line one verdict (verdicts=true) or score.
// The inflight slot is held for the whole request — one connection,
// one slot.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, verdicts bool) {
	// Verdicts stream back while the body is still arriving. Without
	// full duplex, net/http discards the unread body at the first
	// response flush; HTTP/2 is full duplex already and reports
	// ErrNotSupported.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// In full duplex, net/http leaves a body the handler stopped reading
	// (a bad line) for after the handler returns, where reaching its EOF
	// races the connection's next read and panics. So the handler ends
	// the body itself while it still owns the connection: it drains what
	// the client is still sending, up to one line's cap, then closes.
	// Closing alone discards only net/http's 256 KB and then closes the
	// connection, and a client still sending a long batch rejected at an
	// early line would see EOF instead of the error line.
	defer func() {
		io.CopyN(io.Discard, r.Body, maxBodyBytes)
		r.Body.Close()
	}()
	if !s.acquire(w, r) {
		return
	}
	defer s.release()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	chunk := make([]*mail.Message, 0, batchChunk)

	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if verdicts {
			res, err := s.guarded.ClassifyBatch(r.Context(), chunk)
			if err != nil {
				return err
			}
			s.classified.Add(uint64(len(res)))
			for _, v := range res {
				if err := enc.Encode(ClassifyResponse{Label: v.Label.String(), Score: v.Score, Generation: v.Generation}); err != nil {
					return err
				}
			}
		} else {
			out, gen, err := s.guarded.ScoreBatch(r.Context(), chunk)
			if err != nil {
				return err
			}
			s.scored.Add(uint64(len(out)))
			for _, v := range out {
				if err := enc.Encode(ScoreResponse{Score: v, Generation: gen}); err != nil {
					return err
				}
			}
		}
		chunk = chunk[:0]
		return nil
	}

	dec := getDecoder()
	defer dec.release()
	// The scanner reads into the pooled decoder's buffer and grows past
	// it, up to the line cap, only for a line that needs it.
	if cap(dec.buf) < maxPooledBuf {
		dec.buf = make([]byte, maxPooledBuf)
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(dec.buf[:cap(dec.buf)], maxBodyBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		m, err := dec.line(line)
		if err != nil {
			// The header is already out; report in-stream and stop.
			enc.Encode(ErrorResponse{Error: fmt.Sprintf("bad batch line: %v", err)})
			return
		}
		chunk = append(chunk, m)
		if len(chunk) == batchChunk {
			if err := flush(); err != nil {
				enc.Encode(ErrorResponse{Error: err.Error()})
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		enc.Encode(ErrorResponse{Error: err.Error()})
		return
	}
	if err := flush(); err != nil {
		enc.Encode(ErrorResponse{Error: err.Error()})
	}
}

// handleLearn enqueues one candidate training example. The enqueue
// never blocks: a full queue is the saturation signal, answered with
// 503 + Retry-After so well-behaved clients back off while the
// scoring endpoints run on untouched.
func (s *Server) handleLearn(w http.ResponseWriter, r *http.Request) {
	req, ok := readRequest(w, r, true)
	if !ok {
		return
	}
	select {
	case s.learnCh <- req:
		s.learnQueued.Inc()
		writeJSON(w, http.StatusAccepted, LearnResponse{Queued: true, Depth: len(s.learnCh)})
	default:
		s.learnShed.Inc()
		s.lastShed.Store(time.Now().UnixNano())
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(s.cfg.RetryAfter)))
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error: "learn queue saturated; serving degraded to score-only",
		})
	}
}

// retryAfterSeconds renders a Retry-After value, at least 1.
func retryAfterSeconds(d time.Duration) int {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// handleFlush drains the learn queue and publishes the batch before
// returning — the deterministic synchronization point tests and
// operators use. A wedged consumer makes this endpoint wait, bounded
// by the request context; it never wedges the caller forever.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	var res flushResult
	if !s.onLearnLoop(w, r, "flush", func(pending *[]learnReq) {
		*pending = s.soak(*pending)
		res = s.publishPending(pending)
	}) {
		return
	}
	if res.err != nil {
		writeError(w, http.StatusInternalServerError, res.err.Error())
		return
	}
	s.flushes.Inc()
	writeJSON(w, http.StatusOK, FlushResponse{Flushed: res.trained, Generation: res.gen})
}

// onLearnLoop runs op on the learn loop between batches and waits for
// it under the request context. It reports false, having answered 503,
// when the consumer stays busy past the client's patience or the
// server shuts down; an op whose client has gone by the time the loop
// reaches it does not run.
func (s *Server) onLearnLoop(w http.ResponseWriter, r *http.Request, what string, op func(pending *[]learnReq)) bool {
	done := make(chan struct{})
	run := func(pending *[]learnReq) {
		if r.Context().Err() == nil {
			op(pending)
			close(done)
		}
	}
	select {
	case s.adminCh <- run:
	case <-r.Context().Done():
		writeError(w, http.StatusServiceUnavailable, what+" timed out: learn consumer busy")
		return false
	case <-s.ctx.Done():
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return false
	}
	select {
	case <-done:
		return true
	case <-r.Context().Done():
		writeError(w, http.StatusServiceUnavailable, what+" timed out: learn consumer busy")
		return false
	}
}

// handleSave saves and prunes (Save). It runs on the learn loop,
// between publishes, so it never saves while a publish's quarantine
// review has the held mail detached: what is held is in the record.
func (s *Server) handleSave(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotImplemented, "no snapshot store configured")
		return
	}
	var gen uint64
	var err error
	if !s.onLearnLoop(w, r, "save", func(*[]learnReq) {
		gen, err = s.Save()
	}) {
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	gens := make([]uint64, s.guarded.Engine().NumShards())
	for i := range gens {
		gens[i] = gen
	}
	writeJSON(w, http.StatusOK, SaveResponse{Generations: gens})
}

// handleResume restores the persisted state into the running daemon
// through the same resume start-up runs (Guarded.Resume): the newest
// record whose every shard loads is published as one new epoch
// through the guard's hooks, then the admission state saved in it is
// loaded back — held mail stays held, spent probe budget stays spent.
// It runs on the learn loop, after any batch in flight has published,
// so no batch trained on the replaced epoch publishes over the resumed
// one. A store with nothing to resume answers 404.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotImplemented, "no snapshot store configured")
		return
	}
	var snapGen, gen uint64
	var loaded bool
	var err error
	if !s.onLearnLoop(w, r, "resume", func(*[]learnReq) {
		snapGen, gen, loaded, err = s.guarded.Resume(s.cfg.Store, s.cfg.Name)
	}) {
		return
	}
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, engine.ErrNoSnapshot) {
			status = http.StatusNotFound
		}
		writeError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ResumeResponse{
		SnapshotGeneration: snapGen,
		Generation:         gen,
		AdmissionLoaded:    loaded,
	})
}

// Stats is the front-end's point-in-time traffic counters.
type Stats struct {
	// Generation is the serving snapshot generation (every shard's).
	Generation uint64 `json:"generation"`
	// Classified and Scored count messages answered by the verdict
	// and score endpoints (single and batch).
	Classified uint64 `json:"classified"`
	Scored     uint64 `json:"scored"`
	// LearnQueued counts accepted learn submissions; LearnShed counts
	// submissions refused with 503 while the queue was full.
	LearnQueued uint64 `json:"learnQueued"`
	LearnShed   uint64 `json:"learnShed"`
	// Trained counts examples handed to the guard's retrain (vetting
	// happens there; the engine's admission stats say what survived).
	Trained uint64 `json:"trained"`
	// Publishes and PublishErrors count learn-batch publish attempts.
	Publishes     uint64 `json:"publishes"`
	PublishErrors uint64 `json:"publishErrors"`
	// Flushes counts completed /admin/flush drains.
	Flushes uint64 `json:"flushes"`
	// QueueDepth is the learn queue's current depth.
	QueueDepth int `json:"queueDepth"`
}

// Stats returns the front-end counters.
func (s *Server) Stats() Stats {
	return Stats{
		Generation:    s.guarded.Generation(),
		Classified:    s.classified.Value(),
		Scored:        s.scored.Value(),
		LearnQueued:   s.learnQueued.Value(),
		LearnShed:     s.learnShed.Value(),
		Trained:       s.trained.Value(),
		Publishes:     s.publishes.Value(),
		PublishErrors: s.publishErrs.Value(),
		Flushes:       s.flushes.Value(),
		QueueDepth:    len(s.learnCh),
	}
}

// statsResponse is the /stats body: front-end counters plus the
// fleet's own (verdict histogram, latency, admission tallies, and the
// per-shard breakdown).
type statsResponse struct {
	Serve  Stats        `json:"serve"`
	Engine engine.Stats `json:"engine"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{Serve: s.Stats(), Engine: s.guarded.Stats()})
}

// handleHealthz is the readiness probe. The daemon's one degraded
// mode is score-only serving — the learn queue saturated and
// submissions shedding — so that is exactly what flips readiness: the
// queue is full right now AND a shed happened within two Retry-After
// windows (a momentary full queue that drained is healthy; a full
// queue still refusing work is not). Scoring works either way; the
// 503 tells a load balancer to route learn traffic elsewhere.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	depth, capacity := len(s.learnCh), cap(s.learnCh)
	shed := s.learnShed.Value()
	resp := HealthResponse{
		Status:             "ok",
		Generation:         s.guarded.Generation(),
		Resumed:            s.cfg.Resumed,
		LearnQueueDepth:    depth,
		LearnQueueCapacity: capacity,
		LearnShed:          shed,
	}
	status := http.StatusOK
	if last := s.lastShed.Load(); depth == capacity && last != 0 &&
		time.Since(time.Unix(0, last)) <= 2*s.cfg.RetryAfter {
		resp.Status = "degraded"
		resp.Reason = "learn queue saturated; serving degraded to score-only"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// handleMetrics renders the shared registry in Prometheus text
// exposition format. 404 without a registry: the daemon was launched
// without -metrics, and an empty page would read as "up but idle".
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Obs == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Obs.WriteText(w)
}

// handleTrace replays the tracer's ring — the sampled decision
// lifecycles recorded by the engine and admission layers — as NDJSON,
// oldest first. ?n=K bounds the replay to the most recent K events.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Trace == nil {
		http.NotFound(w, r)
		return
	}
	n := 0
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "bad n: want a non-negative integer")
			return
		}
		n = v
	}
	events := s.cfg.Trace.Last(n)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i := range events {
		enc.Encode(&events[i])
	}
}

// --- JSON plumbing ---

// maxBodyBytes bounds a single-message request body and one NDJSON
// batch line.
const maxBodyBytes = 1 << 20

// readRequest decodes a single-message body under the cap, answering
// 400 itself when it is bad. learn selects LearnRequest over
// ClassifyRequest; the spam flag is set only then.
func readRequest(w http.ResponseWriter, r *http.Request, learn bool) (learnReq, bool) {
	dec := getDecoder()
	defer dec.release()
	msg, spam, err := dec.request(http.MaxBytesReader(w, r.Body, maxBodyBytes), learn)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return learnReq{}, false
	}
	return learnReq{msg: msg, spam: spam}, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}
