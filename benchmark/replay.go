package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/textgen"
	"repro/internal/tokenize"
)

// The replay drives the inputs a run sent back through the layers'
// public calls in-process, in the order the daemon's handlers make
// them, on the daemon's own model. Every call is a span under the
// request (or learn batch) it belongs to, so each layer's time can be
// read off by name; a second pass over a sample measures each call's
// heap allocations with runtime.ReadMemStats, outside the timed pass.

// span is one call into a layer.
type span struct {
	Path   string `json:"path"` // classify, batch or learn
	Req    int    `json:"req"`  // request (learn steps: submission or batch) id
	Name   string `json:"name"` // layer.call
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Bytes  int    `json:"bytes,omitempty"`
	Tokens int    `json:"tokens,omitempty"`
	Allocs int64  `json:"allocs"` // -1: outside the alloc sample
}

// layerAgg sums one call's spans.
type layerAgg struct {
	n             int
	total         time.Duration
	bytes, tokens int
	allocs        uint64
	allocN        int
}

func (a *layerAgg) meanUs() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return us(a.total) / float64(a.n)
}

func (a *layerAgg) bytesPer() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.bytes) / float64(a.n)
}

func (a *layerAgg) tokensPer() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.tokens) / float64(a.n)
}

func (a *layerAgg) allocsPer() float64 {
	if a == nil || a.allocN == 0 {
		return 0
	}
	return float64(a.allocs) / float64(a.allocN)
}

type spanKey struct {
	path, name string
	req        int
}

// replay records spans (timing pass) or allocations (alloc pass).
type replay struct {
	t0        time.Time
	spans     []span
	agg       map[string]*layerAgg // by path + "/" + name
	allocMode bool
	allocs    map[spanKey]uint64
	ms        [2]runtime.MemStats
}

func newReplay() *replay {
	return &replay{t0: time.Now(), agg: map[string]*layerAgg{}, allocs: map[spanKey]uint64{}}
}

func (r *replay) layer(path, name string) *layerAgg { return r.agg[path+"/"+name] }

// do runs one call into a layer: in the timing pass it records a span
// and returns its duration; in the alloc pass it records the call's
// heap allocations.
func (r *replay) do(path string, req int, name, parent string, fn func()) time.Duration {
	key := path + "/" + name
	a := r.agg[key]
	if a == nil {
		a = &layerAgg{}
		r.agg[key] = a
	}
	if r.allocMode {
		runtime.ReadMemStats(&r.ms[0])
		fn()
		runtime.ReadMemStats(&r.ms[1])
		n := r.ms[1].Mallocs - r.ms[0].Mallocs
		a.allocs += n
		a.allocN++
		r.allocs[spanKey{path, name, req}] = n
		return 0
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	a.n++
	a.total += d
	r.spans = append(r.spans, span{Path: path, Req: req, Name: name, Parent: parent, Start: int64(start.Sub(r.t0)), Dur: int64(d), Allocs: -1})
	return d
}

// note attaches byte and token counts to the span just recorded.
func (r *replay) note(bytes, tokens int) {
	if r.allocMode || len(r.spans) == 0 {
		return
	}
	s := &r.spans[len(r.spans)-1]
	s.Bytes, s.Tokens = bytes, tokens
	a := r.agg[s.Path+"/"+s.Name]
	a.bytes += bytes
	a.tokens += tokens
}

// finish copies the alloc-pass counts onto their spans.
func (r *replay) finish() {
	for i := range r.spans {
		s := &r.spans[i]
		if n, ok := r.allocs[spanKey{s.Path, s.Name, s.Req}]; ok {
			s.Allocs = int64(n)
		}
	}
}

// streamPath resolves the model's tokenize-once scoring lane, the one
// engine.Classify takes for every shipped backend.
func streamPath(clf engine.Classifier) (*tokenize.Tokenizer, engine.StreamClassifier, error) {
	tz, ok1 := clf.(engine.Tokenizing)
	sc, ok2 := clf.(engine.StreamClassifier)
	if !ok1 || !ok2 {
		return nil, nil, fmt.Errorf("replay: %T does not score token streams", clf)
	}
	return tz.Tokenizer(), sc, nil
}

// scorePath is the per-message work inside the classify handler after
// the message is built: tokenize, score, encode the verdict.
func (r *replay) scorePath(path string, id int, tok *tokenize.Tokenizer, sc engine.StreamClassifier, m *mail.Message, gen uint64, buf *bytes.Buffer) serve.ClassifyResponse {
	var ts *tokenize.TokenStream
	r.do(path, id, "tokenize.stream", "", func() {
		ts = tok.Stream(m) //sbvet:retokenize the replay times the tokenizer on its own, apart from engine.Classify, to attribute the handler's time by layer
	})
	r.note(0, ts.Len())
	var label engine.Label
	var score float64
	r.do(path, id, "sbayes.score", "", func() { label, score = sc.ClassifyTokenStream(ts) })
	v := serve.ClassifyResponse{Label: label.String(), Score: score, Generation: gen}
	r.do(path, id, "serve.encode", "", func() {
		buf.Reset()
		json.NewEncoder(buf).Encode(v)
	})
	r.note(buf.Len(), 0)
	return v
}

// engineClassify calls Engine.Classify on every message, next to a
// reference call of the two layers it wraps (Tokenizer.Stream then
// ClassifyTokenStream) on the same message, alternating which goes
// first so that neither is always the one finding the message in
// cache. The engine's self time is the difference of the two means.
// It checks that the engine agrees with the layers.
func (r *replay) engineClassify(path string, ids []int, eng *engine.Engine, tok *tokenize.Tokenizer, sc engine.StreamClassifier, msgs []*mail.Message, want []serve.ClassifyResponse) error {
	for i, m := range msgs {
		var res engine.Result
		whole := func() { r.do(path, ids[i], "engine.classify", "", func() { res = eng.Classify(m) }) }
		layers := func() {
			r.do(path, ids[i], "engine.layers", "", func() {
				sc.ClassifyTokenStream(tok.Stream(m)) //sbvet:retokenize reference for Engine.Classify's self time: the same two calls the engine makes, timed beside it
			})
		}
		if i%2 == 0 {
			whole()
			layers()
		} else {
			layers()
			whole()
		}
		if !r.allocMode && (res.Label.String() != want[i].Label || res.Score != want[i].Score) {
			return fmt.Errorf("replay: engine.Classify gave %v/%v, the layers %+v", res.Label, res.Score, want[i])
		}
	}
	return nil
}

// classifyPath replays /classify bodies: decode, build, then scorePath.
func (r *replay) classifyPath(clf engine.Classifier, gen uint64, bodies [][]byte) ([]serve.ClassifyResponse, error) {
	tok, sc, err := streamPath(clf)
	if err != nil {
		return nil, err
	}
	out := make([]serve.ClassifyResponse, len(bodies))
	msgs := make([]*mail.Message, len(bodies))
	ids := make([]int, len(bodies))
	var buf bytes.Buffer
	for i, body := range bodies {
		var req serve.ClassifyRequest
		var derr error
		r.do("classify", i, "serve.decode", "", func() {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			derr = dec.Decode(&req)
		})
		r.note(len(body), 0)
		if derr != nil {
			return nil, fmt.Errorf("replay: classify body %d: %w", i, derr)
		}
		r.do("classify", i, "mail.build", "", func() { msgs[i] = req.Message.Mail() })
		out[i] = r.scorePath("classify", i, tok, sc, msgs[i], gen, &buf)
		ids[i] = i
	}
	return out, r.engineClassify("classify", ids, engine.New(clf, engine.Config{Name: "replay"}), tok, sc, msgs, out)
}

// batchPath replays /classify/batch bodies: line decode and build,
// engine.ClassifyBatch per 64-message chunk as the handler calls it,
// then each message through scorePath.
func (r *replay) batchPath(clf engine.Classifier, gen uint64, bodies [][]byte) ([][]serve.ClassifyResponse, error) {
	tok, sc, err := streamPath(clf)
	if err != nil {
		return nil, err
	}
	eng := engine.New(clf, engine.Config{Name: "replay"})
	out := make([][]serve.ClassifyResponse, len(bodies))
	var all []*mail.Message
	var want []serve.ClassifyResponse
	var ids []int
	var buf bytes.Buffer
	for bi, body := range bodies {
		var msgs []*mail.Message
		for li, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
			id := bi*batchLines + li
			var wm serve.WireMessage
			var derr error
			r.do("batch", id, "serve.decode", "", func() { derr = json.Unmarshal(line, &wm) })
			r.note(len(line), 0)
			if derr != nil {
				return nil, fmt.Errorf("replay: batch %d line %d: %w", bi, li, derr)
			}
			var m *mail.Message
			r.do("batch", id, "mail.build", "", func() { m = wm.Mail() })
			msgs = append(msgs, m)
		}
		for lo := 0; lo < len(msgs); lo += 64 {
			chunk := msgs[lo:min(lo+64, len(msgs))]
			var res []engine.Result
			var berr error
			r.do("batch", bi*batchLines+lo, "engine.batch", "", func() { res, berr = eng.ClassifyBatch(context.Background(), chunk) })
			if berr != nil {
				return nil, berr
			}
			for k, m := range chunk {
				v := r.scorePath("batch", bi*batchLines+lo+k, tok, sc, m, gen, &buf)
				if !r.allocMode && (res[k].Label.String() != v.Label || res[k].Score != v.Score) {
					return nil, fmt.Errorf("replay: ClassifyBatch disagrees with the layers on batch %d line %d", bi, lo+k)
				}
				out[bi] = append(out[bi], v)
			}
		}
		all = append(all, msgs...)
		want = append(want, out[bi]...)
		for li := range msgs {
			ids = append(ids, bi*batchLines+li)
		}
	}
	return out, r.engineClassify("batch", ids, eng, tok, sc, all, want)
}

// decodedLearn is one learn submission after the handler's decode.
type decodedLearn struct {
	msg  *mail.Message
	spam bool
}

// learnDecode replays the /learn handler: decode, build, and encode
// the 202 acknowledgement.
func (r *replay) learnDecode(items []learnItem) ([]decodedLearn, error) {
	out := make([]decodedLearn, len(items))
	var buf bytes.Buffer
	for i, it := range items {
		var req serve.LearnRequest
		var derr error
		r.do("learn", i, "serve.decode", "", func() {
			dec := json.NewDecoder(bytes.NewReader(it.body))
			dec.DisallowUnknownFields()
			derr = dec.Decode(&req)
		})
		r.note(len(it.body), 0)
		if derr != nil {
			return nil, fmt.Errorf("replay: learn body %d: %w", i, derr)
		}
		r.do("learn", i, "mail.build", "", func() { out[i] = decodedLearn{msg: req.Message.Mail(), spam: req.Spam} })
		r.do("learn", i, "serve.encode", "", func() {
			buf.Reset()
			json.NewEncoder(&buf).Encode(serve.LearnResponse{Queued: true, Depth: 1})
		})
		r.note(buf.Len(), 0)
	}
	return out, nil
}

// learnTokenize times the tokenization the guarded retrain does before
// vetting each candidate.
func (r *replay) learnTokenize(tok *tokenize.Tokenizer, ds []decodedLearn) []*tokenize.TokenStream {
	out := make([]*tokenize.TokenStream, len(ds))
	for i, d := range ds {
		r.do("learn", i, "tokenize.stream", "", func() {
			out[i] = tok.Stream(d.msg) //sbvet:retokenize the replay tokenizes each candidate once, as Guarded.VetCorpus does, to time the step on its own
		})
		r.note(0, out[i].Len())
	}
	return out
}

// Mirrored daemon wiring: sbserved's flag defaults for the admission
// pipeline (-pool, -roni-budget, -roni-burst, -swap-grant,
// -max-distinct, -quarantine-cap).
const (
	mirrorPool        = 200
	mirrorBudget      = 0.05
	mirrorBurst       = 4
	mirrorSwapGrant   = 4
	mirrorMaxDistinct = 2000
	mirrorQuarCap     = 256
)

// mirror rebuilds sbserved's admission wiring from the daemon seed
// over a clone of the daemon's model: flood gate → incremental RONI,
// quarantine reviewed after every publish.
type mirror struct {
	guard *engine.Guarded
	roni  *admission.IncrementalRONI
	calib *corpus.Corpus
	chain *admission.Chain

	// Where the timed links are being called from, for their spans.
	req    int
	parent string
	// probed lists the candidates the RONI link actually probed;
	// probeTime sums those Admit calls by calling step.
	probed    []decodedStream
	probeTime map[string]time.Duration
}

type decodedStream struct {
	decodedLearn
	ts *tokenize.TokenStream
}

// newMirror builds the wiring; with r non-nil the chain's links and the
// post-publish review record spans.
func newMirror(gen *textgen.Generator, model engine.Classifier, r *replay) (*mirror, error) {
	b, err := engine.Lookup("sbayes")
	if err != nil {
		return nil, err
	}
	cloner, ok := model.(engine.Cloner)
	if !ok {
		return nil, fmt.Errorf("replay: %T is not a Cloner", model)
	}
	rng := stats.NewRNG(daemonSeed)
	mr := &mirror{calib: gen.Corpus(rng.Split("calib"), mirrorPool/2, mirrorPool-mirrorPool/2), probeTime: map[string]time.Duration{}}
	mr.roni, err = admission.NewIncrementalRONI(
		admission.IncrementalRONIConfig{BudgetPerMessage: mirrorBudget, Burst: mirrorBurst},
		mr.calib, b.New, rng.Split("roni"))
	if err != nil {
		return nil, err
	}
	var gate, roni engine.Admitter = admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: mirrorMaxDistinct}), mr.roni
	if r != nil {
		gate = &timedLink{inner: gate, name: "admission.floodgate", r: r, m: mr}
		roni = &timedLink{inner: roni, name: "admission.roni", r: r, m: mr, probes: func() uint64 { return mr.roni.Stats().Probes }}
	}
	mr.chain = admission.NewChain(gate, roni)
	q := admission.NewQuarantine(admission.QuarantineConfig{Capacity: mirrorQuarCap})
	gcfg := engine.GuardedConfig{Quarantine: q}
	gcfg.PostPublish = append(gcfg.PostPublish, func() {
		mr.roni.Grant(mirrorSwapGrant)
		review := func() {
			q.Review(func(m *mail.Message, ts *tokenize.TokenStream, spam bool) admission.Decision {
				return mr.chain.Admit(context.Background(), m, ts, spam)
			})
		}
		if r == nil {
			review()
			return
		}
		outer := mr.parent
		mr.parent = "admission.review"
		r.do("learn", mr.req, "admission.review", "engine.publish", review)
		mr.parent = outer
	})
	mr.guard = engine.NewGuarded(engine.New(cloner.CloneClassifier(), engine.Config{Name: "replay"}), mr.chain, gcfg)
	return mr, nil
}

// timedLink wraps one admitter of the mirrored chain, recording each
// Admit as a span under the step (vet or review) that called it.
type timedLink struct {
	inner  engine.Admitter
	name   string
	r      *replay
	m      *mirror
	probes func() uint64 // the RONI link's probe counter, nil for the gate
}

func (l *timedLink) Name() string { return l.inner.Name() }

func (l *timedLink) Admit(ctx context.Context, m *mail.Message, ts *tokenize.TokenStream, spam bool) engine.AdmitDecision {
	var before uint64
	if l.probes != nil {
		before = l.probes()
	}
	var d engine.AdmitDecision
	dur := l.r.do("learn", l.m.req, l.name, l.m.parent, func() { d = l.inner.Admit(ctx, m, ts, spam) })
	if l.probes != nil && l.probes() > before {
		l.m.probed = append(l.m.probed, decodedStream{decodedLearn{m, spam}, ts})
		l.m.probeTime[l.m.parent] += dur
	}
	return d
}

// learnSummary is what the learn-path replay found.
type learnSummary struct {
	batches, admitted int
	probes            int
	vetProbe          time.Duration // RONI Admit calls that probed, during vetting
	reviewProbe       time.Duration // ... during post-publish review
}

// maxTwinProbes caps the direct core.RONI measurements.
const maxTwinProbes = 200

// learnPath replays the learn consumer's batches twice over the
// daemon's starting model. The stepwise mirror makes the calls
// Guarded.RetrainIncremental makes, one span each — tokenize,
// Guarded.VetStream (its chain links as children), CloneClassifier,
// Learn per admitted example, publish with the quarantine review as a
// child. A second mirror calls Guarded.RetrainIncremental itself per
// batch; both must reach the same admission tallies. Finally every
// candidate the stepwise mirror probed is measured once more through
// core.RONI.MeasureImpactStream on an identically sampled evaluator.
func (r *replay) learnPath(gen *textgen.Generator, model engine.Classifier, ds []decodedLearn, streams []*tokenize.TokenStream, batch int) (learnSummary, error) {
	var sum learnSummary
	a, err := newMirror(gen, model, r)
	if err != nil {
		return sum, err
	}
	ctx := context.Background()
	for lo := 0; lo < len(ds); lo += batch {
		hi := min(lo+batch, len(ds))
		b := lo / batch
		var admitted []decodedLearn
		for i := lo; i < hi; i++ {
			a.req, a.parent = i, "admission.vet"
			var d engine.AdmitDecision
			r.do("learn", i, "admission.vet", "", func() { d = a.guard.VetStream(ctx, ds[i].msg, streams[i], ds[i].spam) })
			if d.Verdict == engine.AdmitAccept {
				admitted = append(admitted, ds[i])
			}
		}
		cur, _ := a.guard.Engine().Snapshot()
		var next engine.Classifier
		r.do("learn", b, "sbayes.clone", "", func() { next = cur.(engine.Cloner).CloneClassifier() })
		for _, ex := range admitted {
			r.do("learn", b, "sbayes.learn", "", func() {
				next.Learn(ex.msg, ex.spam) //sbvet:unguarded replay of Guarded.RetrainIncremental's train step on a throwaway mirror: every example was admitted by the mirror's VetStream just above
			})
		}
		a.req, a.parent = b, "engine.publish"
		var perr error
		r.do("learn", b, "engine.publish", "", func() { _, perr = a.guard.Swap(next) })
		if perr != nil {
			return sum, perr
		}
		sum.batches++
		sum.admitted += len(admitted)
	}
	sum.probes = len(a.probed)
	sum.vetProbe, sum.reviewProbe = a.probeTime["admission.vet"], a.probeTime["admission.review"]

	bm, err := newMirror(gen, model, nil)
	if err != nil {
		return sum, err
	}
	for lo := 0; lo < len(ds); lo += batch {
		delta := &corpus.Corpus{}
		for _, d := range ds[lo:min(lo+batch, len(ds))] {
			delta.Add(d.msg, d.spam)
		}
		var rerr error
		r.do("learn", lo/batch, "engine.retrain_incremental", "", func() { _, rerr = bm.guard.RetrainIncremental(ctx, delta) })
		if rerr != nil {
			return sum, rerr
		}
	}
	if sa, sb := a.guard.Stats().Admission, bm.guard.Stats().Admission; sa != sb {
		return sum, fmt.Errorf("replay: stepwise mirror admitted %+v, RetrainIncremental mirror %+v", sa, sb)
	}

	b, err := engine.Lookup("sbayes")
	if err != nil {
		return sum, err
	}
	twin, err := core.NewRONIBackend(core.DefaultRONIConfig(), a.calib, b.New, stats.NewRNG(daemonSeed).Split("roni"))
	if err != nil {
		return sum, err
	}
	for k, p := range a.probed[:min(len(a.probed), maxTwinProbes)] {
		r.do("learn", k, "core.roni_impact", "", func() { twin.MeasureImpactStream(p.msg, p.ts, p.spam) })
	}
	return sum, nil
}
