package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/mail"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/textgen"
)

// Traffic shape shared by the workloads. The organic mix and the
// attacker mix match cmd/sbload's defaults (40% spam; 30% of learn
// submissions are attack mail, half replicated dictionary payloads and
// half focused variants), so a number here reads like a number there.
const (
	// classifyRate is the open-loop /classify arrival rate, in
	// requests per second: about a fifth of what one connection can
	// carry against the shipped daemon on a 2-CPU host.
	classifyRate = 400
	// batchLines is the number of messages in one /classify/batch
	// request: one full 64-message chunk of the handler. Larger
	// requests are not sent: the handler writes verdicts before it has
	// read the whole body, and net/http then discards up to 256 KB of
	// the unread body, so lines past the first chunk arrive truncated
	// or lost (about 1 request in 100 at 100 lines, most at 256).
	batchLines = 64
	// batchBodies is the number of distinct pre-encoded batch requests
	// the closed loop cycles through.
	batchBodies = 16
	// learnPerSecond sizes the feedback_under_attack learn stream:
	// N = learnPerSecond × --seconds submissions, which the shipped
	// daemon vets in about three quarters of the timed phase on a
	// 2-CPU host, so learning runs beside most of the classify stream.
	learnPerSecond = 400
	// maxReplayLearn caps the learn submissions the traced run replays
	// through the learn path; unit costs are per call, so a prefix of
	// the stream measures them.
	maxReplayLearn = 1500
	// whatIfLearn is the number of organic learn submissions replayed
	// through the learn path on workloads that send none, so every
	// layer's unit cost is measured on every workload.
	whatIfLearn = 256
	// holdoutHam is the size of the fixed ham holdout scored after the
	// feedback_under_attack flush.
	holdoutHam = 200
	// holdoutSeed fixes the holdout independently of --seed, so every
	// run is judged on the same mail.
	holdoutSeed = 0x6e6f6c646f7574
	// maxHoldoutHamMiss is the absolute bound on the share of holdout
	// ham the daemon may misclassify (spam or unsure) after learning
	// the attacked feedback stream. It is also stated in
	// BENCHMARK.json, in the feedback_under_attack workload's "why".
	maxHoldoutHamMiss = 0.05

	spamFrac   = 0.4
	attackFrac = 0.3
)

// learnKind classifies a learn submission for the report.
type learnKind uint8

const (
	organic learnKind = iota
	dictionary
	focused
)

// learnItem is one pre-encoded POST /learn body.
type learnItem struct {
	body []byte
	spam bool
	kind learnKind
}

// inputs is everything a run sends, generated from the workload seed
// before any daemon starts. The daemon only ever sees these bytes.
type inputs struct {
	classify [][]byte // /classify bodies, in schedule order
	batches  [][]byte // /classify/batch NDJSON bodies
	learn    []learnItem
	// replayLearn is the learn stream the replay drives through the
	// learn path: the submissions themselves on feedback_under_attack,
	// a small organic stream elsewhere.
	replayLearn []learnItem
	holdout     [][]byte // NDJSON ham holdout in batchLines-line requests (feedback_under_attack only)
}

// newGenerator builds the synthetic mail universe sbserved bootstraps
// from (cmd/sbserved's newGenerator), so organic traffic scores
// against a vocabulary the filter knows.
func newGenerator() *textgen.Generator {
	u := textgen.MustUniverse(textgen.UniverseConfig{
		CommonWords:     50,
		StandardWords:   700,
		FormalWords:     250,
		ColloquialWords: 290,
		SpamWords:       120,
		PersonalWords:   400,
	})
	return textgen.MustNew(u, textgen.DefaultConfig())
}

// buildInputs generates the workload's traffic from seed. The classify
// stream of feedback_under_attack is the deliver stream of the same
// seed, so the two workloads differ only by the learn traffic.
func buildInputs(gen *textgen.Generator, workload string, seed uint64, seconds int) (*inputs, error) {
	root := stats.NewRNG(seed)
	in := &inputs{}
	switch workload {
	case "deliver", "feedback_under_attack":
		r := root.Split("classify")
		for i := 0; i < classifyRate*seconds; i++ {
			body, err := json.Marshal(serve.ClassifyRequest{Message: serve.WireFromMail(gen.Message(r, r.Bernoulli(spamFrac)))})
			if err != nil {
				return nil, err
			}
			in.classify = append(in.classify, body)
		}
	case "bulk_score":
		r := root.Split("batch")
		for b := 0; b < batchBodies; b++ {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for i := 0; i < batchLines; i++ {
				if err := enc.Encode(serve.WireFromMail(gen.Message(r, r.Bernoulli(spamFrac)))); err != nil {
					return nil, err
				}
			}
			in.batches = append(in.batches, buf.Bytes())
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}

	if workload == "feedback_under_attack" {
		learn, err := attackedLearnStream(gen, root.Split("learn"), learnPerSecond*seconds)
		if err != nil {
			return nil, err
		}
		in.learn, in.replayLearn = learn, learn[:min(len(learn), maxReplayLearn)]
		in.holdout, err = holdout(gen)
		if err != nil {
			return nil, err
		}
	} else {
		r := root.Split("learn-replay")
		for i := 0; i < whatIfLearn; i++ {
			spam := r.Bernoulli(spamFrac)
			item, err := learnBody(gen.Message(r, spam), spam, organic)
			if err != nil {
				return nil, err
			}
			in.replayLearn = append(in.replayLearn, item)
		}
	}
	return in, nil
}

// attackedLearnStream draws n learn submissions: organic mail under its
// true label, and attack mail under the spam label (the paper's
// contamination assumption), split evenly between the §4.1 dictionary
// payload — one body, replicated — and §4.2 focused variants aimed at
// one victim ham.
func attackedLearnStream(gen *textgen.Generator, r *stats.RNG, n int) ([]learnItem, error) {
	setup := r.Split("attack-setup")
	target := gen.HamMessage(setup)
	headerPool := []*mail.Message{gen.HamMessage(setup), gen.HamMessage(setup), gen.HamMessage(setup)}
	foc, err := core.NewFocusedAttack(target, 0.3, headerPool)
	if err != nil {
		return nil, err
	}
	dict, err := learnBody(core.NewOptimalAttack(gen.Universe()).BuildAttack(r), true, dictionary)
	if err != nil {
		return nil, err
	}
	out := make([]learnItem, 0, n)
	for i := 0; i < n; i++ {
		var item learnItem
		switch {
		case !r.Bernoulli(attackFrac):
			spam := r.Bernoulli(spamFrac)
			item, err = learnBody(gen.Message(r, spam), spam, organic)
		case r.Bernoulli(0.5):
			item = dict
		default:
			item, err = learnBody(foc.BuildAttack(r), true, focused)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, item)
	}
	return out, nil
}

func learnBody(m *mail.Message, spam bool, kind learnKind) (learnItem, error) {
	body, err := json.Marshal(serve.LearnRequest{Message: serve.WireFromMail(m), Spam: spam})
	return learnItem{body: body, spam: spam, kind: kind}, err
}

// holdout encodes the fixed ham holdout as NDJSON batch bodies of at
// most batchLines lines.
func holdout(gen *textgen.Generator) ([][]byte, error) {
	r := stats.NewRNG(holdoutSeed)
	var out [][]byte
	for i := 0; i < holdoutHam; i += batchLines {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for j := i; j < min(i+batchLines, holdoutHam); j++ {
			if err := enc.Encode(serve.WireFromMail(gen.HamMessage(r))); err != nil {
				return nil, err
			}
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
}

// replicatedShare is the share of a learn stream made of the
// replicated dictionary payload: the inputs that share work, because
// every copy after the first is a RONI memo hit.
func replicatedShare(items []learnItem) float64 {
	if len(items) == 0 {
		return 0
	}
	n := 0
	for _, it := range items {
		if it.kind == dictionary {
			n++
		}
	}
	return float64(n) / float64(len(items))
}
