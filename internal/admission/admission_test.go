package admission_test

// Conformance suite for the training-data vetting pipeline: the
// combinators compose, the flood gate is structural and label-blind,
// the budgeted incremental RONI accounts monotonically and memoizes by
// payload identity (the token stream's digest), the quarantine reviews
// deterministically, and — the headline regression — a week-end batch
// RONI pass and the budgeted incremental admitter reject the same
// dictionary-attack messages on a fixed seed, for both backends. Every
// candidate carries a real token stream, as the guard hands one to
// every admitter.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/graham"
	"repro/internal/lexicon"
	"repro/internal/mail"
	"repro/internal/stats"
	"repro/internal/textgen"
	"repro/internal/tokenize"

	// The sbayes backend registers itself on import (graham above is
	// imported for its options too).
	_ "repro/internal/sbayes"
)

var ctx = context.Background()

// testGen returns a small deterministic generator (the scenario
// package's test universe).
func testGen(t testing.TB) *textgen.Generator {
	t.Helper()
	u := textgen.MustUniverse(textgen.SmallUniverseConfig())
	return textgen.MustNew(u, textgen.DefaultConfig())
}

// pool returns a labeled calibration corpus.
func pool(t testing.TB, g *textgen.Generator, n int) *corpus.Corpus {
	t.Helper()
	return g.Corpus(stats.NewRNG(1001), n/2, n/2)
}

// stockBackends mirrors the engine conformance suite's pinned list.
var stockBackends = []string{"sbayes", "graham"}

func backendFactory(t *testing.T, name string) engine.Factory {
	t.Helper()
	b, err := engine.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return b.New
}

// stream tokenizes m as the stock backends' tokenizer does — the one
// stream the guard would hand every admitter and the quarantine.
func stream(m *mail.Message) *tokenize.TokenStream { return tokenize.Default().Stream(m) }

// fixed is a stub admitter with a constant decision.
type fixed struct {
	name string
	d    admission.Decision
}

func (f fixed) Name() string { return f.name }
func (f fixed) Admit(context.Context, *mail.Message, *tokenize.TokenStream, bool) admission.Decision {
	return f.d
}

func TestChainFirstNonAcceptWins(t *testing.T) {
	accept := fixed{"a", admission.Decision{Verdict: admission.Accepted, Reason: "ok"}}
	hold := fixed{"h", admission.Decision{Verdict: admission.Held, Reason: "held"}}
	reject := fixed{"r", admission.Decision{Verdict: admission.Rejected, Reason: "no"}}
	m := &mail.Message{Body: "x\n"}

	cases := []struct {
		chain *admission.Chain
		want  admission.Verdict
	}{
		{admission.NewChain(accept, accept), admission.Accepted},
		{admission.NewChain(accept, hold, reject), admission.Held},
		{admission.NewChain(reject, accept), admission.Rejected},
		{admission.NewChain(accept, reject), admission.Rejected},
	}
	for i, c := range cases {
		if got := c.chain.Admit(ctx, m, stream(m), true).Verdict; got != c.want {
			t.Errorf("case %d: verdict %v, want %v", i, got, c.want)
		}
	}
	name := admission.NewChain(accept, reject).Name()
	if name != "chain(a,r)" {
		t.Errorf("chain name %q", name)
	}
}

func TestFloodGateIsStructuralAndLabelBlind(t *testing.T) {
	g := testGen(t)
	gate := admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 300})
	attack := core.NewDictionaryAttack(lexicon.Optimal(g.Universe())).BuildAttack(stats.NewRNG(2))
	organic := g.HamMessage(stats.NewRNG(3))

	// The dictionary payload is rejected under either training label —
	// the gate reads structure, which is what catches pseudospam
	// delivered under ham labels.
	for _, spam := range []bool{true, false} {
		if d := gate.Admit(ctx, attack, stream(attack), spam); d.Verdict != admission.Rejected {
			t.Errorf("dictionary payload (spam=%v) got %v (%s)", spam, d.Verdict, d.Reason)
		}
	}
	if d := gate.Admit(ctx, organic, stream(organic), false); d.Verdict != admission.Accepted {
		t.Errorf("organic ham got %v (%s)", d.Verdict, d.Reason)
	}
}

func TestIncrementalRONIBudgetAccountingIsMonotone(t *testing.T) {
	g := testGen(t)
	cfg := admission.IncrementalRONIConfig{
		RONI:             core.RONIConfig{TrainSize: 10, ValSize: 20, Trials: 2, SpamPrevalence: 0.5, Threshold: 5.5},
		BudgetPerMessage: 0.25,
		Burst:            2,
	}
	a, err := admission.NewIncrementalRONI(cfg, pool(t, g, 200), backendFactory(t, "sbayes"), stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	prev := a.Stats()
	if prev.Bucket != cfg.Burst {
		t.Fatalf("initial bucket %v, want burst %v", prev.Bucket, cfg.Burst)
	}
	r := stats.NewRNG(8)
	deferred := false
	for i := 0; i < 100; i++ {
		m := g.Message(r, i%2 == 0)
		a.Admit(ctx, m, stream(m), i%2 == 0)
		s := a.Stats()
		if s.Arrivals < prev.Arrivals || s.Probes < prev.Probes || s.MemoHits < prev.MemoHits ||
			s.Deferred < prev.Deferred || s.CreditsGranted < prev.CreditsGranted {
			t.Fatalf("counter decreased at arrival %d: %+v -> %+v", i, prev, s)
		}
		// A probe can only spend budget that was credited.
		if float64(s.Probes) > cfg.Burst+s.CreditsGranted {
			t.Fatalf("probes %d exceed burst %v + credits %v", s.Probes, cfg.Burst, s.CreditsGranted)
		}
		if s.Bucket < 0 {
			t.Fatalf("bucket went negative: %v", s.Bucket)
		}
		if s.Deferred > 0 {
			deferred = true
		}
		prev = s
	}
	if !deferred {
		t.Error("budget of 0.25/message never deferred a candidate in 100 arrivals")
	}
	// Grant credits flow into both the monotone total and the bucket.
	before := a.Stats()
	a.Grant(10)
	after := a.Stats()
	if after.CreditsGranted != before.CreditsGranted+10 || after.Bucket != before.Bucket+10 {
		t.Errorf("Grant(10): %+v -> %+v", before, after)
	}
	// A granted bucket above Burst survives further Admit calls: the
	// per-arrival drip stops accruing, but never clamps granted budget
	// away — the swap-time review grant must outlive the review's own
	// vetting (regression: the old clamp discarded it on first Admit).
	granted := after.Bucket
	m := g.Message(r, true)
	a.Admit(ctx, m, stream(m), true) // memo miss: costs one probe, no clamp
	if got := a.Stats().Bucket; got < granted-1 {
		t.Errorf("bucket %v after one probe from a granted %v — grant was clamped away", got, granted)
	}
}

func TestIncrementalRONIMemoizesByIdentity(t *testing.T) {
	g := testGen(t)
	cfg := admission.IncrementalRONIConfig{
		RONI:             core.RONIConfig{TrainSize: 10, ValSize: 20, Trials: 2, SpamPrevalence: 0.5, Threshold: 5.5},
		BudgetPerMessage: 1,
		Burst:            1000,
	}
	a, err := admission.NewIncrementalRONI(cfg, pool(t, g, 200), backendFactory(t, "sbayes"), stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	payload := core.NewDictionaryAttack(lexicon.Optimal(g.Universe())).BuildAttack(stats.NewRNG(2))
	ts := stream(payload)
	first := a.Admit(ctx, payload, ts, true)
	for i := 0; i < 49; i++ {
		if d := a.Admit(ctx, payload, ts, true); d != first {
			t.Fatalf("copy %d got %+v, first copy got %+v", i, d, first)
		}
	}
	s := a.Stats()
	if s.Probes != 1 {
		t.Errorf("50 copies of one payload cost %d probes, want 1", s.Probes)
	}
	if s.MemoHits != 49 {
		t.Errorf("memo hits %d, want 49", s.MemoHits)
	}
	// The payload's identity is its token stream: a distinct message
	// with the same body is the same payload and memo-hits, while the
	// same payload under the other training label is judged afresh.
	clone := &mail.Message{Header: append(mail.Header(nil), payload.Header...), Body: payload.Body}
	if d := a.Admit(ctx, clone, stream(clone), true); d != first {
		t.Errorf("a distinct copy of the payload got %+v, the first copy %+v", d, first)
	}
	a.Admit(ctx, payload, ts, false)
	if s := a.Stats(); s.Probes != 2 || s.MemoHits != 50 {
		t.Errorf("a distinct copy and a distinct label cost %d probes total and %d memo hits, want 2 and 50", s.Probes, s.MemoHits)
	}
	// Refresh clears the memo: the old verdicts were measured against
	// the old calibration pool.
	if err := a.Refresh(pool(t, g, 200), stats.NewRNG(9)); err != nil {
		t.Fatal(err)
	}
	a.Admit(ctx, payload, ts, true)
	if s := a.Stats(); s.Probes != 3 || s.Refreshes != 1 {
		t.Errorf("after refresh: probes %d refreshes %d, want 3 and 1", s.Probes, s.Refreshes)
	}
}

// TestIncrementalRONIMatchesBatchRONI is the regression the ISSUE pins
// down: on a fixed seed, one week-end batch RONI pass and the budgeted
// incremental admitter (given enough budget to probe everything)
// reject exactly the same dictionary-attack messages — the incremental
// defense is the batch defense re-scheduled, not a different policy.
func TestIncrementalRONIMatchesBatchRONI(t *testing.T) {
	g := testGen(t)
	roniCfg := core.RONIConfig{TrainSize: 15, ValSize: 30, Trials: 3, SpamPrevalence: 0.5, Threshold: 5.5}
	attack := core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))

	for _, backend := range stockBackends {
		t.Run(backend, func(t *testing.T) {
			factory := backendFactory(t, backend)
			if backend == "graham" {
				// Stock Graham's five-occurrence evidence floor makes a
				// single probe copy invisible, so with defaults both
				// defenses (correctly) reject nothing — agreement, but a
				// vacuous regression. Drop the floor so the fixture has
				// rejections to compare; batch and incremental share the
				// factory, which is what the regression is about.
				opts := graham.DefaultOptions()
				opts.MinOccurrences = 1
				factory = func() engine.Classifier { return graham.New(opts, nil) }
			}
			calib := pool(t, g, 300)

			// The weekly candidates: organic mail plus replicated and
			// chunked attack payloads.
			candidates := g.Corpus(stats.NewRNG(2002), 30, 30)
			whole := attack.BuildAttack(stats.NewRNG(3))
			for i := 0; i < 5; i++ {
				candidates.Add(whole, true)
			}
			for _, chunk := range attack.BuildChunked(3) {
				candidates.Add(chunk, true)
			}

			batch, err := core.NewRONIBackend(roniCfg, calib, factory, stats.NewRNG(77))
			if err != nil {
				t.Fatal(err)
			}
			inc, err := admission.NewIncrementalRONI(admission.IncrementalRONIConfig{
				RONI:             roniCfg,
				BudgetPerMessage: 1,
				Burst:            float64(candidates.Len()),
			}, calib, factory, stats.NewRNG(77))
			if err != nil {
				t.Fatal(err)
			}

			rejectedBatch := map[*mail.Message]bool{}
			_, rejected := batch.FilterCorpus(candidates)
			for _, e := range rejected.Examples {
				rejectedBatch[e.Msg] = true
			}
			rejectedInc := map[*mail.Message]bool{}
			tok := factory().Tokenizer()
			for _, e := range candidates.Examples {
				d := inc.Admit(ctx, e.Msg, tok.Stream(e.Msg), e.Spam)
				if d.Verdict == admission.Held {
					t.Fatalf("budget covered every candidate yet %q was deferred", d.Reason)
				}
				if d.Verdict == admission.Rejected {
					rejectedInc[e.Msg] = true
				}
			}

			if len(rejectedBatch) == 0 {
				t.Fatal("batch RONI rejected nothing — the fixture attack is too weak to regress against")
			}
			for m := range rejectedBatch {
				if !rejectedInc[m] {
					t.Errorf("batch rejected a message the incremental admitter accepted (%.40q)", m.Body)
				}
			}
			for m := range rejectedInc {
				if !rejectedBatch[m] {
					t.Errorf("incremental rejected a message the batch pass kept (%.40q)", m.Body)
				}
			}
			if !rejectedBatch[whole] {
				t.Error("neither defense rejected the replicated dictionary payload")
			}
		})
	}
}

func TestQuarantineReviewIsDeterministic(t *testing.T) {
	// Two identically filled buffers reviewed with the same
	// deterministic judge release the same messages in the same order
	// and drop the same count.
	build := func() *admission.Quarantine {
		q := admission.NewQuarantine(admission.QuarantineConfig{MaxReviews: 2})
		for i := 0; i < 20; i++ {
			m := &mail.Message{Body: fmt.Sprintf("held %d\n", i)}
			q.Hold(m, stream(m), i%2 == 0, "deferred")
		}
		return q
	}
	judge := func(m *mail.Message, _ *tokenize.TokenStream, spam bool) admission.Decision {
		switch {
		case len(m.Body)%3 == 0:
			return admission.Decision{Verdict: admission.Accepted}
		case spam:
			return admission.Decision{Verdict: admission.Rejected}
		default:
			return admission.Decision{Verdict: admission.Held}
		}
	}
	qa, qb := build(), build()
	relA, dropA := qa.Review(judge)
	relB, dropB := qb.Review(judge)
	if len(relA) != len(relB) || dropA != dropB {
		t.Fatalf("review outcomes differ: %d/%d vs %d/%d", len(relA), dropA, len(relB), dropB)
	}
	for i := range relA {
		if relA[i].Msg.Body != relB[i].Msg.Body {
			t.Fatalf("release order differs at %d: %q vs %q", i, relA[i].Msg.Body, relB[i].Msg.Body)
		}
	}
}

func TestQuarantineExpiryAndOverflow(t *testing.T) {
	q := admission.NewQuarantine(admission.QuarantineConfig{Capacity: 2, MaxReviews: 2})
	for i := 0; i < 5; i++ {
		m := &mail.Message{Body: fmt.Sprintf("m%d\n", i)}
		q.Hold(m, stream(m), true, "deferred")
	}
	if s := q.Stats(); s.Pending != 2 || s.Overflow != 3 {
		t.Fatalf("capacity 2: pending %d overflow %d", s.Pending, s.Overflow)
	}
	undecided := func(*mail.Message, *tokenize.TokenStream, bool) admission.Decision {
		return admission.Decision{Verdict: admission.Held}
	}
	// First review: both survive undecided. Second review: both expire.
	if rel, drop := q.Review(undecided); len(rel) != 0 || drop != 0 {
		t.Fatalf("first review released %d dropped %d", len(rel), drop)
	}
	if rel, drop := q.Review(undecided); len(rel) != 0 || drop != 2 {
		t.Fatalf("second review released %d dropped %d, want expiry of both", len(rel), drop)
	}
	s := q.Stats()
	if s.Pending != 0 || s.Expired != 2 || s.Dropped != 2 {
		t.Fatalf("after expiry: %+v", s)
	}
}

func TestQuarantineCapacityHoldsDuringReview(t *testing.T) {
	// Entries detached by an in-progress review still count against
	// the capacity bound, so holds racing the review cannot balloon
	// the buffer past it.
	q := admission.NewQuarantine(admission.QuarantineConfig{Capacity: 2, MaxReviews: 5})
	for _, body := range []string{"a\n", "b\n"} {
		m := &mail.Message{Body: body}
		q.Hold(m, stream(m), true, "deferred")
	}
	mid := &mail.Message{Body: "mid\n"}
	q.Review(func(*mail.Message, *tokenize.TokenStream, bool) admission.Decision {
		q.Hold(mid, stream(mid), true, "deferred")
		return admission.Decision{Verdict: admission.Held}
	})
	s := q.Stats()
	if s.Pending != 2 {
		t.Errorf("pending %d after review, want the capacity bound 2", s.Pending)
	}
	if s.Overflow != 2 {
		t.Errorf("overflow %d, want the 2 mid-review holds bounced", s.Overflow)
	}
}

func TestQuarantineHoldDuringReviewLandsInNextBatch(t *testing.T) {
	q := admission.NewQuarantine(admission.QuarantineConfig{MaxReviews: 5})
	first := &mail.Message{Body: "first\n"}
	q.Hold(first, stream(first), true, "deferred")
	late := &mail.Message{Body: "late\n"}
	judge := func(m *mail.Message, _ *tokenize.TokenStream, spam bool) admission.Decision {
		// A candidate quarantined while the review runs must not be
		// judged by this review.
		q.Hold(late, stream(late), false, "deferred")
		if m == late {
			t.Fatal("review judged a message held mid-review")
		}
		return admission.Decision{Verdict: admission.Accepted}
	}
	released, _ := q.Review(judge)
	if len(released) != 1 || released[0].Msg != first {
		t.Fatalf("released %d, want just the pre-review hold", len(released))
	}
	if q.Len() != 1 {
		t.Fatalf("mid-review hold not pending: len %d", q.Len())
	}
}
