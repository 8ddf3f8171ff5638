package admission_test

// Regression coverage for the crash-amnesty bug: quarantine contents
// and the IncrementalRONI probe budget/memo now persist through
// engine.SaveGuarded and come back through engine.ResumeGuarded, so a
// restart can no longer free a held attacker or refill an exhausted
// probe bucket.

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/stats"
	"repro/internal/tokenize"
)

// mkHeld builds a distinctive candidate for quarantine round-trips.
func mkHeld(subject, body string) *mail.Message {
	m := &mail.Message{Body: body}
	m.Header.Add("Subject", subject)
	m.Header.Add("From", "attacker@example.test")
	return m
}

func TestQuarantineStateRoundTrip(t *testing.T) {
	q := admission.NewQuarantine(admission.QuarantineConfig{Capacity: 8, MaxReviews: 3})
	for i, m := range []*mail.Message{mkHeld("first", "alpha beta gamma"), mkHeld("second", "delta epsilon")} {
		q.Hold(m, tokenize.Default().Stream(m), i == 0, []string{"roni: probe budget exhausted", "undecidable"}[i])
	}

	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := admission.NewQuarantine(admission.QuarantineConfig{Capacity: 8, MaxReviews: 3})
	if err := fresh.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	want, got := q.Pending(), fresh.Pending()
	if len(got) != len(want) {
		t.Fatalf("loaded %d held, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Msg.Subject() != want[i].Msg.Subject() ||
			got[i].Msg.Body != want[i].Msg.Body ||
			got[i].Spam != want[i].Spam ||
			got[i].Reason != want[i].Reason ||
			got[i].Reviews != want[i].Reviews {
			t.Fatalf("held[%d] mismatch: got %+v want %+v", i, got[i], want[i])
		}
	}
	if ws, gs := q.Stats(), fresh.Stats(); gs != ws {
		t.Fatalf("loaded stats %+v, want %+v", gs, ws)
	}
	// Streams are not persisted: the resume that loads the state
	// tokenizes each held candidate once, back to the stream it was
	// held with.
	fresh.Restream(tokenize.Default().Stream)
	for i, h := range fresh.Pending() {
		if h.Stream == nil || h.Stream.Digest() != want[i].Stream.Digest() {
			t.Fatalf("held[%d] restreamed to %v, want the stream it was held with", i, h.Stream)
		}
	}
}

func TestQuarantineLoadRejectsCorruptState(t *testing.T) {
	q := admission.NewQuarantine(admission.QuarantineConfig{})
	m := mkHeld("x", "y")
	q.Hold(m, tokenize.Default().Stream(m), true, "r")
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, tc := range [][]byte{
		data[:len(data)-1],                    // truncated
		append(data[:len(data):len(data)], 0), // trailing byte
		{0xff},                                // bad version varint boundary
		// The held message's review count (its last field, 0) as 1<<63,
		// which an int holds only as a negative number: a hold that
		// never expires.
		binary.AppendUvarint(slices.Clip(data[:len(data)-1]), 1<<63),
	} {
		fresh := admission.NewQuarantine(admission.QuarantineConfig{})
		if err := fresh.Load(bytes.NewReader(tc)); err == nil {
			t.Fatalf("corrupt state (%d bytes) loaded without error", len(tc))
		}
	}
}

func TestIncrementalRONIStateRoundTrip(t *testing.T) {
	g := testGen(t)
	cfg := admission.IncrementalRONIConfig{BudgetPerMessage: 0.01, Burst: 2}
	a, err := admission.NewIncrementalRONI(cfg, pool(t, g, 200), backendFactory(t, "sbayes"), stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	// Spend the burst: probes run until the bucket drops below 1, then
	// candidates defer. Stream-keyed arrivals populate the digest memo.
	r := stats.NewRNG(11)
	msgs := make([]*mail.Message, 6)
	for i := range msgs {
		msgs[i] = g.SpamMessage(r)
	}
	tkz := tokenize.Default()
	for _, m := range msgs {
		a.Admit(ctx, m, tkz.Stream(m), true)
	}
	before := a.Stats()
	if before.Probes == 0 || before.Deferred == 0 {
		t.Fatalf("fixture did not both probe and defer: %+v", before)
	}

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := admission.NewIncrementalRONI(cfg, pool(t, g, 200), backendFactory(t, "sbayes"), stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Stats(); got != before {
		t.Fatalf("loaded stats %+v, want %+v", got, before)
	}
	// The memo must survive: re-admitting an already-probed payload is
	// a memo hit, not a new probe — and the drained bucket must stay
	// drained, so an unseen candidate still defers.
	fresh.Admit(ctx, msgs[0], tkz.Stream(msgs[0]), true)
	after := fresh.Stats()
	if after.MemoHits != before.MemoHits+1 {
		t.Fatalf("memoized verdict did not survive the restart: %+v", after)
	}
	if after.Probes != before.Probes {
		t.Fatalf("restart re-probed a memoized payload: %+v", after)
	}
}

// TestIncrementalRONILoadRejectsABudgetItCannotHonour pins that a RONI
// state whose bucket or credits are NaN, infinite or negative does not
// load. Such a state round-trips bit for bit, but a NaN or +Inf bucket
// gets past both of Admit's budget comparisons, so a resumed admitter
// would probe every arrival — past Probes <= Burst + CreditsGranted,
// the budget the record exists to carry across a restart.
func TestIncrementalRONILoadRejectsABudgetItCannotHonour(t *testing.T) {
	g := testGen(t)
	calib := pool(t, g, 200)
	cfg := admission.IncrementalRONIConfig{BudgetPerMessage: 0.05, Burst: 4}
	newRONI := func() *admission.IncrementalRONI {
		a, err := admission.NewIncrementalRONI(cfg, calib, backendFactory(t, "sbayes"), stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	var buf bytes.Buffer
	if err := newRONI().Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	// A fresh admitter's state ends with credits, bucket (two
	// big-endian float64 words) and a one-byte empty memo count.
	credits, bucket := len(saved)-17, len(saved)-9
	r := stats.NewRNG(5)
	for _, tc := range []struct {
		name  string
		field int
		v     float64
	}{
		{"NaN bucket", bucket, math.NaN()},
		{"+Inf bucket", bucket, math.Inf(1)},
		{"-Inf bucket", bucket, math.Inf(-1)},
		{"negative bucket", bucket, -1},
		{"NaN credits", credits, math.NaN()},
		{"+Inf credits", credits, math.Inf(1)},
		{"negative credits", credits, -0.5},
	} {
		data := slices.Clone(saved)
		binary.BigEndian.PutUint64(data[tc.field:], math.Float64bits(tc.v))
		a := newRONI()
		if err := a.Load(bytes.NewReader(data)); err == nil {
			for range 50 {
				m := g.SpamMessage(r)
				a.Admit(ctx, m, stream(m), true)
			}
			s := a.Stats()
			t.Errorf("%s loaded; the admitter then probed %d of 50 arrivals on %v credits and a burst of %v",
				tc.name, s.Probes, s.CreditsGranted, cfg.Burst)
		}
	}
}

// TestIncrementalRONILoadBoundsTheMemoCount pins that a memo count the
// bytes left cannot hold fails before anything is sized by it: a state
// claiming 1<<20 memo entries over no bytes errors without allocating
// a map for them (at 1<<34, such a map exhausts memory).
func TestIncrementalRONILoadBoundsTheMemoCount(t *testing.T) {
	newRONI := func() *admission.IncrementalRONI {
		a, err := admission.NewIncrementalRONI(admission.IncrementalRONIConfig{}, pool(t, testGen(t), 100), backendFactory(t, "sbayes"), stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := newRONI()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A fresh admitter's state ends with its one-byte empty memo count.
	data := binary.AppendUvarint(slices.Clip(buf.Bytes()[:buf.Len()-1]), 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := a.Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a memo count of 1<<20 over no bytes loaded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Fatalf("rejecting a memo count of 1<<20 over no bytes allocated %d bytes", alloc)
	}
}

// TestCrashResumeKeepsHeldMailAndSpentBudget is the headline
// regression: a guarded engine with a populated quarantine and a
// drained probe budget is saved, the process "crashes" (every live
// object is rebuilt from scratch, as a restart would), and
// ResumeGuarded brings back the held attacker and the spent budget.
// Before SaveGuarded existed, this exact sequence silently amnestied
// the quarantined mail and refilled the bucket.
func TestCrashResumeKeepsHeldMailAndSpentBudget(t *testing.T) {
	for _, backend := range stockBackends {
		t.Run(backend, func(t *testing.T) {
			g := testGen(t)
			store := engine.NewMemStore()
			calib := pool(t, g, 200)

			// build constructs the guard exactly as a deployment does at
			// process start: fresh chain, fresh quarantine, same wiring.
			build := func() (*admission.Chain, *admission.IncrementalRONI, *admission.Quarantine) {
				roni, err := admission.NewIncrementalRONI(
					admission.IncrementalRONIConfig{BudgetPerMessage: 0.01, Burst: 2},
					calib, backendFactory(t, backend), stats.NewRNG(7))
				if err != nil {
					t.Fatal(err)
				}
				gate := admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 2000})
				q := admission.NewQuarantine(admission.QuarantineConfig{Capacity: 32})
				return admission.NewChain(gate, roni), roni, q
			}

			b, err := engine.Lookup(backend)
			if err != nil {
				t.Fatal(err)
			}
			base := b.New()
			for _, ex := range calib.Examples {
				base.Learn(ex.Msg, ex.Spam) //sbvet:unguarded test fixture bootstrap from the trusted calibration pool
			}
			eng := engine.New(base, engine.Config{Name: "served"})
			chain, roni, q := build()
			guarded := engine.NewGuarded(eng, chain, engine.GuardedConfig{Quarantine: q})

			// Drain the probe budget so a distinctive attacker candidate
			// lands in quarantine rather than being probed.
			r := stats.NewRNG(23)
			for i := 0; i < 4; i++ {
				m := g.SpamMessage(r)
				guarded.Vet(ctx, m, true)
			}
			attacker := mkHeld("crash-amnesty-probe", strings.Repeat("held attacker payload ", 3))
			d := guarded.Vet(ctx, attacker, true)
			if d.Verdict != admission.Held {
				t.Fatalf("fixture attacker was not quarantined: %+v (quarantine %v)", d, q.Stats())
			}
			heldBefore := q.Len()
			budgetBefore := roni.Stats()

			gen, err := engine.SaveGuarded(store, "served", guarded)
			if err != nil {
				t.Fatal(err)
			}
			if gen != eng.Generation() {
				t.Fatalf("saved generation %d, serving %d", gen, eng.Generation())
			}

			// Crash: rebuild everything from the store.
			chain2, roni2, q2 := build()
			resumed, err := engine.ResumeGuarded(store, "served", 1, engine.Config{Name: "served"}, chain2, engine.GuardedConfig{Quarantine: q2})
			if err != nil {
				t.Fatal(err)
			}
			if got := q2.Len(); got != heldBefore {
				t.Fatalf("resume amnestied the quarantine: %d held, want %d", got, heldBefore)
			}
			pending := q2.Pending()
			found := false
			for _, h := range pending {
				if h.Msg.Subject() == "crash-amnesty-probe" {
					found = true
				}
			}
			if !found {
				t.Fatalf("held attacker missing after resume: %+v", pending)
			}
			budgetAfter := roni2.Stats()
			if budgetAfter.Bucket != budgetBefore.Bucket {
				t.Fatalf("resume refilled the probe bucket: %v, want %v", budgetAfter.Bucket, budgetBefore.Bucket)
			}
			if budgetAfter != budgetBefore {
				t.Fatalf("resumed budget accounting %+v, want %+v", budgetAfter, budgetBefore)
			}

			// And the resumed engine still serves: the guard wraps the
			// resumed snapshot, not a fresh one.
			if resumed.Generation() != gen {
				t.Fatalf("resumed engine serves generation %d, want %d", resumed.Generation(), gen)
			}
		})
	}
}

// TestResumeWithoutSidecarLoadsNothing pins that a record saved
// through plain SaveEngine (no admission sections, and no sidecar
// either) resumes with loaded=false and an untouched guard.
func TestResumeWithoutSidecarLoadsNothing(t *testing.T) {
	g := testGen(t)
	store := engine.NewMemStore()
	b, err := engine.Lookup("sbayes")
	if err != nil {
		t.Fatal(err)
	}
	base := b.New()
	for _, ex := range pool(t, g, 60).Examples {
		base.Learn(ex.Msg, ex.Spam) //sbvet:unguarded test fixture bootstrap from the trusted calibration pool
	}
	eng := engine.New(base, engine.Config{Name: "plain"})
	if _, err := engine.SaveEngine(store, "plain", eng); err != nil {
		t.Fatal(err)
	}
	q := admission.NewQuarantine(admission.QuarantineConfig{})
	live := mkHeld("live", "held before the resume")
	q.Hold(live, tokenize.Default().Stream(live), true, "undecidable")
	guard := engine.NewGuarded(eng, fixed{"a", admission.Decision{Verdict: admission.Accepted}}, engine.GuardedConfig{Quarantine: q})
	snap, _, loaded, err := guard.Resume(store, "plain")
	if err != nil {
		t.Fatal(err)
	}
	if loaded || snap != 1 {
		t.Fatalf("in-place resume reported snapshot %d, admission state loaded %v; want 1 and none", snap, loaded)
	}
	if q.Len() != 1 {
		t.Fatalf("a resume without admission state touched the quarantine: %d held, want 1", q.Len())
	}
	q2 := admission.NewQuarantine(admission.QuarantineConfig{})
	if _, err := engine.ResumeGuarded(store, "plain", 1, engine.Config{Name: "plain"},
		fixed{"a", admission.Decision{Verdict: admission.Accepted}}, engine.GuardedConfig{Quarantine: q2}); err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 0 {
		t.Fatalf("start-up resume without admission state loaded %d held", q2.Len())
	}
}

// futureState is a chain link whose saved state is at version 9, which
// no admitter of this build reads.
type futureState struct{}

func (futureState) Name() string { return "future" }
func (futureState) Admit(context.Context, *mail.Message, *tokenize.TokenStream, bool) admission.Decision {
	return admission.Decision{Verdict: admission.Accepted}
}
func (futureState) Save(w io.Writer) error { _, err := w.Write([]byte{9}); return err }
func (futureState) Load(io.Reader) error   { return nil }

// TestChainLoadFailureChangesNoLink pins that Chain.Load is all or
// nothing across links: when the second link's sub-payload fails to
// load, the first link, which loaded its own cleanly, is put back.
func TestChainLoadFailureChangesNoLink(t *testing.T) {
	g := testGen(t)
	calib := pool(t, g, 100)
	newRONI := func() *admission.IncrementalRONI {
		a, err := admission.NewIncrementalRONI(admission.IncrementalRONIConfig{}, calib, backendFactory(t, "sbayes"), stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	saving := newRONI()
	r := stats.NewRNG(3)
	for range 3 {
		m := g.SpamMessage(r)
		saving.Admit(ctx, m, stream(m), true)
	}
	var buf bytes.Buffer
	if err := admission.NewChain(saving, futureState{}).Save(&buf); err != nil {
		t.Fatal(err)
	}

	first := newRONI()
	want := first.Stats()
	err := admission.NewChain(first, newRONI()).Load(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "version 9") {
		t.Fatalf("loading a version-9 second link returned %v, want its version error", err)
	}
	if got := first.Stats(); got != want {
		t.Errorf("after the failed load link 0 has %+v, want its own %+v", got, want)
	}
}
