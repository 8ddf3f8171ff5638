package scenario

// Tests for the online per-message deployment mode and the
// identity-keyed rejection attribution.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/lexicon"
	"repro/internal/mail"
	"repro/internal/stats"
)

// rejectBodies is a deterministic rejecter stub: it rejects any
// message whose body contains one of its markers.
type rejectBodies []string

func (r rejectBodies) ShouldReject(q *mail.Message, qSpam bool) bool {
	for _, marker := range r {
		if strings.Contains(q.Body, marker) {
			return true
		}
	}
	return false
}

func TestScrubWeekAttributesRejectionsByIdentity(t *testing.T) {
	// Two attack chunks and an organic ham message whose body is
	// byte-identical to the first chunk (a user quoting the attack
	// email back, say). Body-equality attribution — the old bug —
	// would count the organic collision as attack and, having tracked
	// only one payload body, miscount the second chunk as organic.
	chunkA := &mail.Message{Body: "attack chunk alpha words\n"}
	chunkB := &mail.Message{Body: "attack chunk bravo words\n"}
	collision := &mail.Message{Body: chunkA.Body} // distinct identity, same body
	organic := &mail.Message{Body: "perfectly normal newsletter\n"}

	weekly := &corpus.Corpus{}
	weekly.Add(chunkA, true)
	weekly.Add(chunkB, true)
	weekly.Add(chunkA, true) // replicated copy of the same payload
	weekly.Add(collision, false)
	weekly.Add(organic, false)
	attackSet := map[*mail.Message]bool{chunkA: true, chunkB: true}

	kept, attackRej, organicRej := scrubWeek(rejectBodies{"attack chunk"}, weekly, attackSet)
	if attackRej != 3 {
		t.Errorf("AttackRejected = %d, want 3 (two chunkA copies + chunkB)", attackRej)
	}
	if organicRej != 1 {
		t.Errorf("OrganicRejected = %d, want 1 (the colliding organic message)", organicRej)
	}
	if kept.Len() != 1 || kept.Examples[0].Msg != organic {
		t.Errorf("kept %d messages, want just the organic newsletter", kept.Len())
	}
}

func TestScrubWeekMemoizesByIdentity(t *testing.T) {
	// The replicated attack payload must be measured once, not once
	// per copy.
	var calls int
	attack := &mail.Message{Body: "payload\n"}
	weekly := &corpus.Corpus{}
	for i := 0; i < 50; i++ {
		weekly.Add(attack, true)
	}
	_, attackRej, _ := scrubWeek(countingRejecter{calls: &calls}, weekly, map[*mail.Message]bool{attack: true})
	if calls != 1 {
		t.Errorf("ShouldReject called %d times for 50 identical copies, want 1", calls)
	}
	if attackRej != 50 {
		t.Errorf("AttackRejected = %d, want 50", attackRej)
	}
}

type countingRejecter struct{ calls *int }

func (c countingRejecter) ShouldReject(q *mail.Message, qSpam bool) bool {
	*c.calls++
	return true
}

func TestChunkedAttackScenarioSplitsRejectionsCorrectly(t *testing.T) {
	// A chunked dictionary attack under RONI: every rejected injection
	// must be attributed to the attack — across all chunks, which the
	// old single-body tracking could not represent — and organic
	// rejections must stay rare.
	g := testGen(t)
	cfg := smallCfg()
	cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	cfg.AttackChunks = 3
	cfg.UseRONI = true
	res, err := Run(g, cfg, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	perWeek := core.AttackSize(cfg.AttackFraction, cfg.MessagesPerWeek)
	perChunk := (perWeek + cfg.AttackChunks - 1) / cfg.AttackChunks
	for _, w := range res.Weeks {
		if w.AttackArrived == 0 {
			continue
		}
		if w.AttackArrived != perWeek {
			t.Errorf("week %d: %d attack arrivals, want %d", w.Week, w.AttackArrived, perWeek)
		}
		if w.AttackRejected > w.AttackArrived {
			t.Errorf("week %d: rejected %d of %d attack arrivals", w.Week, w.AttackRejected, w.AttackArrived)
		}
	}
	// In the first attack week the store is still clean, so RONI
	// reliably rejects the chunks; rejections spanning more than one
	// chunk prove attribution is not keyed to a single payload body.
	// (Later weeks can legitimately slip under the impact threshold as
	// trial baselines shift, so the per-week bound is asserted only
	// here.)
	first := res.Weeks[cfg.AttackStartWeek-1]
	if first.AttackRejected <= perChunk {
		t.Errorf("first attack week: only %d attack rejections (≤ one chunk's %d copies); multi-chunk attribution broken",
			first.AttackRejected, perChunk)
	}
	organic := 0
	for _, w := range res.Weeks {
		organic += w.OrganicRejected
	}
	if organic > cfg.Weeks*cfg.MessagesPerWeek/20 {
		t.Errorf("RONI rejected %d organic messages", organic)
	}
	if !strings.Contains(res.Render(), "in 3 chunks") {
		t.Error("render does not describe the chunked attack")
	}
}

func TestChunkingRequiresCapableAttacker(t *testing.T) {
	cfg := smallCfg()
	cfg.Attack = noChunkAttack{}
	cfg.AttackChunks = 4
	if err := cfg.Validate(); err == nil {
		t.Error("chunked config validated with a non-chunkable attacker")
	}
	cfg.AttackChunks = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative AttackChunks validated")
	}
}

// noChunkAttack is an Attacker without the ChunkedAttacker capability.
type noChunkAttack struct{}

func (noChunkAttack) Name() string { return "no-chunk" }
func (noChunkAttack) Taxonomy() core.Taxonomy {
	return core.Taxonomy{Influence: core.Causative, Violation: core.Availability, Specificity: core.Indiscriminate}
}
func (noChunkAttack) BuildAttack(r *stats.RNG) *mail.Message {
	return &mail.Message{Body: "attack\n"}
}

func TestOnlineValidation(t *testing.T) {
	cfg := smallCfg()
	cfg.RetrainLag = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative RetrainLag validated")
	}
	cfg = smallCfg()
	cfg.Retraining = RetrainMode(9)
	if err := cfg.Validate(); err == nil {
		t.Error("unknown RetrainMode validated")
	}
	g := testGen(t)
	bad := smallCfg()
	bad.Backend = "nonesuch"
	if _, err := RunOnline(g, bad, stats.NewRNG(1)); err == nil {
		t.Error("RunOnline accepted unknown backend")
	}
}

func TestOnlineCleanDeployment(t *testing.T) {
	g := testGen(t)
	cfg := smallCfg()
	res, err := RunOnline(g, cfg, stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Weeks) != cfg.Weeks {
		t.Fatalf("%d weeks", len(res.Weeks))
	}
	for _, w := range res.Weeks {
		if loss := w.Delivered.HamMisclassifiedRate(); loss > 0.1 {
			t.Errorf("week %d: clean deployment loses %v of ham at delivery", w.Week, loss)
		}
		// One snapshot swap per completed week: the retrain kicked off
		// at week w's end publishes during week w+1.
		if w.Generation != uint64(w.Week) {
			t.Errorf("week %d: serving generation %d, want %d", w.Week, w.Generation, w.Week)
		}
		if got := w.Delivered.NumHam() + w.Delivered.NumSpam(); got != cfg.MessagesPerWeek {
			t.Errorf("week %d: %d delivered verdicts, want %d", w.Week, got, cfg.MessagesPerWeek)
		}
	}
	want := cfg.InitialMailStore + cfg.Weeks*cfg.MessagesPerWeek
	if got := res.Weeks[len(res.Weeks)-1].MailStoreSize; got != want {
		t.Errorf("final store = %d, want %d", got, want)
	}
}

func TestOnlineAttackDegradesDeliveredVerdicts(t *testing.T) {
	g := testGen(t)
	cfg := smallCfg()
	cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	res, err := RunOnline(g, cfg, stats.NewRNG(22))
	if err != nil {
		t.Fatal(err)
	}
	// Before the attack enters training, users saw a working filter.
	pre := res.Weeks[cfg.AttackStartWeek-2]
	if loss := pre.Delivered.HamMisclassifiedRate(); loss > 0.1 {
		t.Errorf("pre-attack week loses %v of ham at delivery", loss)
	}
	// After the poisoned retrains go live, the verdicts users received
	// are badly degraded — the at-delivery view of the paper's attack.
	if res.FinalHamLoss() < 0.3 {
		t.Errorf("final at-delivery ham loss only %v despite sustained attack", res.FinalHamLoss())
	}
	last := res.Weeks[len(res.Weeks)-1]
	if last.AttackArrived == 0 {
		t.Error("no attack arrivals recorded")
	}
	for _, want := range []string{"Online deployment", "at-delivery", "gen"} {
		if !strings.Contains(res.Render(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestOnlineRetrainLagDelaysPoisonedSnapshot(t *testing.T) {
	// With lag 0 the poisoned retrain goes live at the week boundary;
	// with a lag beyond the weekly volume it goes live a whole week
	// later, so the first post-attack week's deliveries are still
	// judged by the clean snapshot.
	g := testGen(t)
	base := smallCfg()
	base.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))

	prompt := base
	prompt.RetrainLag = 0
	fast, err := RunOnline(g, prompt, stats.NewRNG(23))
	if err != nil {
		t.Fatal(err)
	}
	lagged := base
	lagged.RetrainLag = 10 * base.MessagesPerWeek
	slow, err := RunOnline(g, lagged, stats.NewRNG(23))
	if err != nil {
		t.Fatal(err)
	}
	// First week whose deliveries can see poison: AttackStartWeek+1.
	week := base.AttackStartWeek // index of week AttackStartWeek+1
	fastLoss := fast.Weeks[week].Delivered.HamMisclassifiedRate()
	slowLoss := slow.Weeks[week].Delivered.HamMisclassifiedRate()
	if fastLoss <= slowLoss {
		t.Errorf("week %d at-delivery ham loss: lag-0 %v not above lag-full %v — swap timing has no effect",
			week+1, fastLoss, slowLoss)
	}
	if slowLoss > 0.1 {
		t.Errorf("lagged deployment already poisoned in week %d (loss %v)", week+1, slowLoss)
	}
}

func TestOnlineIncrementalMatchesPeriodic(t *testing.T) {
	// Both backends train additive token counts, so cloning the
	// serving snapshot and learning only the week's kept mail must
	// produce exactly the filter a full rebuild from the store does —
	// week for week, verdict for verdict.
	for _, backend := range []string{"sbayes", "graham"} {
		t.Run(backend, func(t *testing.T) {
			g := testGen(t)
			cfg := smallCfg()
			cfg.Backend = backend
			cfg.Weeks = 3
			cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))

			periodic := cfg
			periodic.Retraining = RetrainPeriodic
			a, err := RunOnline(g, periodic, stats.NewRNG(24))
			if err != nil {
				t.Fatal(err)
			}
			incremental := cfg
			incremental.Retraining = RetrainIncremental
			b, err := RunOnline(g, incremental, stats.NewRNG(24))
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.Weeks {
				if !reflect.DeepEqual(a.Weeks[i], b.Weeks[i]) {
					t.Fatalf("week %d differs: periodic %+v vs incremental %+v", i+1, a.Weeks[i], b.Weeks[i])
				}
			}
		})
	}
}

func TestOnlineDeterminism(t *testing.T) {
	// The background rebuild joins at a fixed point in simulated time,
	// so the concurrent build must not leak scheduling into the trace.
	g := testGen(t)
	cfg := smallCfg()
	cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	cfg.UseRONI = true
	cfg.RetrainLag = 17
	a, err := RunOnline(g, cfg, stats.NewRNG(25))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnline(g, cfg, stats.NewRNG(25))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Weeks {
		if !reflect.DeepEqual(a.Weeks[i], b.Weeks[i]) {
			t.Fatalf("week %d differs across identical runs: %+v vs %+v", i+1, a.Weeks[i], b.Weeks[i])
		}
	}
}
