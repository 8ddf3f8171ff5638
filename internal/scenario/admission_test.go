package scenario

// Tests for the online admission-control mode: inline vetting defends
// the deployment at a fraction of the batch defense's probe bill, the
// trace is deterministic, the adaptive attacker reacts to the
// pipeline, and ham-labeled pseudospam evades the impact-only batch
// defense but not the structural gate.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lexicon"
	"repro/internal/stats"
)

func TestOnlineAdmissionDefendsDictionaryAttack(t *testing.T) {
	for _, backend := range []string{"sbayes", "graham"} {
		t.Run(backend, func(t *testing.T) {
			g := testGen(t)
			cfg := smallCfg()
			cfg.Backend = backend
			cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))

			unguarded, err := RunOnline(g, cfg, stats.NewRNG(41))
			if err != nil {
				t.Fatal(err)
			}
			guardedCfg := cfg
			guardedCfg.Admission = &AdmissionConfig{}
			guarded, err := RunOnline(g, guardedCfg, stats.NewRNG(41))
			if err != nil {
				t.Fatal(err)
			}

			// Equal dose, a small fraction of the damage: the guarded
			// engine's at-delivery ham loss stays clean while the
			// unguarded one collapses (sbayes; graham degrades more
			// slowly, so assert the ordering and the guarded bound).
			if loss := guarded.FinalHamLoss(); loss > 0.1 {
				t.Errorf("guarded final ham loss %v", loss)
			}
			if backend == "sbayes" && unguarded.FinalHamLoss() < 0.3 {
				t.Errorf("unguarded final ham loss only %v — attack fixture too weak", unguarded.FinalHamLoss())
			}

			totalProbes, maxBatch := 0, 0
			for _, w := range guarded.Weeks {
				a := w.Admission
				if a == nil {
					t.Fatalf("week %d missing admission report", w.Week)
				}
				if w.AttackArrived > 0 && a.AttackRejected+a.AttackQuarantined != w.AttackArrived {
					t.Errorf("week %d: %d of %d attack arrivals slipped past admission",
						w.Week, w.AttackArrived-a.AttackRejected-a.AttackQuarantined, w.AttackArrived)
				}
				totalProbes += a.Probes
				if a.BatchProbeEquivalent > maxBatch {
					maxBatch = a.BatchProbeEquivalent
				}
				// The main trace mirrors the admission rejections.
				if w.AttackRejected != a.AttackRejected || w.OrganicRejected != a.OrganicRejected {
					t.Errorf("week %d: batch columns %d/%d do not mirror admission %d/%d",
						w.Week, w.AttackRejected, w.OrganicRejected, a.AttackRejected, a.OrganicRejected)
				}
			}
			// The whole run's probe bill stays strictly below what ONE
			// week-end batch RONI pass would spend.
			if totalProbes >= maxBatch {
				t.Errorf("total probes %d not below one batch pass (%d)", totalProbes, maxBatch)
			}
			if totalProbes == 0 {
				t.Error("the incremental admitter never probed")
			}
			for _, want := range []string{"inline admission control", "batch-eq", "total probes"} {
				if !strings.Contains(guarded.Render(), want) {
					t.Errorf("render missing %q", want)
				}
			}
		})
	}
}

func TestOnlineAdmissionDeterminism(t *testing.T) {
	g := testGen(t)
	cfg := smallCfg()
	cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	cfg.AttackChunks = 3
	cfg.Admission = &AdmissionConfig{}
	cfg.RetrainLag = 17
	a, err := RunOnline(g, cfg, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnline(g, cfg, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Weeks {
		if !reflect.DeepEqual(a.Weeks[i], b.Weeks[i]) {
			t.Fatalf("week %d differs across identical runs:\n%+v\n%+v\nadmission: %+v vs %+v",
				i+1, a.Weeks[i], b.Weeks[i], a.Weeks[i].Admission, b.Weeks[i].Admission)
		}
	}
}

func TestOnlineAdmissionIncrementalMatchesPeriodic(t *testing.T) {
	// The vetted kept-mail stream is identical either way, and the
	// refit hook sees the same replacement counts, so the two rebuild
	// strategies must agree verdict for verdict.
	g := testGen(t)
	cfg := smallCfg()
	cfg.Weeks = 3
	cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	cfg.Admission = &AdmissionConfig{}

	periodic := cfg
	periodic.Retraining = RetrainPeriodic
	a, err := RunOnline(g, periodic, stats.NewRNG(43))
	if err != nil {
		t.Fatal(err)
	}
	incremental := cfg
	incremental.Retraining = RetrainIncremental
	b, err := RunOnline(g, incremental, stats.NewRNG(43))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Weeks {
		if !reflect.DeepEqual(a.Weeks[i], b.Weeks[i]) {
			t.Fatalf("week %d differs: periodic %+v vs incremental %+v", i+1, a.Weeks[i], b.Weeks[i])
		}
	}
}

func TestOnlineAdmissionSharded(t *testing.T) {
	// Gateway vetting upstream of the partition: the targeted
	// dictionary attack is rejected before it can train the victim's
	// shard, so even the target's shard stays clean.
	g := testGen(t)
	cfg := smallCfg()
	cfg.Shards = 2
	cfg.Recipients = 4
	cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	cfg.AttackRecipient = RecipientAddress(0)
	cfg.Admission = &AdmissionConfig{}
	res, err := RunOnline(g, cfg, stats.NewRNG(44))
	if err != nil {
		t.Fatal(err)
	}
	target := cfg.TargetShard()
	for _, w := range res.Weeks {
		if w.Admission == nil {
			t.Fatalf("week %d missing admission report", w.Week)
		}
		if w.AttackArrived > 0 && w.Admission.AttackAdmitted != 0 {
			t.Errorf("week %d: %d attack messages admitted at the gateway", w.Week, w.Admission.AttackAdmitted)
		}
		if loss := w.ByShard[target].HamMisclassifiedRate(); loss > 0.15 {
			t.Errorf("week %d: target shard ham loss %v despite gateway vetting", w.Week, loss)
		}
	}
	// Determinism holds in sharded mode too.
	again, err := RunOnline(g, cfg, stats.NewRNG(44))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Weeks {
		if !reflect.DeepEqual(res.Weeks[i], again.Weeks[i]) {
			t.Fatalf("sharded week %d differs across identical runs", i+1)
		}
	}
}

func TestAdaptiveAttackerReactsToAdmission(t *testing.T) {
	g := testGen(t)
	base := smallCfg()
	base.Weeks = 6
	attack := core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))

	// Against the guarded pipeline the dose collapses toward the floor…
	guardedAttack, err := core.NewAdaptiveAttacker(attack, core.DefaultAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Attack = guardedAttack
	cfg.AttackAdaptive = true
	cfg.Admission = &AdmissionConfig{}
	guarded, err := RunOnline(g, cfg, stats.NewRNG(45))
	if err != nil {
		t.Fatal(err)
	}
	// …and against the undefended pipeline it ramps to the ceiling.
	openAttack, err := core.NewAdaptiveAttacker(attack, core.DefaultAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	open := base
	open.Attack = openAttack
	open.AttackAdaptive = true
	unguarded, err := RunOnline(g, open, stats.NewRNG(45))
	if err != nil {
		t.Fatal(err)
	}

	firstDose := guarded.Weeks[base.AttackStartWeek-1].AttackDose
	lastGuarded := guarded.Weeks[len(guarded.Weeks)-1].AttackDose
	lastOpen := unguarded.Weeks[len(unguarded.Weeks)-1].AttackDose
	if firstDose != base.AttackFraction {
		t.Errorf("first attack week dose %v, want the base %v", firstDose, base.AttackFraction)
	}
	if lastGuarded >= firstDose {
		t.Errorf("dose against the guarded pipeline did not shrink: %v -> %v", firstDose, lastGuarded)
	}
	if lastOpen <= firstDose {
		t.Errorf("dose against the open pipeline did not grow: %v -> %v", firstDose, lastOpen)
	}
	if !strings.Contains(guarded.Render(), "dose adapts to feedback") {
		t.Error("render does not describe the adaptive attacker")
	}
}

func TestPseudospamHamLabelsEvadeBatchRONIButNotAdmission(t *testing.T) {
	// Ham-labeled poison does not depress ham-as-ham, so the
	// impact-thresholded batch defense waves it through — while the
	// structural flood gate, which never reads the label, still
	// rejects every copy.
	g := testGen(t)
	cfg := smallCfg()
	cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	cfg.AttackLabelHam = true

	batch := cfg
	batch.UseRONI = true
	batchRes, err := RunOnline(g, batch, stats.NewRNG(46))
	if err != nil {
		t.Fatal(err)
	}
	inline := cfg
	inline.Admission = &AdmissionConfig{}
	inlineRes, err := RunOnline(g, inline, stats.NewRNG(46))
	if err != nil {
		t.Fatal(err)
	}

	var batchRejected, inlineRejected, arrived int
	for i := range batchRes.Weeks {
		arrived += batchRes.Weeks[i].AttackArrived
		batchRejected += batchRes.Weeks[i].AttackRejected
		inlineRejected += inlineRes.Weeks[i].AttackRejected
	}
	if arrived == 0 {
		t.Fatal("no attack traffic simulated")
	}
	if batchRejected != 0 {
		t.Errorf("batch RONI rejected %d ham-labeled attack messages — the stress fixture no longer stresses", batchRejected)
	}
	if inlineRejected != arrived {
		t.Errorf("admission rejected %d of %d ham-labeled attack messages", inlineRejected, arrived)
	}
	// At-delivery confusions still count the attacker's mail as spam.
	week := batchRes.Weeks[cfg.AttackStartWeek-1]
	if got := week.Delivered.NumSpam(); got <= cfg.MessagesPerWeek/2 {
		t.Errorf("attack week spam observations %d — ham-labeled attack mail not observed as spam", got)
	}
	if !strings.Contains(batchRes.Render(), "under ham labels") {
		t.Error("render does not describe the pseudospam labels")
	}
}

func TestAdmissionValidation(t *testing.T) {
	g := testGen(t)
	attack := core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))

	cfg := smallCfg()
	cfg.Admission = &AdmissionConfig{}
	cfg.UseRONI = true
	if err := cfg.Validate(); err == nil {
		t.Error("Admission alongside UseRONI validated")
	}

	cfg = smallCfg()
	cfg.AttackAdaptive = true
	if err := cfg.Validate(); err == nil {
		t.Error("AttackAdaptive without an attack validated")
	}
	cfg.Attack = attack // no FeedbackAttacker capability
	if err := cfg.Validate(); err == nil {
		t.Error("AttackAdaptive with a non-adaptive attack validated")
	}

	cfg = smallCfg()
	cfg.AttackLabelHam = true
	if err := cfg.Validate(); err == nil {
		t.Error("AttackLabelHam without an attack validated")
	}

	cfg = smallCfg()
	cfg.Admission = &AdmissionConfig{FloodGateMaxDistinct: -1}
	if err := cfg.Validate(); err == nil {
		t.Error("negative flood-gate bound validated")
	}

	// The batch simulator refuses the online-only defenses instead of
	// silently running undefended.
	cfg = smallCfg()
	cfg.Admission = &AdmissionConfig{}
	if _, err := Run(g, cfg, stats.NewRNG(1)); err == nil {
		t.Error("Run accepted Config.Admission")
	}
	cfg = smallCfg()
	adaptive, err := core.NewAdaptiveAttacker(attack, core.DefaultAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Attack = adaptive
	cfg.AttackAdaptive = true
	if _, err := Run(g, cfg, stats.NewRNG(1)); err == nil {
		t.Error("Run accepted Config.AttackAdaptive")
	}
}
