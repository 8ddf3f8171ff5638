package admission_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/stats"
)

// FuzzAdmissionLoadState holds the three admission state decoders
// (Quarantine, IncrementalRONI and Chain Load) to three properties.
// Arbitrary bytes load or return an error, never panic. A payload a
// decoder accepts is a fixed point after one round: the state it loads
// saves to bytes that load back and save to the same bytes. And an
// accepted RONI state, standalone or in the chain, carries a budget
// the admitter can honour: a finite, non-negative bucket and credits.
// The committed seeds in testdata/fuzz are real Save outputs, so the
// mutator starts from payloads that get past every version and count
// check.
func FuzzAdmissionLoadState(f *testing.F) {
	b, err := engine.Lookup("sbayes")
	if err != nil {
		f.Fatal(err)
	}
	roni, err := admission.NewIncrementalRONI(admission.IncrementalRONIConfig{}, pool(f, testGen(f), 100), b.New, stats.NewRNG(7))
	if err != nil {
		f.Fatal(err)
	}
	// The chain holds its own RONI, so loading it never disturbs the
	// standalone target's state.
	chainRONI, err := admission.NewIncrementalRONI(admission.IncrementalRONIConfig{}, pool(f, testGen(f), 100), b.New, stats.NewRNG(7))
	if err != nil {
		f.Fatal(err)
	}
	targets := []struct {
		name string
		p    engine.Persistable
		roni *admission.IncrementalRONI // whose budget the state sets, if any
	}{
		{"quarantine", admission.NewQuarantine(admission.QuarantineConfig{Capacity: 8}), nil},
		{"roni", roni, roni},
		{"chain", admission.NewChain(admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 2000}), chainRONI), chainRONI},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tg := range targets {
			if tg.p.Load(bytes.NewReader(data)) != nil {
				continue
			}
			if tg.roni != nil {
				if s := tg.roni.Stats(); !budgetHonourable(s.Bucket) || !budgetHonourable(s.CreditsGranted) {
					t.Fatalf("%s: accepted a budget of bucket %v, credits %v", tg.name, s.Bucket, s.CreditsGranted)
				}
			}
			first := saveState(t, tg.name, tg.p)
			if err := tg.p.Load(bytes.NewReader(first)); err != nil {
				t.Fatalf("%s: its own saved state does not load: %v", tg.name, err)
			}
			if second := saveState(t, tg.name, tg.p); !bytes.Equal(first, second) {
				t.Fatalf("%s: a save/load round changed the saved state:\n%x\n%x", tg.name, first, second)
			}
		}
	})
}

func saveState(t *testing.T, name string, p engine.Persistable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("%s: Save: %v", name, err)
	}
	return buf.Bytes()
}

// budgetHonourable reports whether v is a probe budget an admitter can
// spend against: finite and not negative.
func budgetHonourable(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
