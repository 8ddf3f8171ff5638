package admission_test

import (
	"bytes"
	"testing"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/stats"
)

// FuzzAdmissionLoadState holds the three admission state decoders
// (Quarantine, IncrementalRONI and Chain LoadState) to two properties.
// Arbitrary bytes load or return an error, never panic. And a payload
// a decoder accepts is a fixed point after one round: the state it
// loads saves to bytes that load back and save to the same bytes. The
// committed seeds in testdata/fuzz are real SaveState outputs, so the
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
		p    engine.AdmissionStatePersister
	}{
		{"quarantine", admission.NewQuarantine(admission.QuarantineConfig{Capacity: 8})},
		{"roni", roni},
		{"chain", admission.NewChain(admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 2000}), chainRONI)},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tg := range targets {
			if tg.p.LoadState(bytes.NewReader(data)) != nil {
				continue
			}
			first := saveState(t, tg.name, tg.p)
			if err := tg.p.LoadState(bytes.NewReader(first)); err != nil {
				t.Fatalf("%s: its own saved state does not load: %v", tg.name, err)
			}
			if second := saveState(t, tg.name, tg.p); !bytes.Equal(first, second) {
				t.Fatalf("%s: a save/load round changed the saved state:\n%x\n%x", tg.name, first, second)
			}
		}
	})
}

func saveState(t *testing.T, name string, p engine.AdmissionStatePersister) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		t.Fatalf("%s: SaveState: %v", name, err)
	}
	return buf.Bytes()
}
