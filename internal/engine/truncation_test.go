package engine_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/stats"
	"repro/internal/textgen"
	"repro/internal/tokenize"
)

// decoderCase is one decoder of saved bytes and a valid input for it.
type decoderCase struct {
	name string
	data []byte
	// load decodes its argument, into the receiver for an in-place Load.
	load func([]byte) error
	// state is the receiver's saved state; nil for a decoder that has
	// no receiver.
	state func() []byte
}

// TestDecodersRejectTruncationAndTrailingBytes holds every decoder of
// saved bytes to one table: the snapshot record of both versions (the
// golden fixtures and the version-1 store), the version-1 admission
// sidecar, the quarantine, RONI and chain state payloads (real saves),
// and both backends' token databases of both versions (the golden
// fixtures). Every strict prefix of a valid input must error, and so
// must the whole input with one byte appended; an in-place Load that
// errors must leave its receiver as it was.
func TestDecodersRejectTruncationAndTrailingBytes(t *testing.T) {
	fixture := func(parts ...string) []byte {
		data, err := os.ReadFile(filepath.Join(parts...))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	decode := func(data []byte) error { _, err := engine.DecodeEnvelope(data); return err }
	cases := []decoderCase{
		{name: "SNAP v1", data: fixture("testdata", "envelope_v1.snap"), load: decode},
		{name: "SNAP v2", data: fixture("testdata", "envelope_v2.snap"), load: decode},
		{name: "SNAP v1 store record", data: fixture("testdata", "store_v1", "served.00000000000000000002.snap"), load: decode},
		{name: "ADMS sidecar", data: fixture("testdata", "store_v1", "served.admission.00000000000000000002.snap"),
			load: func(data []byte) error { _, _, err := engine.DecodeSidecar(data); return err }},
	}
	cases = append(cases, admissionCases(t)...)
	for _, db := range []struct{ backend, dir, ext string }{{"sbayes", "sbayes", "sbdb"}, {"graham", "graham", "grdb"}} {
		for _, v := range []string{"v1", "v2"} {
			clf := trained(t, db.backend)
			cases = append(cases, decoderCase{
				name:  db.backend + " " + v,
				data:  fixture("..", db.dir, "testdata", "golden_"+v+"."+db.ext),
				load:  func(data []byte) error { return clf.Load(bytes.NewReader(data)) },
				state: func() []byte { return saved(t, clf) },
			})
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var before []byte
			if c.state != nil {
				before = c.state()
			}
			reject := func(what string, in []byte) {
				t.Helper()
				if err := c.load(in); err == nil {
					t.Fatalf("%s (%d of %d bytes) loaded without error", what, len(in), len(c.data))
				}
				if c.state != nil && !bytes.Equal(c.state(), before) {
					t.Fatalf("a failed Load of %s (%d bytes) changed its receiver", what, len(in))
				}
			}
			for n := range len(c.data) {
				reject("a strict prefix", c.data[:n:n])
			}
			reject("the input plus one byte", append(slices.Clip(c.data), 0))
			if err := c.load(c.data); err != nil {
				t.Fatalf("the whole input does not load: %v", err)
			}
		})
	}
}

// saved returns what p saves.
func saved(t *testing.T, p engine.Persistable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// admissionCases returns the quarantine, RONI and chain state decoders,
// each with a real save of a component that held and probed mail, and a
// receiver with state of its own.
func admissionCases(t *testing.T) []decoderCase {
	gen := textgen.MustNew(textgen.MustUniverse(textgen.UniverseConfig{
		CommonWords: 50, StandardWords: 300, FormalWords: 100, ColloquialWords: 100, SpamWords: 60, PersonalWords: 100,
	}), textgen.DefaultConfig())
	calib := gen.Corpus(stats.NewRNG(3), 20, 20)
	b, err := engine.Lookup("sbayes")
	if err != nil {
		t.Fatal(err)
	}
	newRONI := func() *admission.IncrementalRONI {
		a, err := admission.NewIncrementalRONI(admission.IncrementalRONIConfig{
			RONI:             core.RONIConfig{TrainSize: 6, ValSize: 8, Trials: 1, SpamPrevalence: 0.5, Threshold: 5.5},
			BudgetPerMessage: 0.01, Burst: 2,
		}, calib, b.New, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	// admitted runs n distinct arrivals through admit: the first probe
	// and memoize, the rest defer once the burst is spent.
	r := stats.NewRNG(11)
	admitted := func(admit func(*mail.Message, *tokenize.TokenStream), n int) {
		for range n {
			m := gen.SpamMessage(r)
			admit(m, tokenize.Default().Stream(m))
		}
	}
	held := func(n int) *admission.Quarantine {
		q := admission.NewQuarantine(admission.QuarantineConfig{Capacity: 8})
		admitted(func(m *mail.Message, ts *tokenize.TokenStream) { q.Hold(m, ts, true, "roni: probe budget exhausted") }, n)
		return q
	}
	probed := func(n int) *admission.IncrementalRONI {
		a := newRONI()
		admitted(func(m *mail.Message, ts *tokenize.TokenStream) { a.Admit(context.Background(), m, ts, true) }, n)
		return a
	}
	chain := func(n int) *admission.Chain {
		return admission.NewChain(admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 2000}), probed(n))
	}
	if s := probed(4).Stats(); s.Probes == 0 || s.Deferred == 0 || s.MemoHits != 0 {
		t.Fatalf("the RONI fixture should probe, then defer: %+v", s)
	}
	var cases []decoderCase
	for _, c := range []struct {
		name          string
		saved, target engine.Persistable
	}{
		{"quarantine state", held(3), held(1)},
		{"RONI state", probed(4), probed(1)},
		{"chain state", chain(4), chain(1)},
	} {
		state := func() []byte {
			var buf bytes.Buffer
			if err := c.target.Save(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		var data bytes.Buffer
		if err := c.saved.Save(&data); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, decoderCase{
			name:  c.name,
			data:  data.Bytes(),
			load:  func(data []byte) error { return c.target.Load(bytes.NewReader(data)) },
			state: state,
		})
	}
	return cases
}
