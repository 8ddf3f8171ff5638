package engine_test

// One record per save: every save is one SnapshotStore.Write, so a
// save killed at any write, or a newest record with one flipped bit,
// resumes the previous save whole — classifiers, held mail and spent
// probe budget together.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/stats"
	"repro/internal/textgen"
	"repro/internal/tokenize"
)

// errCrashed is the failure of every write a crashStore refuses.
var errCrashed = errors.New("store crashed")

// crashStore counts Writes and, with failAt > 0, dies at the failAt-th:
// that write and every later one fail without storing anything, as a
// process killed mid-save leaves its store.
type crashStore struct {
	engine.SnapshotStore
	writes, failAt int
}

func (s *crashStore) Write(name string, gen uint64, data []byte) error {
	s.writes++
	if s.failAt > 0 && s.writes >= s.failAt {
		return errCrashed
	}
	return s.SnapshotStore.Write(name, gen, data)
}

// TestEverySaveIsOneWrite pins the one-record layout: SaveEngine and
// SaveGuarded each store exactly one record under the name itself, at
// any shard count, holding every shard and — for the guard — the
// admitter and quarantine sections.
func TestEverySaveIsOneWrite(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		forEachSize(t, func(t *testing.T, n int) {
			q := admission.NewQuarantine(admission.QuarantineConfig{Capacity: 4})
			g := newGuard(n, func(int) engine.Classifier { return trained(t, backend) },
				&stateAdmitter{state: "spent budget"}, engine.GuardedConfig{Quarantine: q})
			st := &crashStore{SnapshotStore: engine.NewMemStore()}
			for _, save := range []struct {
				name     string
				save     func() (uint64, error)
				sections []string
			}{
				{"plain", func() (uint64, error) { return engine.SaveEngine(st, "plain", g.Engine()) }, nil},
				{"served", func() (uint64, error) { return engine.SaveGuarded(st, "served", g) }, []string{"admitter", "quarantine"}},
			} {
				before := st.writes
				gen, err := save.save()
				if err != nil {
					t.Fatal(err)
				}
				if got := st.writes - before; got != 1 {
					t.Errorf("%s: the save made %d writes, want 1", save.name, got)
				}
				env, err := engine.LatestEnvelope(st, save.name)
				if err != nil {
					t.Fatal(err)
				}
				var labels []string
				for _, s := range env.Sections {
					labels = append(labels, s.Label)
				}
				if env.Generation != gen || env.Backend != backend || len(env.Shards) != n || !slices.Equal(labels, save.sections) {
					t.Errorf("%s: record at generation %d of %s holds %d shards and sections %v, want %d, %s, %d and %v",
						save.name, env.Generation, env.Backend, len(env.Shards), labels, gen, backend, n, save.sections)
				}
			}
		})
	})
}

// savedState is what one guarded save persisted, read from the live
// guard as it was saved.
type savedState struct {
	gen    uint64
	shards [][]byte
	held   []string
	budget admission.IncrementalRONIStats
}

// shardBytes is every serving shard's Save output.
func shardBytes(t *testing.T, e *engine.Engine) [][]byte {
	t.Helper()
	clfs, _ := e.Snapshots()
	out := make([][]byte, len(clfs))
	for i, clf := range clfs {
		var buf bytes.Buffer
		if err := clf.Save(&buf); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// pendingSubjects lists the quarantine's held subjects in order.
func pendingSubjects(q *admission.Quarantine) []string {
	var out []string
	for _, h := range q.Pending() {
		out = append(out, h.Msg.Subject())
	}
	return out
}

// crashRig builds guarded fleets of one backend and size whose
// admission state is worth keeping, and resumes them.
type crashRig struct {
	backend string
	n       int
	calib   *corpus.Corpus
}

// wire builds the admission a process start builds: a RONI link with
// a one-probe budget, then markerAdmitter (which holds "odd" mail),
// into an empty quarantine.
func (r crashRig) wire(t *testing.T) (*admission.Chain, *admission.IncrementalRONI, *admission.Quarantine) {
	t.Helper()
	b, err := engine.Lookup(r.backend)
	if err != nil {
		t.Fatal(err)
	}
	roni, err := admission.NewIncrementalRONI(admission.IncrementalRONIConfig{BudgetPerMessage: 0.01, Burst: 1},
		r.calib, b.New, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	return admission.NewChain(roni, markerAdmitter{}), roni, admission.NewQuarantine(admission.QuarantineConfig{Capacity: 16})
}

// vet offers count odd candidates, numbered from first, to g.
func vet(g *engine.Guarded, first, count int) {
	for i := first; i < first+count; i++ {
		m := userMsg(fmt.Sprintf("odd candidate %d words\n", i), i)
		m.Header.Set("Subject", fmt.Sprintf("held-%d", i))
		g.Vet(context.Background(), m, true)
	}
}

// saveThenAdvance saves a guarded fleet with held mail and a spent
// probe budget into a fresh store as "served", then moves the fleet
// past that save: a new epoch, more held mail, more arrivals counted.
// It returns the store, the advanced guard, and what the save holds.
func (r crashRig) saveThenAdvance(t *testing.T) (*engine.MemStore, *engine.Guarded, savedState) {
	t.Helper()
	chain, roni, q := r.wire(t)
	g := newGuard(r.n, func(int) engine.Classifier { return trained(t, r.backend) }, chain, engine.GuardedConfig{Quarantine: q})
	vet(g, 0, 4)
	st := engine.NewMemStore()
	gen, err := engine.SaveGuarded(st, "served", g)
	if err != nil {
		t.Fatal(err)
	}
	want := savedState{gen: gen, shards: shardBytes(t, g.Engine()), held: pendingSubjects(q), budget: roni.Stats()}
	if len(want.held) == 0 || want.budget.Probes == 0 {
		t.Fatalf("fixture holds %v after %d probes, want held mail and a spent budget", want.held, want.budget.Probes)
	}

	clfs, _ := g.Engine().Snapshots()
	next := make([]engine.Classifier, len(clfs))
	for i, clf := range clfs {
		next[i] = clf.CloneClassifier()
		next[i].Learn(msg(fmt.Sprintf("advanced past the save shard%d\n", i)), false)
	}
	if _, err := g.Swap(next...); err != nil {
		t.Fatal(err)
	}
	vet(g, 4, 2)
	if len(pendingSubjects(q)) <= len(want.held) {
		t.Fatalf("advancing held no more mail than the save: %v", pendingSubjects(q))
	}
	return st, g, want
}

// resumesTo fails unless a process start over st resumes exactly want.
func (r crashRig) resumesTo(t *testing.T, st engine.SnapshotStore, want savedState, what string) {
	t.Helper()
	chain, roni, q := r.wire(t)
	g, err := engine.ResumeGuarded(st, "served", r.n, engine.Config{Name: "served"}, chain, engine.GuardedConfig{Quarantine: q})
	if err != nil {
		t.Fatalf("%s: resume: %v", what, err)
	}
	if g.Generation() != want.gen {
		t.Errorf("%s: resumed generation %d, want the previous save's %d", what, g.Generation(), want.gen)
	}
	if !reflect.DeepEqual(shardBytes(t, g.Engine()), want.shards) {
		t.Errorf("%s: resumed classifiers differ from the previous save's", what)
	}
	if got := pendingSubjects(q); !slices.Equal(got, want.held) {
		t.Errorf("%s: resumed quarantine holds %v, want %v", what, got, want.held)
	}
	if got := roni.Stats(); got != want.budget {
		t.Errorf("%s: resumed probe budget %+v, want %+v", what, got, want.budget)
	}
}

// TestGuardedSaveSurvivesCrashAtAnyWrite kills a guarded save after
// each write it makes and, separately, flips one bit at a time in the
// newest record. Every time, a restart must resume the previous save
// whole: its classifiers, its held mail and its spent probe budget.
func TestGuardedSaveSurvivesCrashAtAnyWrite(t *testing.T) {
	calib := textgen.MustNew(textgen.MustUniverse(textgen.SmallUniverseConfig()), textgen.DefaultConfig()).Corpus(stats.NewRNG(3), 40, 40)
	forEachBackend(t, func(t *testing.T, backend string) {
		forEachSize(t, func(t *testing.T, n int) {
			r := crashRig{backend: backend, n: n, calib: calib}
			for k := 1; ; k++ {
				st, g, want := r.saveThenAdvance(t)
				crash := &crashStore{SnapshotStore: st, failAt: k}
				_, err := engine.SaveGuarded(crash, "served", g)
				if err == nil {
					break // the save made fewer than k writes
				}
				if !errors.Is(err, errCrashed) {
					t.Fatal(err)
				}
				r.resumesTo(t, st, want, fmt.Sprintf("save killed at write %d", k))
			}

			st, g, want := r.saveThenAdvance(t)
			gen, err := engine.SaveGuarded(st, "served", g)
			if err != nil {
				t.Fatal(err)
			}
			record, err := st.Read("served", gen)
			if err != nil {
				t.Fatal(err)
			}
			for _, at := range []int{4, len(record) / 2, len(record) - 1} {
				flipped := append([]byte(nil), record...)
				flipped[at] ^= 0x01
				if err := st.Write("served", gen, flipped); err != nil {
					t.Fatal(err)
				}
				r.resumesTo(t, st, want, fmt.Sprintf("bit flipped at byte %d of %d", at, len(record)))
			}
		})
	})
}

// TestResumedHoldsReuseThePersistedMemo: a held copy of a payload
// whose RONI verdict is in the memo is decided from the memo after a
// restart, as it is in the live process. One copy is held on an empty
// probe bucket, a later copy is probed, and the guard is saved. A
// review with no new budget must then decide the held copy with no
// probe — live, after a resume at start-up, and after a resume in
// place. A record keeps held messages, not their streams; a resumed
// hold left without one missed the digest-keyed memo and was deferred
// again.
func TestResumedHoldsReuseThePersistedMemo(t *testing.T) {
	gen := textgen.MustNew(textgen.MustUniverse(textgen.SmallUniverseConfig()), textgen.DefaultConfig())
	calib := gen.Corpus(stats.NewRNG(3), 40, 40)
	// payload builds one more copy of the same message: a distinct
	// *mail.Message with the same tokens.
	payload := func() *mail.Message {
		m := gen.SpamMessage(stats.NewRNG(5))
		m.Header.Set("To", "victim@corp.example")
		return m
	}
	ctx := context.Background()
	forEachBackend(t, func(t *testing.T, backend string) {
		forEachSize(t, func(t *testing.T, n int) {
			b, err := engine.Lookup(backend)
			if err != nil {
				t.Fatal(err)
			}
			// wire builds the admission a process start builds: the
			// flood gate, then a RONI link whose bucket starts below one
			// probe.
			wire := func() (*admission.Chain, *admission.IncrementalRONI, *admission.Quarantine) {
				roni, err := admission.NewIncrementalRONI(admission.IncrementalRONIConfig{BudgetPerMessage: 0.001, Burst: 0.5},
					calib, b.New, stats.NewRNG(9))
				if err != nil {
					t.Fatal(err)
				}
				gate := admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 2000})
				return admission.NewChain(gate, roni), roni, admission.NewQuarantine(admission.QuarantineConfig{Capacity: 16})
			}
			chain, roni, q := wire()
			g := newGuard(n, func(int) engine.Classifier { return trained(t, backend) }, chain, engine.GuardedConfig{Quarantine: q})
			if d := g.Vet(ctx, payload(), true); d.Verdict != engine.AdmitQuarantine {
				t.Fatalf("first copy on an empty bucket: %v (%s), want it held", d.Verdict, d.Reason)
			}
			roni.Grant(1)
			probed := g.Vet(ctx, payload(), true)
			if probed.Verdict == engine.AdmitQuarantine || roni.Stats().Probes != 1 {
				t.Fatalf("second copy after a grant: %v (%s) after %d probes, want one probe's verdict",
					probed.Verdict, probed.Reason, roni.Stats().Probes)
			}
			st := engine.NewMemStore()
			if _, err := engine.SaveGuarded(st, "served", g); err != nil {
				t.Fatal(err)
			}

			review := func(what string, chain *admission.Chain, roni *admission.IncrementalRONI, q *admission.Quarantine) {
				t.Helper()
				before := roni.Stats()
				released, dropped := q.Review(func(m *mail.Message, ts *tokenize.TokenStream, spam bool) admission.Decision {
					return chain.Admit(ctx, m, ts, spam)
				})
				after := roni.Stats()
				wantReleased := 0
				if probed.Verdict == engine.AdmitAccept {
					wantReleased = 1
				}
				if len(released) != wantReleased || len(released)+dropped != 1 || after.Probes != before.Probes ||
					after.MemoHits != before.MemoHits+1 || after.Deferred != before.Deferred {
					t.Errorf("%s: the review released %d and dropped %d (probes %d→%d, memo hits %d→%d, deferred %d→%d); "+
						"want the held copy decided (%v) from the memo with no probe",
						what, len(released), dropped, before.Probes, after.Probes, before.MemoHits, after.MemoHits,
						before.Deferred, after.Deferred, probed.Verdict)
				}
			}
			review("live", chain, roni, q)

			chain2, roni2, q2 := wire()
			if _, err := engine.ResumeGuarded(st, "served", n, engine.Config{Name: "served"}, chain2, engine.GuardedConfig{Quarantine: q2}); err != nil {
				t.Fatal(err)
			}
			review("resumed at start-up", chain2, roni2, q2)

			chain3, roni3, q3 := wire()
			g3 := newGuard(n, func(int) engine.Classifier { return b.New() }, chain3, engine.GuardedConfig{Quarantine: q3})
			if _, _, _, err := g3.Resume(st, "served"); err != nil {
				t.Fatal(err)
			}
			review("resumed in place", chain3, roni3, q3)
		})
	})
}

// TestFailedResumeInPlaceKeepsTheGuardsState pins that a resume loads
// a record's sections all or nothing: when a section at version 9
// follows one that loads, Resume errors and the running guard keeps
// its own probe budget and held mail, each hold with a stream, not
// half of the record's.
func TestFailedResumeInPlaceKeepsTheGuardsState(t *testing.T) {
	calib := textgen.MustNew(textgen.MustUniverse(textgen.SmallUniverseConfig()), textgen.DefaultConfig()).Corpus(stats.NewRNG(3), 40, 40)
	r := crashRig{backend: "sbayes", n: 1, calib: calib}
	mk := func(int) engine.Classifier { return trained(t, r.backend) }

	// The record's state: a RONI link that has seen three candidates
	// and the mail they left held.
	donor, _, donorQ := r.wire(t)
	vet(newGuard(1, mk, donor, engine.GuardedConfig{Quarantine: donorQ}), 0, 3)
	var admitter, quarantine bytes.Buffer
	if err := donor.Save(&admitter); err != nil {
		t.Fatal(err)
	}
	if err := donorQ.Save(&quarantine); err != nil {
		t.Fatal(err)
	}
	future := []byte{9}

	for _, sections := range [][]engine.Section{
		{{Label: "admitter", Payload: admitter.Bytes()}, {Label: "quarantine", Payload: future}},
		{{Label: "quarantine", Payload: quarantine.Bytes()}, {Label: "admitter", Payload: future}},
	} {
		chain, roni, q := r.wire(t)
		g := newGuard(1, mk, chain, engine.GuardedConfig{Quarantine: q})
		vet(g, 10, 2)
		budget, held := roni.Stats(), pendingSubjects(q)
		if len(held) == 0 {
			t.Fatal("the running guard holds no mail")
		}
		st := engine.NewMemStore()
		env := engine.Envelope{Backend: r.backend, Generation: 7, Shards: shardBytes(t, g.Engine()), Sections: sections}
		if err := st.Write("served", env.Generation, env.Encode()); err != nil {
			t.Fatal(err)
		}
		what := sections[1].Label + " section at version 9"
		if _, _, _, err := g.Resume(st, "served"); err == nil || !strings.Contains(err.Error(), "version 9") {
			t.Fatalf("%s: resume returned %v, want its version error", what, err)
		}
		if got := roni.Stats(); got != budget {
			t.Errorf("%s: after the failed resume the probe budget is %+v, want the running guard's %+v", what, got, budget)
		}
		if got := pendingSubjects(q); !slices.Equal(got, held) {
			t.Errorf("%s: after the failed resume the quarantine holds %v, want %v", what, got, held)
		}
		for _, h := range q.Pending() {
			if h.Stream == nil {
				t.Errorf("%s: hold %q has no stream after the failed resume", what, h.Msg.Subject())
			}
		}
	}
}
