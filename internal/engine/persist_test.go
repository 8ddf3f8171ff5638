package engine_test

// Persistence-subsystem tests: envelope framing and corruption
// rejection, the SnapshotStore implementations (atomic filesystem
// writes, listing, pruning), engine save/resume across generations,
// the crash-recovery contract of a sharded engine — the resumed
// engine serves the newest record whose every shard loads, with
// byte-identical re-saved state, and a corrupt record costs the whole
// fleet that generation, never one shard — and the stores saved before
// one record per save.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/mail"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	env := engine.Envelope{
		Backend: "sbayes", Generation: 7,
		Shards:   [][]byte{[]byte("db bytes"), []byte("shard 1 db")},
		Sections: []engine.Section{{Label: "quarantine", Payload: []byte("held")}},
	}
	got, err := engine.DecodeEnvelope(env.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("round trip = %+v", got)
	}
	// Empty payload is legal (an untrained filter persists too).
	empty := engine.Envelope{Backend: "graham", Generation: 1, Shards: [][]byte{nil}}
	if _, err := engine.DecodeEnvelope(empty.Encode()); err != nil {
		t.Fatalf("empty payload: %v", err)
	}
}

// seal appends a correct CRC to a hand-built envelope body, so the
// structural validation beyond the checksum is reachable.
func seal(body []byte) []byte {
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	return append(append([]byte(nil), body...), crc[:]...)
}

func TestDecodeEnvelopeRejectsCorruption(t *testing.T) {
	valid := engine.Envelope{Backend: "sbayes", Generation: 3, Shards: [][]byte{[]byte("payload")}}.Encode()
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	badVersion := append([]byte(nil), valid...)
	badVersion[4] = 99
	cases := map[string][]byte{
		"empty":            nil,
		"short":            []byte("SN"),
		"bad magic":        seal([]byte("NOPE\x01rest")),
		"bad version":      badVersion, // also fails CRC, but version is checked first
		"flipped bit":      flipped,
		"truncated":        valid[:len(valid)-6],
		"trailing byte":    append(append([]byte(nil), valid...), 0x00),
		"zero generation":  engine.Envelope{Backend: "sbayes", Shards: [][]byte{[]byte("p")}}.Encode(),
		"zero name length": seal(append(append([]byte(nil), "SNAP\x01"...), 0)),
		"huge name length": seal(append(append([]byte(nil), "SNAP\x01"...), 0xff, 0xff, 0x03)),
		"payload mismatch": seal(append(append([]byte(nil), "SNAP\x01"...), 6, 's', 'b', 'a', 'y', 'e', 's', 1, 9, 'x')),
		"v1 trailing byte": seal(append(append([]byte(nil), "SNAP\x01"...), 6, 's', 'b', 'a', 'y', 'e', 's', 1, 1, 'x', 'y')),
		"no shards":        engine.Envelope{Backend: "sbayes", Generation: 1}.Encode(),
		"huge shard count": seal(append(append([]byte(nil), "SNAP\x02"...), 6, 's', 'b', 'a', 'y', 'e', 's', 1, 0xff, 0x01, 0)),
		"shard mismatch":   seal(append(append([]byte(nil), "SNAP\x02"...), 6, 's', 'b', 'a', 'y', 'e', 's', 1, 1, 9, 'x', 0)),
		"no section count": seal(append(append([]byte(nil), "SNAP\x02"...), 6, 's', 'b', 'a', 'y', 'e', 's', 1, 1, 1, 'x')),
		"section mismatch": seal(append(append([]byte(nil), "SNAP\x02"...), 6, 's', 'b', 'a', 'y', 'e', 's', 1, 1, 1, 'x', 1, 1, 'q', 5, 'y')),
	}
	for name, data := range cases {
		if _, err := engine.DecodeEnvelope(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// storeContract runs the shared SnapshotStore behavior against an
// implementation.
func storeContract(t *testing.T, st engine.SnapshotStore) {
	t.Helper()
	for _, gen := range []uint64{3, 1, 2} {
		if err := st.Write("eng", gen, []byte(fmt.Sprintf("snap-%d", gen))); err != nil {
			t.Fatal(err)
		}
	}
	// A sibling name sharing the prefix must not leak into listings.
	if err := st.Write("eng.shard0", 9, []byte("other line")); err != nil {
		t.Fatal(err)
	}
	gens, err := st.Generations("eng")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gens, []uint64{1, 2, 3}) {
		t.Fatalf("generations = %v", gens)
	}
	data, err := st.Read("eng", 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "snap-2" {
		t.Fatalf("read = %q", data)
	}
	if _, err := st.Read("eng", 8); err == nil {
		t.Fatal("read of a missing generation succeeded")
	}
	// Overwrite is a replace.
	if err := st.Write("eng", 2, []byte("snap-2b")); err != nil {
		t.Fatal(err)
	}
	if data, _ := st.Read("eng", 2); string(data) != "snap-2b" {
		t.Fatalf("after overwrite read = %q", data)
	}
	// Prune keeps the newest.
	removed, err := engine.Prune(st, "eng", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(removed, []uint64{1, 2}) {
		t.Fatalf("pruned %v", removed)
	}
	if gens, _ := st.Generations("eng"); !reflect.DeepEqual(gens, []uint64{3}) {
		t.Fatalf("after prune generations = %v", gens)
	}
	if _, err := engine.Prune(st, "eng", 0); err == nil {
		t.Fatal("Prune keep 0 succeeded")
	}
	// Invalid names are rejected, not turned into paths.
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`, "a\nb"} {
		if err := st.Write(bad, 1, []byte("x")); err == nil {
			t.Errorf("Write accepted name %q", bad)
		}
	}
}

func TestDirStoreContract(t *testing.T) {
	st, err := engine.NewDirStore(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	storeContract(t, st)
	// Stray files in the directory are not listed as generations.
	if err := os.WriteFile(filepath.Join(st.Dir(), "eng.notagen.snap"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if gens, _ := st.Generations("eng"); !reflect.DeepEqual(gens, []uint64{3}) {
		t.Fatalf("stray file listed: %v", gens)
	}
	// A name that is itself a prefix of another snapshot's full
	// filename must list empty, not panic on the short slice.
	if gens, err := st.Generations("eng.00000000000000000003"); err != nil || len(gens) != 0 {
		t.Fatalf("filename-prefix name listed %v (%v)", gens, err)
	}
	// Stale temp files from a crashed writer are swept on open.
	stale := filepath.Join(st.Dir(), "eng.crashed.tmp")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.NewDirStore(st.Dir()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp file not swept: %v", err)
	}
	// No temp files left behind by completed writes.
	matches, _ := filepath.Glob(filepath.Join(st.Dir(), "*.tmp"))
	if len(matches) != 0 {
		t.Fatalf("leftover temp files: %v", matches)
	}
}

func TestMemStoreContract(t *testing.T) {
	storeContract(t, engine.NewMemStore())
}

// heldOut returns a fixed mixed-probe corpus for verdict-equality
// checks.
func heldOut() []*mail.Message {
	msgs := make([]*mail.Message, 40)
	for i := range msgs {
		if i%2 == 0 {
			msgs[i] = msg(fmt.Sprintf("meeting agenda report budget probe%d\n", i))
		} else {
			msgs[i] = msg(fmt.Sprintf("winner lottery prize claim probe%d\n", i))
		}
	}
	return msgs
}

func TestSaveResumeEngine(t *testing.T) {
	st, err := engine.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clf := trained(t, "sbayes")
	eng := engine.New(clf, engine.Config{Name: "prod"})
	if gen, err := engine.SaveEngine(st, "prod", eng); err != nil || gen != 1 {
		t.Fatalf("save gen 1 = (%d, %v)", gen, err)
	}

	// Publish generation 2 with extra training, save it too.
	next := clf.CloneClassifier()
	next.Learn(msg("quarterly forecast spreadsheet review\n"), false)
	eng.Swap(next)
	if gen, err := engine.SaveEngine(st, "prod", eng); err != nil || gen != 2 {
		t.Fatalf("save gen 2 = (%d, %v)", gen, err)
	}

	want := make([]engine.Result, 0, 40)
	for _, m := range heldOut() {
		want = append(want, eng.Classify(m))
	}

	resumed, env, err := engine.ResumeEngine(st, "prod", 1, engine.Config{Name: "prod"})
	if err != nil {
		t.Fatal(err)
	}
	if env.Backend != "sbayes" || env.Generation != 2 || resumed.Generation() != 2 {
		t.Fatalf("resumed backend %q gen %d (engine gen %d)", env.Backend, env.Generation, resumed.Generation())
	}
	for i, m := range heldOut() {
		if got := resumed.Classify(m); got != want[i] {
			t.Fatalf("probe %d: resumed %+v != original %+v", i, got, want[i])
		}
	}
	// The resumed engine continues the generation line.
	if gen := resumed.Swap(next); gen != 3 {
		t.Fatalf("post-resume publish got generation %d, want 3", gen)
	}

	// Corrupt the newest snapshot on disk: resume must fall back to
	// the previous valid generation instead of failing or loading it.
	data, err := st.Read("prod", 2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := st.Write("prod", 2, data); err != nil {
		t.Fatal(err)
	}
	fallback, env, err := engine.ResumeEngine(st, "prod", 1, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if env.Generation != 1 || fallback.Generation() != 1 {
		t.Fatalf("fallback resumed generation %d, want 1", env.Generation)
	}
}

// TestPruneKeepsNewestValid pins the prune/corruption interaction:
// when the newest files have rotted, the newest generation that
// still loads is the restart path and survives the prune even
// though the kept count alone would remove it.
func TestPruneKeepsNewestValid(t *testing.T) {
	st := engine.NewMemStore()
	var db bytes.Buffer
	if err := trained(t, "sbayes").Save(&db); err != nil {
		t.Fatal(err)
	}
	for gen := uint64(1); gen <= 4; gen++ {
		env := engine.Envelope{Backend: "sbayes", Generation: gen, Shards: [][]byte{db.Bytes()}}
		if err := st.Write("line", gen, env.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	// Generations 3 and 4 rot on disk; only 2 and 1 still decode.
	for _, gen := range []uint64{3, 4} {
		if err := st.Write("line", gen, []byte("rotten")); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := engine.Prune(st, "line", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(removed, []uint64{1, 3}) {
		t.Fatalf("pruned %v, want [1 3] (2 is the restart path)", removed)
	}
	if env, err := engine.LatestEnvelope(st, "line"); err != nil {
		t.Fatalf("line unrecoverable after prune: %v", err)
	} else if env.Generation != 2 {
		t.Fatalf("newest decodable generation %d after prune, want 2", env.Generation)
	}
}

// TestPruneKeepsTheGenerationResumeLoads: a newest record that decodes
// but whose payload does not load is no restart path. Prune must keep
// the generation a resume restarts from, not merely the newest that
// decodes, or it deletes the only loadable generation.
func TestPruneKeepsTheGenerationResumeLoads(t *testing.T) {
	st := engine.NewMemStore()
	eng := engine.New(trained(t, "sbayes"), engine.Config{})
	if _, err := engine.SaveEngine(st, "line", eng); err != nil {
		t.Fatal(err)
	}
	bad := engine.Envelope{Backend: "sbayes", Generation: 2, Shards: [][]byte{[]byte("not a database")}}
	if err := st.Write("line", 2, bad.Encode()); err != nil {
		t.Fatal(err)
	}
	removed, err := engine.Prune(st, "line", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("pruned %v, want nothing: generation 1 is the only one that loads", removed)
	}
	if _, env, err := engine.ResumeEngine(st, "line", 1, engine.Config{}); err != nil || env.Generation != 1 {
		t.Fatalf("resume after prune = (generation %d, %v), want generation 1", env.Generation, err)
	}
}

// TestPruneDropsSidecarsNoKeptRecordNeeds: a version-1 record's
// admission state lives in a "<name>.admission" sidecar at its
// generation. Prune keeps a sidecar exactly as long as a kept
// version-1 record needs it: not once its record is pruned, and not
// once its generation has been saved again as a current record.
func TestPruneDropsSidecarsNoKeptRecordNeeds(t *testing.T) {
	var db bytes.Buffer
	if err := trained(t, "sbayes").Save(&db); err != nil {
		t.Fatal(err)
	}
	st := engine.NewMemStore()
	for _, gen := range []uint64{2, 3} {
		if err := st.Write("line", gen, v1Record("sbayes", gen, db.Bytes())); err != nil {
			t.Fatal(err)
		}
		if err := st.Write("line.admission", gen, seal(append([]byte("ADMS\x01"), byte(gen), 0))); err != nil {
			t.Fatal(err)
		}
	}
	sidecars := func(want ...uint64) {
		t.Helper()
		if got, err := st.Generations("line.admission"); err != nil || !slices.Equal(got, want) {
			t.Errorf("sidecars at %v (%v), want %v", got, err, want)
		}
	}
	prune := func() {
		t.Helper()
		if _, err := engine.Prune(st, "line", 2); err != nil {
			t.Fatal(err)
		}
	}
	prune()
	sidecars(2, 3)

	eng := engine.NewAt(trained(t, "sbayes"), 3, engine.Config{})
	if _, err := engine.SaveEngine(st, "line", eng); err != nil {
		t.Fatal(err)
	}
	prune()
	sidecars(2)

	eng.Swap(trained(t, "sbayes"))
	if _, err := engine.SaveEngine(st, "line", eng); err != nil {
		t.Fatal(err)
	}
	prune()
	sidecars()
	if got, err := st.Generations("line"); err != nil || !slices.Equal(got, []uint64{3, 4}) {
		t.Errorf("records at %v (%v), want [3 4]", got, err)
	}
}

func TestLatestEnvelope(t *testing.T) {
	st := engine.NewMemStore()
	if _, err := engine.LatestEnvelope(st, "line"); !errors.Is(err, engine.ErrNoSnapshot) {
		t.Fatalf("empty store: %v", err)
	}
	for gen := uint64(1); gen <= 3; gen++ {
		env := engine.Envelope{Backend: "sbayes", Generation: gen, Shards: [][]byte{{byte(gen)}}}
		if err := st.Write("line", gen, env.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	env, err := engine.LatestEnvelope(st, "line")
	if err != nil || env.Generation != 3 {
		t.Fatalf("latest = (%d, %v), want 3", env.Generation, err)
	}
	// A corrupt newest falls back, decode-only — no backend Load runs,
	// so even an unloadable payload of an older generation is visible.
	if err := st.Write("line", 3, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	env, err = engine.LatestEnvelope(st, "line")
	if err != nil || env.Generation != 2 {
		t.Fatalf("after corruption latest = (%d, %v), want 2", env.Generation, err)
	}
}

func TestResumeEngineErrors(t *testing.T) {
	st := engine.NewMemStore()
	if _, _, err := engine.ResumeEngine(st, "ghost", 1, engine.Config{}); !errors.Is(err, engine.ErrNoSnapshot) {
		t.Fatalf("empty store: %v", err)
	}
	// A store holding only garbage is as empty as one holding nothing.
	if err := st.Write("ghost", 1, []byte("not an envelope")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := engine.ResumeEngine(st, "ghost", 1, engine.Config{}); !errors.Is(err, engine.ErrNoSnapshot) {
		t.Fatalf("corrupt-only store: %v", err)
	}
	// A snapshot naming an unregistered backend cannot resume.
	env := engine.Envelope{Backend: "nonesuch", Generation: 1, Shards: [][]byte{nil}}
	if err := st.Write("alien", 1, env.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := engine.ResumeEngine(st, "alien", 1, engine.Config{}); !errors.Is(err, engine.ErrNoSnapshot) {
		t.Fatalf("unknown-backend store: %v", err)
	}
	// SaveEngine refuses an unregistered backend stamp up front.
	eng := engine.New(alien{trained(t, "sbayes")}, engine.Config{})
	if _, err := engine.SaveEngine(st, "prod", eng); err == nil {
		t.Fatal("SaveEngine accepted an unregistered backend name")
	}
}

// alien is a classifier that reports a backend no registry entry has.
type alien struct{ engine.Classifier }

func (alien) BackendName() string { return "nonesuch" }

// TestSaveStampsTheBackendItsShardsAre: a record names the backend its
// classifiers report, whatever the caller has in mind, and a fleet
// whose shards are of different backends does not save.
func TestSaveStampsTheBackendItsShardsAre(t *testing.T) {
	for _, backend := range []string{"sbayes", "graham"} {
		st := engine.NewMemStore()
		if _, err := engine.SaveEngine(st, "line", engine.New(trained(t, backend), engine.Config{})); err != nil {
			t.Fatal(err)
		}
		env, err := engine.LatestEnvelope(st, "line")
		if err != nil {
			t.Fatal(err)
		}
		if env.Backend != backend {
			t.Errorf("a %s engine's record names %q", backend, env.Backend)
		}
	}
	mixed := engine.NewSharded([]engine.Classifier{trained(t, "sbayes"), trained(t, "graham")}, engine.Config{})
	st := engine.NewMemStore()
	if _, err := engine.SaveEngine(st, "mixed", mixed); err == nil {
		t.Fatal("a fleet of sbayes and graham shards saved")
	}
	if gens, _ := st.Generations("mixed"); len(gens) != 0 {
		t.Fatalf("a refused save stored generations %v", gens)
	}
}

// TestShardedCrashRecovery is the kill-and-resume contract of a
// sharded engine: persist the fleet's record at each fleet publish,
// then "crash" — discard the engine — and resume from the store. The
// resumed engine must serve the last published generation on every
// shard with verdicts identical to the pre-crash epoch and re-save to
// a byte-identical record. When the newest record is corrupt, the
// whole fleet resumes at the previous generation — never one shard
// behind its peers — and a store with no loadable record, or a resume
// of another shard count, is an error.
func TestShardedCrashRecovery(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		st, err := engine.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		base := trained(t, backend)
		const nsh = 4
		clfs := make([]engine.Classifier, nsh)
		for i := range clfs {
			clfs[i] = base.CloneClassifier()
		}
		sh := engine.NewSharded(clfs, engine.Config{Name: "fleet", Workers: 2})
		probes := heldOut()
		for j, m := range probes {
			m.Header.Set("To", fmt.Sprintf("user%d@corp.example", j))
		}
		verdicts := func(e *engine.Engine) []engine.Result {
			out := make([]engine.Result, len(probes))
			for j, m := range probes {
				out[j] = e.Classify(m)
			}
			return out
		}
		// Each fleet publish diverges every shard; each checkpoint
		// saves one record of every shard at the fleet's generation.
		publishAndSave := func(word string, want uint64) []engine.Result {
			next := make([]engine.Classifier, nsh)
			for i := range next {
				next[i] = base.CloneClassifier()
				next[i].Learn(msg(fmt.Sprintf("shard%d distinctive vocabulary %s\n", i, word)), true)
			}
			sh.Swap(next...)
			if gen, err := engine.SaveEngine(st, "fleet", sh); err != nil || gen != want {
				t.Fatalf("save = (%d, %v), want generation %d", gen, err, want)
			}
			return verdicts(sh)
		}
		atTwo := publishAndSave("alpha", 2)
		atThree := publishAndSave("beta", 3)
		stored, err := st.Read("fleet", 3)
		if err != nil {
			t.Fatal(err)
		}

		// Crash: the engine is gone; resume the fleet from disk.
		sh = nil
		resume := func(want uint64, wantVerdicts []engine.Result) *engine.Engine {
			t.Helper()
			resumed, env, err := engine.ResumeEngine(st, "fleet", nsh, engine.Config{Name: "fleet", Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			st := resumed.Stats()
			if env.Generation != want || resumed.Generation() != want || st.Generation != want {
				t.Fatalf("resumed at generation %d (envelope %d, stats %d), want %d",
					resumed.Generation(), env.Generation, st.Generation, want)
			}
			for i, s := range st.Shards {
				if s.Generation != want {
					t.Errorf("shard %d resumed at generation %d, want %d", i, s.Generation, want)
				}
			}
			for j, got := range verdicts(resumed) {
				if got != wantVerdicts[j] {
					t.Fatalf("probe %d: resumed %+v != pre-crash %+v at generation %d", j, got, wantVerdicts[j], want)
				}
			}
			return resumed
		}
		resumed := resume(3, atThree)

		// Re-saving the resumed fleet reproduces the stored record byte
		// for byte — nothing drifted through the restart.
		st2 := engine.NewMemStore()
		if _, err := engine.SaveEngine(st2, "fleet", resumed); err != nil {
			t.Fatal(err)
		}
		if data, err := st2.Read("fleet", 3); err != nil || !bytes.Equal(data, stored) {
			t.Errorf("re-saved record differs from the stored one (%v)", err)
		}

		// Bit rot in the newest record costs the whole fleet that
		// generation: every shard resumes at 2.
		data := append([]byte(nil), stored...)
		data[len(data)/2] ^= 0x01
		if err := st.Write("fleet", 3, data); err != nil {
			t.Fatal(err)
		}
		resume(2, atTwo)

		// With generation 2 gone too, no record loads.
		if err := st.Remove("fleet", 2); err != nil {
			t.Fatal(err)
		}
		if _, _, err := engine.ResumeEngine(st, "fleet", nsh, engine.Config{}); !errors.Is(err, engine.ErrNoSnapshot) {
			t.Fatalf("resume with no loadable record: %v, want ErrNoSnapshot", err)
		}

		// A resume of another shard count is an error, not a silently
		// fresh shard.
		if _, _, err := engine.ResumeEngine(st2, "fleet", nsh+1, engine.Config{}); err == nil {
			t.Fatal("ResumeEngine resumed a shard that was never saved")
		}
	})
}

// TestSaveEngineConsistentUnderPublish pins the atomicity of the
// (classifier, generation) read: a save racing publishes must stamp
// the generation that matches the payload it serialized.
func TestSaveEngineConsistentUnderPublish(t *testing.T) {
	st := engine.NewMemStore()
	clf := trained(t, "sbayes")
	eng := engine.New(clf, engine.Config{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			eng.Swap(clf.CloneClassifier())
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := engine.SaveEngine(st, "prod", eng); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	gens, err := st.Generations("prod")
	if err != nil {
		t.Fatal(err)
	}
	for _, gen := range gens {
		data, err := st.Read("prod", gen)
		if err != nil {
			t.Fatal(err)
		}
		env, err := engine.DecodeEnvelope(data)
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		if env.Generation != gen {
			t.Fatalf("stored generation %d stamped %d", gen, env.Generation)
		}
		if _, err := engine.NewFromEnvelope(env); err != nil {
			t.Fatalf("generation %d does not load: %v", gen, err)
		}
	}
}

// TestResumeOneShardStoreFixture pins one-shard store compatibility:
// testdata/store_v1 holds the line "served" and its sidecar
// "served.admission" at generation 2, as a single guarded engine wrote
// them before a fleet's shards shared one epoch. They must resume with
// the classifier and the held mail they carry — a change that cannot
// read them breaks the restart of every deployed single-engine daemon.
func TestResumeOneShardStoreFixture(t *testing.T) {
	st, err := engine.NewDirStore(filepath.Join("testdata", "store_v1"))
	if err != nil {
		t.Fatal(err)
	}
	q := admission.NewQuarantine(admission.QuarantineConfig{Capacity: 4})
	chain := admission.NewChain(admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 2000}))
	g, err := engine.ResumeGuarded(st, "served", 1, engine.Config{Name: "served"}, chain, engine.GuardedConfig{Quarantine: q})
	if err != nil {
		t.Fatal(err)
	}
	clf, gen := g.Engine().Snapshot()
	if ns, nh := clf.Counts(); gen != 2 || ns != 1 || nh != 2 {
		t.Errorf("resumed generation %d with %d spam and %d ham trained, want 2, 1 and 2", gen, ns, nh)
	}
	held := q.Pending()
	if len(held) != 1 || held[0].Msg.Body != "held until review\n" || !held[0].Spam || held[0].Reason != "probe budget exhausted" {
		t.Errorf("resumed quarantine %+v, want the one held spam candidate", held)
	}
}

// v1Record is a version-1 snapshot of one payload, sealed as every
// save wrote it before one record per save.
func v1Record(backend string, gen uint64, payload []byte) []byte {
	body := append([]byte("SNAP\x01"), byte(len(backend)))
	body = append(body, backend...)
	body = binary.AppendUvarint(body, gen)
	body = binary.AppendUvarint(body, uint64(len(payload)))
	return seal(append(body, payload...))
}

// TestResumeVersion1Record: a version-1 envelope, as a one-shard save
// wrote it before one record per save, resumes as a one-shard record
// with no admission state, and a save over it continues its line in
// the current format.
func TestResumeVersion1Record(t *testing.T) {
	var db bytes.Buffer
	if err := trained(t, "graham").Save(&db); err != nil {
		t.Fatal(err)
	}
	st := engine.NewMemStore()
	if err := st.Write("line", 5, v1Record("graham", 5, db.Bytes())); err != nil {
		t.Fatal(err)
	}
	eng, env, err := engine.ResumeEngine(st, "line", 1, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Generation() != 5 || env.Backend != "graham" || len(env.Shards) != 1 || len(env.Sections) != 0 {
		t.Fatalf("resumed generation %d of %s with %d shards and %d sections, want 5, graham, 1, 0",
			eng.Generation(), env.Backend, len(env.Shards), len(env.Sections))
	}
	if _, _, err := engine.ResumeEngine(st, "line", 3, engine.Config{}); err == nil {
		t.Fatal("a one-shard version-1 record resumed as three shards")
	}
	eng.Swap(trained(t, "graham"))
	if gen, err := engine.SaveEngine(st, "line", eng); err != nil || gen != 6 {
		t.Fatalf("save over a version-1 line = (%d, %v), want generation 6", gen, err)
	}
	if data, _ := st.Read("line", 6); len(data) < 5 || data[4] != 2 {
		t.Fatalf("save over a version-1 line wrote format version %v, want 2", data[:min(5, len(data))])
	}
}

// TestResumeRefusesRetiredFleetLayout: before one record per save, a
// fleet stored one version-1 line per shard ("name.shard<i>") and an
// admission sidecar. Every resume-side reader refuses such a store with
// an error naming the retired layout — not ErrNoSnapshot, which a
// daemon reads as an empty store to bootstrap over.
func TestResumeRefusesRetiredFleetLayout(t *testing.T) {
	var db bytes.Buffer
	if err := trained(t, "sbayes").Save(&db); err != nil {
		t.Fatal(err)
	}
	st := engine.NewMemStore()
	for i := 0; i < 2; i++ {
		if err := st.Write(fmt.Sprintf("fleet.shard%d", i), 4, v1Record("sbayes", 4, db.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Write("fleet.admission", 4, seal([]byte("ADMS\x01\x04\x00"))); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || errors.Is(err, engine.ErrNoSnapshot) || !strings.Contains(err.Error(), "retired per-shard layout") {
			t.Errorf("%s over a per-shard fleet store: %v, want an error naming the retired layout", what, err)
		}
	}
	_, _, err := engine.ResumeEngine(st, "fleet", 2, engine.Config{})
	refused("ResumeEngine", err)
	_, err = engine.ResumeGuarded(st, "fleet", 2, engine.Config{}, markerAdmitter{}, engine.GuardedConfig{})
	refused("ResumeGuarded", err)
	_, err = engine.LatestEnvelope(st, "fleet")
	refused("LatestEnvelope", err)
}
