package engine

// Serving-layer persistence: generation-stamped snapshot durability
// for an Engine of any shard count.
//
// A deployment that retrains continuously must also survive restarts
// without losing — or silently resurrecting — filter state: a
// poisoned generation that was scrubbed, or a clean generation an
// attacker would rather the restart forget, is exactly the provenance
// the paper's threat model says to track. The unit of durability is
// therefore the published epoch: each save captures every shard's
// classifier and the one generation they serve at, read atomically
// from the serving pointer, and each resume rebuilds an engine at that
// generation, so the generation line is continuous across process
// lifetimes.
//
// On-disk unit: one record per save, stored under the engine's name
// at its generation whatever the shard count — a self-describing
// envelope around every shard's Persistable payload and, for a guarded
// engine, the admission state that guards them:
//
//	magic    "SNAP" 0x02 (format version)
//	uvarint  len(backend), backend registry name bytes
//	uvarint  generation
//	uvarint  shard count (at least 1)
//	per shard, in shard order:
//	  uvarint len(payload), payload bytes (Persistable.Save output)
//	uvarint  section count
//	per section:
//	  uvarint len(label), label bytes   ("admitter" | "quarantine")
//	  uvarint len(payload), payload bytes (the component's Save output)
//	uint32   big-endian CRC-32 (IEEE) of every preceding byte
//
// The backend name makes the record loadable with no out-of-band
// configuration (resume looks the backend up in the registry), the
// stamped generation survives the round trip, and the one trailing
// checksum rejects truncation and bit rot anywhere in the save before
// partial state can load: a save lands whole or not at all. A format
// change must bump the version byte; the golden fixtures pin the
// layout. The record is written and read through internal/binfmt, the
// one codec under every saved format — the payloads inside it too —
// which bounds every untrusted length and rejects trailing bytes.
// The stamped backend is the one the classifiers report
// (Classifier.BackendName); shards of different backends do not save.
//
// Version 1, the layout before one record per save, still decodes: it
// held one shard's payload and no sections ("SNAP" 0x01, backend,
// generation, one length-prefixed payload, CRC), with a guard's state
// in a separate "<name>.admission" sidecar that resume reads for such
// a record only. A fleet stored one version-1 line per shard
// ("<name>.shard<i>"); that layout is refused, never resumed.
//
// Records live in a SnapshotStore keyed by (name, generation). The
// filesystem implementation (DirStore) writes each generation to its
// own file via temp-file + rename, so a crash mid-save can never
// clobber the previous good generation, and keeps old generations
// listable until Prune removes them.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/binfmt"
)

// snapMagic is the envelope magic plus the format version byte Encode
// writes. DecodeEnvelope also reads version 1 and rejects every other
// version rather than guessing.
const snapMagic = "SNAP\x02"

// maxBackendName bounds the backend-name field so a corrupt header
// cannot demand an absurd read.
const maxBackendName = 255

// ErrNoSnapshot reports a resume against a store holding no
// generations (or none that survive validation) for the given name.
var ErrNoSnapshot = errors.New("engine: no valid snapshot")

// Envelope is the decoded form of one persisted save: which backend
// wrote the shard payloads, the serving generation they were published
// as, every shard's Save output, and the guard's admission state.
type Envelope struct {
	// Backend is the engine registry name that can Load the payloads.
	Backend string
	// Generation is the serving generation the snapshot was saved at.
	Generation uint64
	// Shards holds each shard's Persistable.Save output, in shard
	// order. A record holds at least one.
	Shards [][]byte
	// Sections holds the guard's durable admission state, one labeled
	// section per persisting component; a plain engine save has none.
	Sections []Section
	// v1 marks a record decoded from the version-1 layout, whose guard
	// state, if any, is in the retired "<name>.admission" sidecar.
	v1 bool
}

// Section is one labeled admission-state payload of a record: the Save
// output of the guard's admitter ("admitter") or quarantine sink
// ("quarantine").
type Section struct {
	Label   string
	Payload []byte
}

// Encode serializes the envelope in the current format, including the
// trailing checksum.
func (env Envelope) Encode() []byte {
	size := len(env.Backend) + 4 + (4+len(env.Shards)+2*len(env.Sections))*binfmt.MaxUvarintLen
	for _, p := range env.Shards {
		size += len(p)
	}
	for _, s := range env.Sections {
		size += len(s.Label) + len(s.Payload)
	}
	w := binfmt.NewWriter(snapMagic, size)
	w.String(env.Backend)
	w.Uvarint(env.Generation)
	w.Uvarint(uint64(len(env.Shards)))
	for _, p := range env.Shards {
		w.Bytes(p)
	}
	w.Uvarint(uint64(len(env.Sections)))
	for _, s := range env.Sections {
		w.String(s.Label)
		w.Bytes(s.Payload)
	}
	return w.Seal()
}

// DecodeEnvelope parses and validates an encoded envelope of either
// version: magic and version, checksum over the entire preceding
// content, bounded header fields, at least one shard, and exact
// framing (trailing bytes are corruption, not padding). A version-1
// envelope decodes as a one-shard record with no sections. The
// returned payloads alias data.
func DecodeEnvelope(data []byte) (Envelope, error) {
	version, r, err := binfmt.Open(data, snapMagic[:4], snapMagic[4], "engine: snapshot")
	if err != nil {
		return Envelope{}, err
	}
	env := Envelope{v1: version == 1}
	name := r.Bytes("backend name")
	if r.Err() == nil && (len(name) == 0 || len(name) > maxBackendName) {
		r.Fail("backend name length %d", len(name))
	}
	env.Backend = string(name)
	// Generations start at 1 (NewAt enforces it), so a zero stamp is
	// corruption no save path can produce — reject it here so no resume
	// path can feed it to a constructor.
	if env.Generation = r.Uvarint("generation"); r.Err() == nil && env.Generation < 1 {
		r.Fail("stamped generation 0")
	}
	if env.v1 {
		env.Shards = [][]byte{r.Bytes("payload")}
	} else {
		n := r.Count("shard count", 1)
		if r.Err() == nil && n == 0 {
			r.Fail("holds no shards")
		}
		env.Shards = make([][]byte, n)
		for i := range env.Shards {
			env.Shards[i] = r.Bytes("shard payload")
		}
		env.Sections = readSections(r)
	}
	if err := r.End(); err != nil {
		return Envelope{}, err
	}
	return env, nil
}

// readSections reads a section count and that many labeled payloads,
// the part of a record the version-1 admission sidecar shares.
func readSections(r *binfmt.Reader) []Section {
	var out []Section
	for range r.Count("section count", 1) {
		label := r.String("section label")
		payload := r.Bytes("section payload")
		if r.Err() != nil {
			return nil
		}
		out = append(out, Section{Label: label, Payload: payload})
	}
	return out
}

// SnapshotStore holds encoded snapshot envelopes keyed by logical
// name and generation. Write must be atomic with respect to readers:
// a Read of (name, gen) observes either nothing or the complete data,
// never a prefix — the property a crash-mid-save must not break.
type SnapshotStore interface {
	// Write durably stores data as (name, gen), replacing any previous
	// value of the same key.
	Write(name string, gen uint64, data []byte) error
	// Read returns the stored data for (name, gen).
	Read(name string, gen uint64) ([]byte, error)
	// Generations returns the stored generations of name in ascending
	// order (empty, not an error, when the name is unknown).
	Generations(name string) ([]uint64, error)
	// Remove deletes (name, gen).
	Remove(name string, gen uint64) error
}

// checkSnapshotName rejects names that cannot key a store safely —
// path separators and control bytes would let one logical name escape
// into another's files.
func checkSnapshotName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fmt.Errorf("engine: invalid snapshot name %q", name)
	}
	for _, r := range name {
		if r == '/' || r == '\\' || r < 0x20 {
			return fmt.Errorf("engine: invalid snapshot name %q", name)
		}
	}
	return nil
}

// DirStore is the filesystem SnapshotStore: one file per generation,
// "<name>.<generation>.snap" with the generation zero-padded so
// lexical and numeric order agree. Writes go to a temp file in the
// same directory, are synced, and land by rename — readers (and
// crash-recovery scans) never observe a partial snapshot file.
type DirStore struct {
	dir string
}

// NewDirStore returns a store over dir, creating it if needed. Stale
// temp files from writes a previous process crashed out of are swept
// on open — nothing else ever removes them (Generations skips them
// and Prune only touches landed snapshots). A concurrent writer that
// loses its temp file to the sweep fails cleanly at its rename; a
// partial snapshot still can never land.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if stale, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, f := range stale {
			os.Remove(f)
		}
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *DirStore) Dir() string { return s.dir }

// snapFile returns the file path of (name, gen).
func (s *DirStore) snapFile(name string, gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.%020d.snap", name, gen))
}

// Write stores data atomically: temp file, sync, rename.
func (s *DirStore) Write(name string, gen uint64, data []byte) error {
	if err := checkSnapshotName(name); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, name+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once the rename has landed
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), s.snapFile(name, gen)); err != nil {
		return err
	}
	// Best-effort directory sync so the rename itself is durable;
	// filesystems that cannot sync a directory still got the atomic
	// rename, which is the property correctness relies on.
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Read returns the stored bytes of (name, gen).
func (s *DirStore) Read(name string, gen uint64) ([]byte, error) {
	if err := checkSnapshotName(name); err != nil {
		return nil, err
	}
	return os.ReadFile(s.snapFile(name, gen))
}

// Generations lists name's stored generations in ascending order.
func (s *DirStore) Generations(name string) ([]uint64, error) {
	if err := checkSnapshotName(name); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	prefix := name + "."
	var gens []uint64
	for _, e := range entries {
		fn := e.Name()
		// Exactly the 20 zero-padded digits between prefix and suffix;
		// anything else ("name.shard0.<gen>.snap") is a different key.
		// The length check first: a name that is itself a prefix of
		// another snapshot's full filename must not slice past it.
		if len(fn) != len(prefix)+20+len(".snap") ||
			!strings.HasPrefix(fn, prefix) || !strings.HasSuffix(fn, ".snap") {
			continue
		}
		digits := fn[len(prefix) : len(fn)-len(".snap")]
		gen, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Remove deletes (name, gen).
func (s *DirStore) Remove(name string, gen uint64) error {
	if err := checkSnapshotName(name); err != nil {
		return err
	}
	return os.Remove(s.snapFile(name, gen))
}

// MemStore is an in-memory SnapshotStore for tests and simulations —
// same contract, no filesystem. It is safe for concurrent use.
type MemStore struct {
	mu    sync.RWMutex
	snaps map[string]map[uint64][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{snaps: map[string]map[uint64][]byte{}}
}

// Write stores a private copy of data under (name, gen).
func (s *MemStore) Write(name string, gen uint64, data []byte) error {
	if err := checkSnapshotName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.snaps[name]
	if m == nil {
		m = map[uint64][]byte{}
		s.snaps[name] = m
	}
	m[gen] = append([]byte(nil), data...)
	return nil
}

// Read returns a copy of the stored bytes of (name, gen).
func (s *MemStore) Read(name string, gen uint64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.snaps[name][gen]
	if !ok {
		return nil, fmt.Errorf("engine: snapshot %s generation %d: %w", name, gen, os.ErrNotExist)
	}
	return append([]byte(nil), data...), nil
}

// Generations lists name's stored generations in ascending order.
func (s *MemStore) Generations(name string) ([]uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	gens := make([]uint64, 0, len(s.snaps[name]))
	for gen := range s.snaps[name] {
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Remove deletes (name, gen).
func (s *MemStore) Remove(name string, gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.snaps[name][gen]; !ok {
		return fmt.Errorf("engine: snapshot %s generation %d: %w", name, gen, os.ErrNotExist)
	}
	delete(s.snaps[name], gen)
	return nil
}

// SaveEngine persists e's serving epoch into st as one record under
// name at the epoch's generation: every shard's classifier, stamped
// with the backend registry name the classifiers report, which resume
// reconstructs them through. The classifiers and generation are read
// in one consistent atomic load, and the classifiers serialize
// themselves concurrently. Concurrent scoring is never blocked —
// published epochs are immutable, so Save reads the same frozen state a
// racing ClassifyBatch does. It returns the persisted generation; on
// error nothing was stored.
func SaveEngine(st SnapshotStore, name string, e *Engine) (uint64, error) {
	return saveRecord(st, name, e, nil, nil) // no guard, no sections
}

// saveRecord is the one writer of a save: e's serving epoch, stamped
// with the backend its shards report (shards of different backends are
// an error), then the durable state of admit and sink (read after the
// classifiers; components that are nil or not Persistable have none),
// encoded as one record and stored in one Write.
func saveRecord(st SnapshotStore, name string, e *Engine, admit Admitter, sink QuarantineSink) (uint64, error) {
	clfs, gen := e.Snapshots()
	backend := clfs[0].BackendName()
	for i, c := range clfs {
		if got := c.BackendName(); got != backend {
			return 0, fmt.Errorf("engine: saving %s: shard %d is %s, shard 0 is %s", name, i, got, backend)
		}
	}
	if _, err := Lookup(backend); err != nil {
		return 0, err
	}
	env := Envelope{Backend: backend, Generation: gen, Shards: make([][]byte, len(clfs))}
	err := e.forEachShard(func(i int) (err error) {
		if env.Shards[i], err = saved(clfs[i]); err != nil {
			return fmt.Errorf("engine: saving %s shard %d generation %d: %w", name, i, gen, err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if env.Sections, err = guardSections(admit, sink); err != nil {
		return 0, err
	}
	if err := st.Write(name, gen, env.Encode()); err != nil {
		return 0, err
	}
	return gen, nil
}

// saved returns what p saves: a shard's payload or a section's.
func saved(p Persistable) ([]byte, error) {
	var buf bytes.Buffer
	err := p.Save(&buf)
	return buf.Bytes(), err
}

// readEnvelope reads name's generation gen and decodes it, rejecting
// an envelope stamped with another generation.
func readEnvelope(st SnapshotStore, name string, gen uint64) (Envelope, error) {
	data, err := st.Read(name, gen)
	if err != nil {
		return Envelope{}, err
	}
	env, err := DecodeEnvelope(data)
	if err != nil {
		return Envelope{}, err
	}
	if env.Generation != gen {
		return Envelope{}, fmt.Errorf("envelope stamped %d", env.Generation)
	}
	return env, nil
}

// scanNewest walks name's generations newest to oldest and returns
// the first envelope that decodes, matches its stamped generation,
// and passes validate (nil accepts anything) — the one skip-corrupt
// scan every resume-side reader shares, so their notions of "valid"
// cannot drift. It fails with an error wrapping ErrNoSnapshot when no
// generation survives, and with an error naming the retired layout
// when name holds nothing but a fleet's per-shard lines do.
func scanNewest(st SnapshotStore, name string, validate func(*Envelope) error) (Envelope, error) {
	gens, err := st.Generations(name)
	if err != nil {
		return Envelope{}, err
	}
	if len(gens) == 0 {
		// Before one record per save, a fleet stored one line per shard
		// under "<name>.shard<i>". Reporting such a store as empty would
		// let a daemon bootstrap over the admission state it holds.
		line := name + ".shard0"
		old, err := st.Generations(line)
		if err != nil {
			return Envelope{}, err
		}
		if len(old) > 0 {
			return Envelope{}, fmt.Errorf("engine: %q holds no record, but %q holds generations %v: a fleet store in the retired per-shard layout, which does not resume", name, line, old)
		}
	}
	// The reported failure is the newest generation's — the snapshot
	// an operator expected to resume — not whichever older file
	// happened to fail last in the scan.
	var firstErr error
	skip := func(gen uint64, err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("generation %d: %w", gen, err)
		}
	}
	for i := len(gens) - 1; i >= 0; i-- {
		env, err := readEnvelope(st, name, gens[i])
		if err != nil {
			skip(gens[i], err)
			continue
		}
		if validate != nil {
			if err := validate(&env); err != nil {
				skip(gens[i], err)
				continue
			}
		}
		return env, nil
	}
	if firstErr != nil {
		return Envelope{}, fmt.Errorf("%w for %q: newest failure: %v", ErrNoSnapshot, name, firstErr)
	}
	return Envelope{}, fmt.Errorf("%w for %q", ErrNoSnapshot, name)
}

// LatestEnvelope returns name's newest record that decodes — backend,
// generation, payloads, sections — without reconstructing the
// classifiers: enough to inspect a snapshot line or continue it with
// the next generation number. Unlike the resume path it does not
// prove the payloads load into their backend. It fails with an error
// wrapping ErrNoSnapshot when no generation decodes.
func LatestEnvelope(st SnapshotStore, name string) (Envelope, error) {
	return scanNewest(st, name, nil)
}

// loadRecord is the resume-side scan: name's newest record that
// decodes, names a registered backend, and whose every shard loads.
// Corrupt, truncated or unloadable generations are skipped, so one bad
// save costs one generation of history — the admission state saved
// with it included — not the deployment. A version-1 record takes its
// sections from the retired sidecar at its generation.
func loadRecord(st SnapshotStore, name string) (Envelope, []Classifier, error) {
	var clfs []Classifier
	env, err := scanNewest(st, name, func(env *Envelope) (err error) {
		if env.v1 {
			if env.Sections, err = readSidecar(st, name, env.Generation); err != nil {
				return err
			}
		}
		clfs, err = env.classifiers()
		return err
	})
	return env, clfs, err
}

// resumeRecord is loadRecord for an engine of shards shards: the
// newest loadable record must hold exactly that many. A record of
// another shard count is an error, not a reason to fall back to an
// older one.
func resumeRecord(st SnapshotStore, name string, shards int) (Envelope, []Classifier, error) {
	env, clfs, err := loadRecord(st, name)
	if err == nil && len(clfs) != shards {
		err = fmt.Errorf("engine: resuming %q: generation %d holds %d shard(s), want %d", name, env.Generation, len(clfs), shards)
	}
	return env, clfs, err
}

// classifiers reconstructs every shard's classifier: the backend is
// looked up by its stamped registry name, constructed fresh per
// shard, and loaded from that shard's payload.
func (env Envelope) classifiers() ([]Classifier, error) {
	b, err := Lookup(env.Backend)
	if err != nil {
		return nil, err
	}
	clfs := make([]Classifier, len(env.Shards))
	for i, payload := range env.Shards {
		clfs[i] = b.New()
		if err := clfs[i].Load(bytes.NewReader(payload)); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return clfs, nil
}

// NewFromEnvelope reconstructs the classifier of a one-shard record.
func NewFromEnvelope(env Envelope) (Classifier, error) {
	if len(env.Shards) != 1 {
		return nil, fmt.Errorf("engine: a record of %d shards holds no single classifier", len(env.Shards))
	}
	clfs, err := env.classifiers()
	if err != nil {
		return nil, err
	}
	return clfs[0], nil
}

// ResumeEngine restores an Engine of shards shards from name's newest
// record whose every shard loads, serving at that persisted generation
// (not 1), so the generation line — and every consumer watching it for
// provenance — continues across the restart. Corrupt, truncated or
// unloadable generations are skipped, so one bad file costs one
// generation of history, not the deployment. It returns the resumed
// record beside the engine, fails when that record holds another
// shard count, and fails with an error wrapping ErrNoSnapshot when no
// generation loads.
func ResumeEngine(st SnapshotStore, name string, shards int, cfg Config) (*Engine, Envelope, error) {
	env, clfs, err := resumeRecord(st, name, shards)
	if err != nil {
		return nil, Envelope{}, err
	}
	return newEngine(clfs, env.Generation, cfg), env, nil
}

// Prune removes all but the newest keep generations of name,
// returning the removed generations. keep must be at least 1, and the
// generation a resume would restart from — the newest whose every
// shard loads — is never pruned even if it falls outside the kept
// count. Prune also removes every version-1 "<name>.admission" sidecar
// that no kept version-1 record needs: one beside a pruned record, and
// one whose generation has since been saved again as a current record.
func Prune(st SnapshotStore, name string, keep int) ([]uint64, error) {
	if keep < 1 {
		return nil, fmt.Errorf("engine: Prune keep %d", keep)
	}
	gens, err := st.Generations(name)
	if err != nil {
		return nil, err
	}
	// If every newer file is corrupt or unloadable, the restart path
	// must survive the prune even when the count alone would remove it,
	// or pruning would convert rotten files into an unrecoverable line.
	restart := uint64(0)
	if len(gens) > keep {
		if env, _, err := loadRecord(st, name); err == nil {
			restart = env.Generation
		}
	}
	kept := make(map[uint64]bool, keep+1)
	var removed []uint64
	for i, gen := range gens {
		if i >= len(gens)-keep || gen == restart {
			kept[gen] = true
			continue
		}
		if err := st.Remove(name, gen); err != nil {
			return removed, err
		}
		removed = append(removed, gen)
	}
	sidecar := name + ".admission"
	sides, err := st.Generations(sidecar)
	if err != nil {
		return removed, err
	}
	for _, gen := range sides {
		if kept[gen] {
			if env, err := readEnvelope(st, name, gen); err != nil || env.v1 {
				continue
			}
		}
		if err := st.Remove(sidecar, gen); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
