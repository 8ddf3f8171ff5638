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
// lifetimes. Shard i of an engine of N shards persists under its own
// line, ShardSnapshotName(name, i, N) — the line name itself for one
// shard — and every line of one save carries the same stamp.
//
// On-disk unit: a self-describing envelope around the backend's own
// Persistable payload,
//
//	magic    "SNAP" 0x01 (format version)
//	uvarint  len(backend), backend registry name bytes
//	uvarint  generation
//	uvarint  len(payload), payload bytes (Persistable.Save output)
//	uint32   big-endian CRC-32 (IEEE) of every preceding byte
//
// The backend name makes the file loadable with no out-of-band
// configuration (resume looks the backend up in the registry), the
// stamped generation survives the round trip, and the trailing
// checksum rejects truncation and bit rot before a partial database
// can load. A format change must bump the version byte; the golden
// envelope fixture pins the layout.
//
// Envelopes live in a SnapshotStore keyed by (name, generation). The
// filesystem implementation (DirStore) writes each generation to its
// own file via temp-file + rename, so a crash mid-save can never
// clobber the previous good generation, and keeps old generations
// listable until Prune removes them.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// snapMagic is the envelope magic plus format version byte. Bump the
// version when the layout changes; DecodeEnvelope rejects unknown
// versions rather than guessing.
var snapMagic = [5]byte{'S', 'N', 'A', 'P', 1}

// maxBackendName bounds the backend-name field so a corrupt header
// cannot demand an absurd read.
const maxBackendName = 255

// ErrNoSnapshot reports a resume against a store holding no
// generations (or none that survive validation) for the given name.
var ErrNoSnapshot = errors.New("engine: no valid snapshot")

// Envelope is the decoded form of one persisted snapshot: which
// backend wrote the payload, the serving generation it was published
// as, and the backend's own Save output.
type Envelope struct {
	// Backend is the engine registry name that can Load the payload.
	Backend string
	// Generation is the serving generation the snapshot was saved at.
	Generation uint64
	// Payload is the backend's Persistable.Save output.
	Payload []byte
}

// Encode serializes the envelope, including the trailing checksum.
func (env Envelope) Encode() []byte {
	var b bytes.Buffer
	b.Grow(len(snapMagic) + 2*binary.MaxVarintLen64 + len(env.Backend) + len(env.Payload) + 8)
	b.Write(snapMagic[:])
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { b.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	put(uint64(len(env.Backend)))
	b.WriteString(env.Backend)
	put(env.Generation)
	put(uint64(len(env.Payload)))
	b.Write(env.Payload)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(b.Bytes()))
	b.Write(crc[:])
	return b.Bytes()
}

// DecodeEnvelope parses and validates an encoded envelope: magic and
// version, checksum over the entire preceding content, bounded header
// fields, and an exact-length payload (trailing bytes are corruption,
// not padding). The returned payload aliases data.
func DecodeEnvelope(data []byte) (Envelope, error) {
	if len(data) < len(snapMagic)+4 {
		return Envelope{}, fmt.Errorf("engine: snapshot truncated (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:4], snapMagic[:4]) {
		return Envelope{}, fmt.Errorf("engine: bad snapshot magic %q", data[:4])
	}
	if data[4] != snapMagic[4] {
		return Envelope{}, fmt.Errorf("engine: snapshot format version %d, want %d", data[4], snapMagic[4])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if sum := crc32.ChecksumIEEE(body); sum != binary.BigEndian.Uint32(tail) {
		return Envelope{}, fmt.Errorf("engine: snapshot checksum mismatch (have %08x, stored %08x)",
			sum, binary.BigEndian.Uint32(tail))
	}
	r := bytes.NewReader(body[len(snapMagic):])
	read := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, fmt.Errorf("engine: snapshot %s: %w", what, err)
		}
		return v, nil
	}
	blen, err := read("backend name length")
	if err != nil {
		return Envelope{}, err
	}
	if blen == 0 || blen > maxBackendName {
		return Envelope{}, fmt.Errorf("engine: snapshot backend name length %d", blen)
	}
	if uint64(r.Len()) < blen {
		return Envelope{}, fmt.Errorf("engine: snapshot truncated in backend name")
	}
	name := make([]byte, blen)
	r.Read(name)
	gen, err := read("generation")
	if err != nil {
		return Envelope{}, err
	}
	if gen < 1 {
		// Generations start at 1 (NewAt enforces it), so a zero stamp
		// is corruption no save path can produce — reject it here so
		// no resume path can feed it to a constructor.
		return Envelope{}, fmt.Errorf("engine: snapshot stamped generation 0")
	}
	plen, err := read("payload length")
	if err != nil {
		return Envelope{}, err
	}
	if uint64(r.Len()) != plen {
		return Envelope{}, fmt.Errorf("engine: snapshot payload length %d, have %d bytes", plen, r.Len())
	}
	payload := body[len(body)-r.Len():]
	return Envelope{Backend: string(name), Generation: gen, Payload: payload}, nil
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

// SaveEngine persists e's serving epoch into st under name: every
// shard's classifier under ShardSnapshotName(name, i, N) — for one
// shard, the line name itself — each stamped with the epoch's one
// generation and the backend registry name resume will reconstruct it
// through. The classifiers and generation are read in one consistent
// atomic load, and the classifiers serialize themselves concurrently.
// Concurrent scoring is never blocked — published epochs are
// immutable, so Save reads the same frozen state a racing
// ClassifyBatch does. It returns the persisted generation; on error
// some lines may have saved (each write is atomic, so no line is ever
// half-saved).
func SaveEngine(st SnapshotStore, name, backend string, e *Engine) (uint64, error) {
	if _, err := Lookup(backend); err != nil {
		return 0, err
	}
	clfs, gen := e.Snapshots()
	err := e.forEachShard(func(i int) error {
		line := ShardSnapshotName(name, i, len(clfs))
		var buf bytes.Buffer
		if err := clfs[i].Save(&buf); err != nil {
			return fmt.Errorf("engine: saving snapshot %s generation %d: %w", line, gen, err)
		}
		env := Envelope{Backend: backend, Generation: gen, Payload: buf.Bytes()}
		return st.Write(line, gen, env.Encode())
	})
	if err != nil {
		return 0, err
	}
	return gen, nil
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
// cannot drift. It fails with an error wrapping ErrNoSnapshot when
// no generation survives.
func scanNewest(st SnapshotStore, name string, validate func(Envelope) error) (Envelope, error) {
	gens, err := st.Generations(name)
	if err != nil {
		return Envelope{}, err
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
			if err := validate(env); err != nil {
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

// LatestEnvelope returns name's newest envelope that decodes —
// backend, generation, payload — without reconstructing the
// classifier: enough to inspect a snapshot line or continue it with
// the next generation number. Unlike the resume path it does not
// prove the payload loads into its backend. It fails with an error
// wrapping ErrNoSnapshot when no generation decodes.
func LatestEnvelope(st SnapshotStore, name string) (Envelope, error) {
	return scanNewest(st, name, nil)
}

// latestValid is the resume-side scan: the newest snapshot that
// decodes, names a registered backend, and loads — corrupt,
// truncated, or orphaned generations are skipped, so one bad file
// costs one generation of history, not the deployment.
func latestValid(st SnapshotStore, name string) (Envelope, Classifier, error) {
	var clf Classifier
	env, err := scanNewest(st, name, func(env Envelope) error {
		c, err := NewFromEnvelope(env)
		if err != nil {
			return err
		}
		clf = c
		return nil
	})
	if err != nil {
		return Envelope{}, nil, err
	}
	return env, clf, nil
}

// NewFromEnvelope reconstructs the envelope's classifier: the backend
// is looked up by its stamped registry name, constructed fresh, and
// loaded from the payload.
func NewFromEnvelope(env Envelope) (Classifier, error) {
	b, err := Lookup(env.Backend)
	if err != nil {
		return nil, err
	}
	clf := b.New()
	if err := clf.Load(bytes.NewReader(env.Payload)); err != nil {
		return nil, err
	}
	return clf, nil
}

// ResumeEngine restores an Engine of shards shards from name's lines:
// the whole engine resumes at the newest generation every shard line
// holds and can load, and serves at that persisted generation (not 1),
// so the generation line — and every consumer watching it for
// provenance — continues across the restart. Corrupt, truncated or
// orphaned generations are skipped, so one bad file costs one
// generation of history, not the deployment. It returns shard 0's
// envelope of the resumed generation beside the engine (every line's
// carries the same generation), and fails with an error wrapping
// ErrNoSnapshot when no generation qualifies.
func ResumeEngine(st SnapshotStore, name string, shards int, cfg Config) (*Engine, Envelope, error) {
	clfs, env, _, err := resumeEpoch(st, name, shards)
	if err != nil {
		return nil, Envelope{}, err
	}
	return newEngine(clfs, env.Generation, cfg), env, nil
}

// resumeEpoch loads the epoch a resume restores from name's shards
// lines: the newest generation every line holds and can load. It also
// returns shard 0's envelope of that generation and newest, the newest
// generation any line can load — where a guard's admission sidecar is
// read, so a store whose lines diverge never resumes with less
// admission state than the newest save left. Each line's own newest
// loadable generation is found first; when they agree (every save
// writes all lines at one generation) that is the epoch, otherwise
// the generations below them that every line holds are tried newest
// first.
func resumeEpoch(st SnapshotStore, name string, shards int) ([]Classifier, Envelope, uint64, error) {
	if shards < 1 {
		return nil, Envelope{}, 0, fmt.Errorf("engine: resuming %q with %d shards", name, shards)
	}
	lines := make([]string, shards)
	envs := make([]Envelope, shards)
	clfs := make([]Classifier, shards)
	for i := range lines {
		lines[i] = ShardSnapshotName(name, i, shards)
		var err error
		if envs[i], clfs[i], err = latestValid(st, lines[i]); err != nil {
			if shards == 1 {
				return nil, Envelope{}, 0, err
			}
			return nil, Envelope{}, 0, fmt.Errorf("engine: resuming shard %d of %q: %w", i, name, err)
		}
	}
	newest, oldest := envs[0].Generation, envs[0].Generation
	for _, env := range envs[1:] {
		newest, oldest = max(newest, env.Generation), min(oldest, env.Generation)
	}
	if newest == oldest {
		return clfs, envs[0], newest, nil
	}
	// The lines diverge: walk line 0's generations at or below the
	// oldest line's newest, newest first. A generation another line
	// does not hold fails to load there, like a corrupt one.
	gens, err := st.Generations(lines[0])
	if err != nil {
		return nil, Envelope{}, 0, err
	}
	for j := len(gens) - 1; j >= 0; j-- {
		if gens[j] > oldest {
			continue
		}
		if loaded, env, ok := loadEpoch(st, lines, gens[j], envs, clfs); ok {
			return loaded, env, newest, nil
		}
	}
	newests := make([]uint64, shards)
	for i, env := range envs {
		newests[i] = env.Generation
	}
	return nil, Envelope{}, 0, fmt.Errorf("%w for %q: no generation held by all %d shard lines loads (newest per line %v)",
		ErrNoSnapshot, name, shards, newests)
}

// loadEpoch loads every line at generation gen, reusing the
// classifiers already loaded for lines whose newest loadable
// generation is gen. It reports false if any line fails.
func loadEpoch(st SnapshotStore, lines []string, gen uint64, newest []Envelope, loaded []Classifier) ([]Classifier, Envelope, bool) {
	clfs := make([]Classifier, len(lines))
	var first Envelope
	for i, line := range lines {
		env, clf := newest[i], loaded[i]
		if env.Generation != gen {
			var err error
			if env, err = readEnvelope(st, line, gen); err != nil {
				return nil, Envelope{}, false
			}
			if clf, err = NewFromEnvelope(env); err != nil {
				return nil, Envelope{}, false
			}
		}
		if i == 0 {
			first = env
		}
		clfs[i] = clf
	}
	return clfs, first, true
}

// Prune removes all but the newest keep generations of name,
// returning the removed generations. keep must be at least 1, and
// the newest generation that still decodes is never pruned even if
// it falls outside the kept count — it is the restart path.
func Prune(st SnapshotStore, name string, keep int) ([]uint64, error) {
	if keep < 1 {
		return nil, fmt.Errorf("engine: Prune keep %d", keep)
	}
	gens, err := st.Generations(name)
	if err != nil {
		return nil, err
	}
	if len(gens) <= keep {
		return nil, nil
	}
	// The newest generation that still decodes is the restart path —
	// if every newer file is corrupt, it must survive the prune even
	// when the count alone would remove it, or pruning would convert
	// one rotten file into an unrecoverable line.
	restart := uint64(0)
	if env, err := LatestEnvelope(st, name); err == nil {
		restart = env.Generation
	}
	var removed []uint64
	for _, gen := range gens[:len(gens)-keep] {
		if gen == restart {
			continue
		}
		if err := st.Remove(name, gen); err != nil {
			return removed, err
		}
		removed = append(removed, gen)
	}
	return removed, nil
}

// ShardSnapshotName is the store key of shard i's snapshot line in an
// engine of shards shards saved as name: "name.shard<i>", except that
// the shard of a one-shard engine persists under name itself. (The
// shard stats label "name/i" is not filesystem-safe, so the store key
// scheme is its own.)
func ShardSnapshotName(name string, shard, shards int) string {
	if shards == 1 {
		return name
	}
	return fmt.Sprintf("%s.shard%d", name, shard)
}
