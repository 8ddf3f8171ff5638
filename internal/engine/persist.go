package engine

// Serving-layer persistence: generation-stamped snapshot durability
// for Engine and Sharded.
//
// A deployment that retrains continuously must also survive restarts
// without losing — or silently resurrecting — filter state: a
// poisoned generation that was scrubbed, or a clean generation an
// attacker would rather the restart forget, is exactly the provenance
// the paper's threat model says to track. The unit of durability is
// therefore the published snapshot: each save captures one (clf, gen)
// pair read atomically from the serving pointer, and each resume
// rebuilds an engine at that generation, so the generation line is
// continuous across process lifetimes.
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

// SaveEngine persists e's current serving snapshot into st under
// name: the classifier and generation are read in one consistent
// atomic load, the classifier (which must be Persistable) serializes
// itself, and the envelope is stamped with the backend registry name
// resume will reconstruct it through. Concurrent scoring is never
// blocked — published snapshots are immutable, so Save reads the same
// frozen state a racing ClassifyBatch does. It returns the persisted
// generation.
func SaveEngine(st SnapshotStore, name, backend string, e *Engine) (uint64, error) {
	if _, err := Lookup(backend); err != nil {
		return 0, err
	}
	clf, gen := e.Snapshot()
	p, ok := clf.(Persistable)
	if !ok {
		return 0, fmt.Errorf("engine: %T is not Persistable", clf)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return 0, fmt.Errorf("engine: saving snapshot %s generation %d: %w", name, gen, err)
	}
	env := Envelope{Backend: backend, Generation: gen, Payload: buf.Bytes()}
	if err := st.Write(name, gen, env.Encode()); err != nil {
		return 0, err
	}
	return gen, nil
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
		data, err := st.Read(name, gens[i])
		if err != nil {
			skip(gens[i], err)
			continue
		}
		env, err := DecodeEnvelope(data)
		if err != nil {
			skip(gens[i], err)
			continue
		}
		if env.Generation != gens[i] {
			skip(gens[i], fmt.Errorf("envelope stamped %d", env.Generation))
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
	p, ok := clf.(Persistable)
	if !ok {
		return nil, fmt.Errorf("engine: backend %q is not Persistable", env.Backend)
	}
	if err := p.Load(bytes.NewReader(env.Payload)); err != nil {
		return nil, err
	}
	return clf, nil
}

// ResumeEngine restores an Engine from name's latest valid generation
// in st: the restored classifier serves at its persisted generation
// (not 1), so the generation line — and every consumer watching it
// for provenance — continues across the restart. The envelope of the
// resumed generation is returned alongside the engine. It fails with
// an error wrapping ErrNoSnapshot when no generation validates.
func ResumeEngine(st SnapshotStore, name string, cfg Config) (*Engine, Envelope, error) {
	env, clf, err := latestValid(st, name)
	if err != nil {
		return nil, Envelope{}, err
	}
	// DecodeEnvelope rejects a zero generation stamp, so env.Generation
	// is always a valid NewAt argument here (as in ResumeAll).
	return NewAt(clf, env.Generation, cfg), env, nil
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

// ShardSnapshotName is the store key of shard i's snapshot line in a
// fleet of n shards named name: "name.shard<i>", except that the one
// shard of a one-shard fleet persists under name itself, exactly as a
// single engine does. (The Engine stats label "name/i" is not
// filesystem-safe, so the store key scheme is its own.)
func ShardSnapshotName(name string, shard, shards int) string {
	if shards == 1 {
		return name
	}
	return fmt.Sprintf("%s.shard%d", name, shard)
}

// SaveAll persists every shard's current snapshot concurrently, each
// under its own ShardSnapshotName and at its own generation — shards
// retrain independently, so their generation lines diverge and must
// persist independently. It returns the persisted generation of every
// shard; on error some shards may have saved (each save is atomic,
// so no shard is ever half-saved).
func (s *Sharded) SaveAll(st SnapshotStore, backend string) ([]uint64, error) {
	return s.saveLines(st, s.name, backend)
}

// saveLines is SaveAll with the lines keyed under name.
func (s *Sharded) saveLines(st SnapshotStore, name, backend string) ([]uint64, error) {
	gens := make([]uint64, len(s.shards))
	err := s.forEachShard(func(sh int) error {
		var err error
		gens[sh], err = SaveEngine(st, ShardSnapshotName(name, sh, len(s.shards)), backend, s.shards[sh])
		return err
	})
	return gens, err
}

// ResumeAll restores a Sharded of shards engines from st, each shard
// from its own snapshot line's latest valid generation (keys from
// cfg.Name, default "sharded"). Every shard must resume — a missing
// shard means the partition is serving amnesia for those users, so it
// is an error, not a silent fresh shard. The returned generations are
// each shard's resumed generation; compare them with StaleShards to
// see which shards lag the newest line.
func ResumeAll(st SnapshotStore, shards int, cfg ShardedConfig) (*Sharded, []uint64, error) {
	if shards < 1 {
		return nil, nil, fmt.Errorf("engine: ResumeAll with %d shards", shards)
	}
	name := cfg.Name
	if name == "" {
		name = "sharded"
	}
	clfs := make([]Classifier, shards)
	gens := make([]uint64, shards)
	for i := 0; i < shards; i++ {
		env, clf, err := latestValid(st, ShardSnapshotName(name, i, shards))
		if err != nil {
			return nil, nil, fmt.Errorf("engine: resuming shard %d of %q: %w", i, name, err)
		}
		clfs[i] = clf
		gens[i] = env.Generation
	}
	return newShardedAt(clfs, gens, cfg), gens, nil
}

// StaleShards returns the indices of shards whose resumed generation
// lags the newest generation across the partition — the shards whose
// snapshot line missed recent publishes (a checkpoint that did not
// cover them, a file lost to corruption) and is serving older state
// than its peers.
func StaleShards(gens []uint64) []int {
	var max uint64
	for _, g := range gens {
		if g > max {
			max = g
		}
	}
	var stale []int
	for i, g := range gens {
		if g < max {
			stale = append(stale, i)
		}
	}
	return stale
}
