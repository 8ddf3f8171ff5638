package engine

// Guarded-engine persistence: the classifier snapshots plus the
// admission state that guards them, saved and resumed together.
//
// SaveEngine alone is amnesty-prone for a guarded deployment: the
// classifiers survive the restart but the quarantine empties (a held
// attacker walks free) and the RONI probe budget refills (the
// exhaustion an attacker caused is forgotten). SaveGuarded therefore
// writes, next to the shard lines, one sidecar envelope under the
// store key "<name>.admission" at the saved epoch's generation,
// holding whatever durable state the guard's admitter and quarantine
// sink expose through AdmissionStatePersister:
//
//	magic    "ADMS" 0x01 (format version)
//	uvarint  generation (the saved epoch's stamp)
//	uvarint  section count
//	per section:
//	  uvarint len(label), label bytes   ("admitter" | "quarantine")
//	  uvarint len(payload), payload bytes (the persister's SaveState)
//	uint32   big-endian CRC-32 (IEEE) of every preceding byte
//
// Resume is strict about presence the other way around: a missing
// sidecar is fine (snapshots from before this format, or a guard with
// no durable state), but a sidecar section whose target cannot load it
// is an error — silently dropping persisted quarantine state would
// re-open the exact amnesty this format closes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// AdmissionStatePersister is the capability of carrying admitter or
// quarantine state across a restart. Implementations serialize their
// own versioned payload; the envelope (integrity, identification,
// generation stamp) is the engine's job.
type AdmissionStatePersister interface {
	// SaveState writes the component's durable state.
	SaveState(w io.Writer) error
	// LoadState replaces the component's state with a previously saved
	// payload.
	LoadState(r io.Reader) error
}

// admsMagic is the admission sidecar's magic plus format version.
var admsMagic = [5]byte{'A', 'D', 'M', 'S', 1}

// Sidecar section labels.
const (
	admsSectionAdmitter   = "admitter"
	admsSectionQuarantine = "quarantine"
)

// AdmissionSnapshotName is the store key of a guarded engine's
// admission sidecar: the shard lines of the engine saved as name pair
// with "name.admission" at their generation.
func AdmissionSnapshotName(name string) string { return name + ".admission" }

// admsSection is one labeled persister payload inside the sidecar.
type admsSection struct {
	label   string
	payload []byte
}

// encodeAdmissionState builds the sidecar envelope; no sections means
// no sidecar (the caller skips the write).
func encodeAdmissionState(gen uint64, sections []admsSection) []byte {
	var b bytes.Buffer
	b.Write(admsMagic[:])
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { b.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	put(gen)
	put(uint64(len(sections)))
	for _, s := range sections {
		put(uint64(len(s.label)))
		b.WriteString(s.label)
		put(uint64(len(s.payload)))
		b.Write(s.payload)
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(b.Bytes()))
	b.Write(crc[:])
	return b.Bytes()
}

// decodeAdmissionState parses and validates a sidecar envelope.
func decodeAdmissionState(data []byte) (gen uint64, sections []admsSection, err error) {
	if len(data) < len(admsMagic)+4 {
		return 0, nil, fmt.Errorf("engine: admission sidecar truncated (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:4], admsMagic[:4]) {
		return 0, nil, fmt.Errorf("engine: bad admission sidecar magic %q", data[:4])
	}
	if data[4] != admsMagic[4] {
		return 0, nil, fmt.Errorf("engine: admission sidecar format version %d, want %d", data[4], admsMagic[4])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if sum := crc32.ChecksumIEEE(body); sum != binary.BigEndian.Uint32(tail) {
		return 0, nil, fmt.Errorf("engine: admission sidecar checksum mismatch (have %08x, stored %08x)",
			sum, binary.BigEndian.Uint32(tail))
	}
	r := bytes.NewReader(body[len(admsMagic):])
	read := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, fmt.Errorf("engine: admission sidecar %s: %w", what, err)
		}
		return v, nil
	}
	if gen, err = read("generation"); err != nil {
		return 0, nil, err
	}
	n, err := read("section count")
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(r.Len()) { // each section costs >= 1 byte
		return 0, nil, fmt.Errorf("engine: admission sidecar section count %d", n)
	}
	take := func(what string) ([]byte, error) {
		ln, err := read(what + " length")
		if err != nil {
			return nil, err
		}
		if ln > uint64(r.Len()) {
			return nil, fmt.Errorf("engine: admission sidecar truncated in %s", what)
		}
		b := make([]byte, ln)
		io.ReadFull(r, b)
		return b, nil
	}
	for i := uint64(0); i < n; i++ {
		label, err := take("section label")
		if err != nil {
			return 0, nil, err
		}
		payload, err := take("section payload")
		if err != nil {
			return 0, nil, err
		}
		sections = append(sections, admsSection{label: string(label), payload: payload})
	}
	if r.Len() != 0 {
		return 0, nil, fmt.Errorf("engine: admission sidecar has %d trailing bytes", r.Len())
	}
	return gen, sections, nil
}

// guardSections collects the persistable components of one guard.
func guardSections(admit Admitter, sink QuarantineSink) ([]admsSection, error) {
	var sections []admsSection
	add := func(label string, p AdmissionStatePersister) error {
		var buf bytes.Buffer
		if err := p.SaveState(&buf); err != nil {
			return fmt.Errorf("engine: saving %s state: %w", label, err)
		}
		sections = append(sections, admsSection{label: label, payload: buf.Bytes()})
		return nil
	}
	if p, ok := admit.(AdmissionStatePersister); ok {
		if err := add(admsSectionAdmitter, p); err != nil {
			return nil, err
		}
	}
	if p, ok := sink.(AdmissionStatePersister); ok {
		if err := add(admsSectionQuarantine, p); err != nil {
			return nil, err
		}
	}
	return sections, nil
}

// applySections loads each sidecar section into its live component;
// a section whose target cannot load is an error, not a skip.
func applySections(sections []admsSection, admit Admitter, sink QuarantineSink) error {
	for _, s := range sections {
		var target AdmissionStatePersister
		var ok bool
		switch s.label {
		case admsSectionAdmitter:
			target, ok = admit.(AdmissionStatePersister)
			if !ok {
				return fmt.Errorf("engine: admitter %T cannot load persisted admission state", admit)
			}
		case admsSectionQuarantine:
			target, ok = sink.(AdmissionStatePersister)
			if !ok {
				return fmt.Errorf("engine: quarantine sink %T cannot load persisted quarantine state", sink)
			}
		default:
			// Unknown sections would have to be dropped to proceed, and a
			// dropped section is forgotten state — the amnesty again.
			return fmt.Errorf("engine: admission sidecar has unknown section %q", s.label)
		}
		if err := target.LoadState(bytes.NewReader(s.payload)); err != nil {
			return fmt.Errorf("engine: loading %s state: %w", s.label, err)
		}
	}
	return nil
}

// SaveGuarded persists g's engine exactly as SaveEngine does — every
// shard line under name, at the serving epoch's one generation — plus
// one admission sidecar at that generation carrying the admitter's and
// quarantine sink's durable state. It returns the persisted
// generation. Guards whose components expose no durable state write
// no sidecar. The admission state is read after the classifiers, so
// decisions that land between the two reads are in the sidecar but not
// a snapshot — the safe direction: a resume can re-vet, but can never
// un-forget.
func SaveGuarded(st SnapshotStore, name, backend string, g *Guarded) (uint64, error) {
	gen, err := SaveEngine(st, name, backend, g.eng)
	if err != nil {
		return 0, err
	}
	sections, err := guardSections(g.admit, g.cfg.Quarantine)
	if err != nil {
		return 0, err
	}
	if len(sections) == 0 {
		return gen, nil
	}
	if err := st.Write(AdmissionSnapshotName(name), gen, encodeAdmissionState(gen, sections)); err != nil {
		return 0, fmt.Errorf("engine: writing admission sidecar: %w", err)
	}
	return gen, nil
}

// ResumeGuarded restores a guarded engine of shards shards from name's
// lines at start-up: the engine resumes as ResumeEngine does (cfg
// configures it; the store key is name), a fresh guard wraps it with
// admit and gcfg, and the admission sidecar is loaded into the guard —
// held mail stays held and the probe budget stays spent across the
// restart. Callers construct admit and gcfg exactly as for NewGuarded
// (the calibration pool, hooks, and sinks are wiring, not persisted
// state). Guarded.Resume runs the same resume in place.
func ResumeGuarded(st SnapshotStore, name string, shards int, cfg Config, admit Admitter, gcfg GuardedConfig) (*Guarded, error) {
	clfs, env, newest, err := resumeEpoch(st, name, shards)
	if err != nil {
		return nil, err
	}
	g := NewGuarded(newEngine(clfs, env.Generation, cfg), admit, gcfg)
	if _, err := g.loadAdmission(st, name, newest); err != nil {
		return nil, err
	}
	return g, nil
}

// Resume restores name's persisted state into the running guard: the
// classifiers ResumeGuarded would resume are published through the
// hooks as the next epoch, then the admission sidecar is loaded — after
// the publish, so a PostPublish grant never adds to the restored probe
// budget. It returns the resumed snapshot generation, the new serving
// generation, and whether a sidecar was loaded. A hook error aborts
// before anything is published; a sidecar error leaves the published
// classifiers serving.
func (g *Guarded) Resume(st SnapshotStore, name string) (snapshot, gen uint64, loaded bool, err error) {
	clfs, env, newest, err := resumeEpoch(st, name, g.eng.NumShards())
	if err != nil {
		return 0, 0, false, err
	}
	if gen, err = g.publish(g.eng.Generation(), clfs); err != nil {
		return env.Generation, gen, false, err
	}
	loaded, err = g.loadAdmission(st, name, newest)
	return env.Generation, gen, loaded, err
}

// loadAdmission restores the guard's admitter and quarantine sink from
// name's admission sidecar at generation gen — the newest generation
// any shard line can load, which for a store whose lines agree is the
// resumed one. It returns false (and no error) when no sidecar exists
// for that generation — snapshots saved through plain SaveEngine, or
// from before the sidecar format — and an error when a sidecar exists
// but cannot be applied in full.
func (g *Guarded) loadAdmission(st SnapshotStore, name string, gen uint64) (bool, error) {
	data, err := st.Read(AdmissionSnapshotName(name), gen)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		return false, fmt.Errorf("engine: resuming %q: %w", name, err)
	}
	sgen, sections, err := decodeAdmissionState(data)
	if err != nil {
		return false, fmt.Errorf("engine: resuming %q: %w", name, err)
	}
	if sgen != gen {
		return false, fmt.Errorf("engine: resuming %q: admission sidecar stamped generation %d, want %d", name, sgen, gen)
	}
	if err := applySections(sections, g.admit, g.cfg.Quarantine); err != nil {
		return false, fmt.Errorf("engine: resuming %q: %w", name, err)
	}
	return true, nil
}
