package engine

// Guarded-engine persistence: the classifier snapshots plus the
// admission state that guards them, saved and resumed as one record.
//
// SaveEngine alone is amnesty-prone for a guarded deployment: the
// classifiers survive the restart but the quarantine empties (a held
// attacker walks free) and the RONI probe budget refills (the
// exhaustion an attacker caused is forgotten). SaveGuarded therefore
// writes the same one record with the guard's durable state in its
// sections — the Save output of the admitter and quarantine sink, when
// they are Persistable like the classifiers whose payloads are the
// record's shards — under the record's one checksum. A save
// that lands carries both; a save that does not land leaves the
// previous record, its admission state included, as the one a resume
// restarts from.
//
// Resume is strict about sections: a section whose target cannot load
// it is an error — silently dropping persisted quarantine state would
// re-open the exact amnesty this closes — and loads none of them: the
// guard's admission state is restored whole or left as it was. A
// record with no sections (a plain SaveEngine save) loads nothing into
// the guard.
//
// A version-1 record carried no sections: a guarded one-shard engine
// wrote its state beside it, in a sidecar under the store key
// "<name>.admission" at the same generation,
//
//	magic    "ADMS" 0x01 (format version)
//	uvarint  generation (the saved epoch's stamp)
//	uvarint  section count, then the sections as in a record
//	uint32   big-endian CRC-32 (IEEE) of every preceding byte
//
// Resume still reads that sidecar for a version-1 record. Nothing
// writes it. Like the record, it is framed and read through
// internal/binfmt, the one codec under every saved format.

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"repro/internal/binfmt"
	"repro/internal/mail"
	"repro/internal/tokenize"
)

// Section labels.
const (
	sectionAdmitter   = "admitter"
	sectionQuarantine = "quarantine"
)

// guardSections collects the durable state of a guard's components;
// components that are nil or not Persistable contribute no section.
func guardSections(admit Admitter, sink QuarantineSink) ([]Section, error) {
	var sections []Section
	for _, c := range []struct {
		label     string
		component any
	}{{sectionAdmitter, admit}, {sectionQuarantine, sink}} {
		p, ok := c.component.(Persistable)
		if !ok {
			continue
		}
		payload, err := saved(p)
		if err != nil {
			return nil, fmt.Errorf("engine: saving %s state: %w", c.label, err)
		}
		sections = append(sections, Section{Label: c.label, Payload: payload})
	}
	return sections, nil
}

// applySections loads each section into its live component; a section
// whose target cannot load is an error, not a skip, and loads nothing:
// each target's own state is saved before it loads, and a section that
// fails to load puts the targets before it back. A record keeps held
// messages but not their streams, so once the sink's state loads,
// every held candidate is tokenized once with stream.
func applySections(sections []Section, admit Admitter, sink QuarantineSink, stream func(*mail.Message) *tokenize.TokenStream) error {
	targets := make([]Persistable, len(sections))
	for i, s := range sections {
		var ok bool
		switch s.Label {
		case sectionAdmitter:
			if targets[i], ok = admit.(Persistable); !ok {
				return fmt.Errorf("engine: admitter %T cannot load persisted admission state", admit)
			}
		case sectionQuarantine:
			if targets[i], ok = sink.(Persistable); !ok {
				return fmt.Errorf("engine: quarantine sink %T cannot load persisted quarantine state", sink)
			}
		default:
			// Unknown sections would have to be dropped to proceed, and a
			// dropped section is forgotten state — the amnesty again.
			return fmt.Errorf("engine: snapshot has unknown admission section %q", s.Label)
		}
	}
	load := func(i int, payload []byte) error {
		if err := targets[i].Load(bytes.NewReader(payload)); err != nil {
			return err
		}
		if sections[i].Label == sectionQuarantine {
			sink.Restream(stream)
		}
		return nil
	}
	saved := make([][]byte, 0, len(sections))
	for i, s := range sections {
		var before bytes.Buffer
		err := targets[i].Save(&before)
		if err == nil {
			err = load(i, s.Payload)
		}
		if err != nil {
			for j := len(saved) - 1; j >= 0; j-- {
				err = errors.Join(err, load(j, saved[j]))
			}
			return fmt.Errorf("engine: loading %s state: %w", s.Label, err)
		}
		saved = append(saved, before.Bytes())
	}
	return nil
}

// streamer tokenizes a message once with the tokenizer of the shard it
// routes to among clfs, an epoch indexed by shard — the stream a live
// vetting would have made of it.
func (e *Engine) streamer(clfs []Classifier) func(*mail.Message) *tokenize.TokenStream {
	return func(m *mail.Message) *tokenize.TokenStream { return clfs[e.ShardFor(m)].Tokenizer().Stream(m) }
}

// SaveGuarded persists g's engine as SaveEngine does — one record
// under name at the serving epoch's one generation — with the
// admitter's and quarantine sink's durable state in the same record,
// in one Write. It returns the persisted generation. The admission
// state is read after the classifiers, so decisions that land between
// the two reads are in the sections but not a snapshot — the safe
// direction: a resume can re-vet, but can never un-forget. Save at a
// quiescent point (no review in progress): a candidate a review has
// detached is in neither.
func SaveGuarded(st SnapshotStore, name string, g *Guarded) (uint64, error) {
	return saveRecord(st, name, g.eng, g.admit, g.cfg.Quarantine)
}

// ResumeGuarded restores a guarded engine of shards shards from name's
// records at start-up: the engine resumes as ResumeEngine does (cfg
// configures it; the store key is name), a fresh guard wraps it with
// admit and gcfg, and the record's admission sections are loaded into
// the guard — held mail stays held and the probe budget stays spent
// across the restart. Each resumed hold is tokenized once, with the
// resumed tokenizer of the shard it routes to, so a review judges it —
// and the RONI memo recognizes it — as it would have before the
// restart. Callers construct admit and gcfg exactly as for
// NewGuarded (the calibration pool, hooks, and sinks are wiring, not
// persisted state). Guarded.Resume runs the same resume in place.
func ResumeGuarded(st SnapshotStore, name string, shards int, cfg Config, admit Admitter, gcfg GuardedConfig) (*Guarded, error) {
	env, clfs, err := resumeRecord(st, name, shards)
	if err != nil {
		return nil, err
	}
	g := NewGuarded(newEngine(clfs, env.Generation, cfg), admit, gcfg)
	if err := applySections(env.Sections, g.admit, g.cfg.Quarantine, g.eng.streamer(clfs)); err != nil {
		return nil, fmt.Errorf("engine: resuming %q: %w", name, err)
	}
	return g, nil
}

// Resume restores name's persisted state into the running guard: the
// classifiers ResumeGuarded would resume are published through the
// hooks as the next epoch, then the admission sections saved with them
// are loaded — after the publish, so a PostPublish grant never adds to
// the restored probe budget — and each resumed hold is tokenized once
// with the published tokenizer of the shard it routes to. It returns
// the resumed snapshot generation, the new serving generation, and
// whether admission state was loaded. A hook error aborts before
// anything is published; a section error leaves the published
// classifiers serving and the guard's admission state as it was.
func (g *Guarded) Resume(st SnapshotStore, name string) (snapshot, gen uint64, loaded bool, err error) {
	env, clfs, err := resumeRecord(st, name, g.eng.NumShards())
	if err != nil {
		return 0, 0, false, err
	}
	if gen, err = g.publish(g.eng.Generation(), clfs, nil); err != nil {
		return env.Generation, gen, false, err
	}
	if err := applySections(env.Sections, g.admit, g.cfg.Quarantine, g.eng.streamer(clfs)); err != nil {
		return env.Generation, gen, false, fmt.Errorf("engine: resuming %q: %w", name, err)
	}
	return env.Generation, gen, len(env.Sections) > 0, nil
}

// readSidecar returns the sections of name's version-1 admission
// sidecar at generation gen: none when no sidecar exists (a plain
// save, or a guard with no durable state), an error when one exists
// but does not decode or carries another generation's stamp.
func readSidecar(st SnapshotStore, name string, gen uint64) ([]Section, error) {
	data, err := st.Read(name+".admission", gen)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	sgen, sections, err := decodeSidecar(data)
	if err != nil {
		return nil, err
	}
	if sgen != gen {
		return nil, fmt.Errorf("engine: admission sidecar stamped generation %d, want %d", sgen, gen)
	}
	return sections, nil
}

// decodeSidecar parses and validates a version-1 admission sidecar.
// The returned payloads alias data.
func decodeSidecar(data []byte) (uint64, []Section, error) {
	_, r, err := binfmt.Open(data, "ADMS", 1, "engine: admission sidecar")
	if err != nil {
		return 0, nil, err
	}
	gen := r.Uvarint("generation")
	sections := readSections(r)
	return gen, sections, r.End()
}
