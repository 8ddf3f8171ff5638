package engine_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/tokenize"
)

// FuzzDecodeEnvelope holds the snapshot envelope decoder to three
// properties. Arbitrary bytes decode or return an error, never panic.
// A decoded envelope of either version re-encodes to bytes that decode
// to the same record. And every record Encode accepts — a backend name
// of 1–255 bytes, a generation of at least 1, at least one shard, any
// sections — survives Encode followed by DecodeEnvelope; the fuzzer
// drives that leg by reading the same input as a record's fields, with
// nameLen picking where the name ends and the rest split at zero
// bytes: shard payloads up to the first empty part, then section
// labels and payloads in turn. The seeds include the version-1 golden
// fixture and real SaveGuarded records of one and three shards.
func FuzzDecodeEnvelope(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "envelope_v1.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden, uint64(42), uint8(6))
	for _, env := range []engine.Envelope{
		{Backend: "sbayes", Generation: 1, Shards: [][]byte{nil}},
		{Backend: "graham", Generation: 7, Shards: [][]byte{[]byte("db bytes")}},
		{Backend: string(bytes.Repeat([]byte{'b'}, 255)), Generation: 1 << 63, Shards: [][]byte{bytes.Repeat([]byte{0xff}, 300)}},
	} {
		f.Add(env.Encode(), env.Generation, uint8(len(env.Backend)))
	}
	// Fields read straight from the input: a short name, and a name
	// whose length takes a two-byte uvarint, each with a payload.
	f.Add([]byte("grahamdb bytes"), uint64(7), uint8(6))
	f.Add(append(bytes.Repeat([]byte{'n'}, 200), "payload"...), uint64(3), uint8(200))
	for _, n := range []int{1, 3} {
		q := admission.NewQuarantine(admission.QuarantineConfig{Capacity: 4})
		held := msg("held until review\n")
		q.Hold(held, tokenize.Default().Stream(held), true, "probe budget exhausted")
		g := newGuard(n, func(int) engine.Classifier { return trained(f, "sbayes") },
			&stateAdmitter{state: "spent budget"}, engine.GuardedConfig{Quarantine: q})
		st := engine.NewMemStore()
		gen, err := engine.SaveGuarded(st, "served", g)
		if err != nil {
			f.Fatal(err)
		}
		record, err := st.Read("served", gen)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(record, gen, uint8(6))
	}
	f.Add([]byte("sbayesshard0\x00shard1\x00\x00admitter\x00state\x00quarantine\x00held"), uint64(2), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, gen uint64, nameLen uint8) {
		if env, err := engine.DecodeEnvelope(data); err == nil {
			roundTrip(t, env)
		}
		// The same bytes as fields: the first nameLen (at least one,
		// so 1–255) name the backend, the rest are the payloads.
		n := min(len(data), max(1, int(nameLen)))
		if n == 0 || gen == 0 {
			return
		}
		env := engine.Envelope{Backend: string(data[:n]), Generation: gen}
		parts := bytes.Split(data[n:], []byte{0})
		for len(parts) > 0 && (len(parts[0]) > 0 || len(env.Shards) == 0) {
			env.Shards, parts = append(env.Shards, parts[0]), parts[1:]
		}
		for i := 1; i < len(parts); i += 2 {
			s := engine.Section{Label: string(parts[i])}
			if i+1 < len(parts) {
				s.Payload = parts[i+1]
			}
			env.Sections = append(env.Sections, s)
		}
		roundTrip(t, env)
	})
}

// roundTrip fails unless env encodes to bytes that decode to env.
func roundTrip(t *testing.T, env engine.Envelope) {
	t.Helper()
	got, err := engine.DecodeEnvelope(env.Encode())
	if err != nil {
		t.Fatalf("record (backend %q, generation %d, %d shards, %d sections) does not decode after Encode: %v",
			env.Backend, env.Generation, len(env.Shards), len(env.Sections), err)
	}
	sameSection := func(a, b engine.Section) bool { return a.Label == b.Label && bytes.Equal(a.Payload, b.Payload) }
	if got.Backend != env.Backend || got.Generation != env.Generation ||
		!slices.EqualFunc(got.Shards, env.Shards, bytes.Equal) || !slices.EqualFunc(got.Sections, env.Sections, sameSection) {
		t.Fatalf("round trip changed the record: backend %q -> %q, generation %d -> %d, %d -> %d shards, %d -> %d sections",
			env.Backend, got.Backend, env.Generation, got.Generation, len(env.Shards), len(got.Shards), len(env.Sections), len(got.Sections))
	}
}
