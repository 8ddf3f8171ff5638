package engine_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
)

// FuzzDecodeEnvelope holds the snapshot envelope decoder to three
// properties. Arbitrary bytes decode or return an error, never panic.
// A decoded envelope re-encodes to bytes that decode to the same
// envelope. And every envelope Encode accepts — a backend name of
// 1–255 bytes, a generation of at least 1, any payload — survives
// Encode followed by DecodeEnvelope; the fuzzer drives that leg by
// reading the same input as an envelope's fields, with nameLen picking
// where the name ends.
func FuzzDecodeEnvelope(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "envelope_v1.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden, uint64(42), uint8(6))
	for _, env := range []engine.Envelope{
		{Backend: "sbayes", Generation: 1},
		{Backend: "graham", Generation: 7, Payload: []byte("db bytes")},
		{Backend: string(bytes.Repeat([]byte{'b'}, 255)), Generation: 1 << 63, Payload: bytes.Repeat([]byte{0xff}, 300)},
	} {
		f.Add(env.Encode(), env.Generation, uint8(len(env.Backend)))
	}
	// Fields read straight from the input: a short name, and a name
	// whose length takes a two-byte uvarint, each with a payload.
	f.Add([]byte("grahamdb bytes"), uint64(7), uint8(6))
	f.Add(append(bytes.Repeat([]byte{'n'}, 200), "payload"...), uint64(3), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, gen uint64, nameLen uint8) {
		if env, err := engine.DecodeEnvelope(data); err == nil {
			roundTrip(t, env)
		}
		// The same bytes as fields: the first nameLen (at least one,
		// so 1–255) name the backend, the rest are the payload.
		n := min(len(data), max(1, int(nameLen)))
		if n == 0 || gen == 0 {
			return
		}
		roundTrip(t, engine.Envelope{Backend: string(data[:n]), Generation: gen, Payload: data[n:]})
	})
}

// roundTrip fails unless env encodes to bytes that decode to env.
func roundTrip(t *testing.T, env engine.Envelope) {
	t.Helper()
	got, err := engine.DecodeEnvelope(env.Encode())
	if err != nil {
		t.Fatalf("envelope (backend %q, generation %d, %d-byte payload) does not decode after Encode: %v",
			env.Backend, env.Generation, len(env.Payload), err)
	}
	if got.Backend != env.Backend || got.Generation != env.Generation || !bytes.Equal(got.Payload, env.Payload) {
		t.Fatalf("round trip changed the envelope: backend %q -> %q, generation %d -> %d, payload %d -> %d bytes",
			env.Backend, got.Backend, env.Generation, got.Generation, len(env.Payload), len(got.Payload))
	}
}
