package engine_test

// Golden-file pins of the snapshot envelope format. The version-2
// fixture is the exact encoding of a fixed two-shard guarded record.
// If the encode check fails, the record layout changed — that must be
// a conscious decision: bump the version byte in snapMagic, keep old
// snapshots decodable (or document the migration), and regenerate with
//
//	go test ./internal/engine -run TestGoldenEnvelope -update
//
// The version-1 fixture is what every save wrote before one record per
// save; it must keep decoding, as a one-shard record with no sections.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/engine"
)

var updateGolden = flag.Bool("update", false, "rewrite golden format fixtures")

// goldenEnvelope is the fixed logical content the version-2 fixture
// pins.
func goldenEnvelope() engine.Envelope {
	return engine.Envelope{
		Backend:    "sbayes",
		Generation: 42,
		Shards:     [][]byte{[]byte("golden shard 0\n"), []byte("golden shard 1\n")},
		Sections: []engine.Section{
			{Label: "admitter", Payload: []byte("golden admitter state\n")},
			{Label: "quarantine", Payload: []byte("golden quarantine state\n")},
		},
	}
}

func TestGoldenEnvelopeFormat(t *testing.T) {
	path := filepath.Join("testdata", "envelope_v2.snap")
	got := goldenEnvelope().Encode()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("envelope encoding no longer matches the golden fixture (%d bytes vs %d): "+
			"a format change must bump the version byte and regenerate with -update", len(got), len(want))
	}
	sameSection := func(a, b engine.Section) bool { return a.Label == b.Label && bytes.Equal(a.Payload, b.Payload) }
	for _, fixture := range []struct {
		file string
		want engine.Envelope
	}{
		{"envelope_v2.snap", goldenEnvelope()},
		{"envelope_v1.snap", engine.Envelope{Backend: "sbayes", Generation: 42, Shards: [][]byte{[]byte("golden snapshot payload\n")}}},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", fixture.file))
		if err != nil {
			t.Fatal(err)
		}
		env, err := engine.DecodeEnvelope(data)
		if err != nil {
			t.Fatalf("decoding golden fixture %s: %v", fixture.file, err)
		}
		exp := fixture.want
		if env.Backend != exp.Backend || env.Generation != exp.Generation ||
			!slices.EqualFunc(env.Shards, exp.Shards, bytes.Equal) || !slices.EqualFunc(env.Sections, exp.Sections, sameSection) {
			t.Fatalf("golden fixture %s decoded to %q gen %d, %d shards %q, %d sections", fixture.file,
				env.Backend, env.Generation, len(env.Shards), env.Shards, len(env.Sections))
		}
	}
}
