package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeAdmissionState holds the reader of the version-1 admission
// sidecar, which resume still reads beside a version-1 record, to
// three properties. Arbitrary bytes decode or return an error, never
// panic. A decoded sidecar's sections survive the next save: carried
// into a record, they decode back unchanged, so a resumed pre-record
// store's admission state is saved whole. And every section list
// survives a record's encode and decode: the fuzzer drives that leg by
// reading the same input as sections, label and payload in turn split
// at each zero byte, so mutations reach the section walk the record
// and the sidecar share instead of stopping at the checksum. The seeds
// are the sidecar of the testdata/store_v1 fixture and, in
// testdata/fuzz, sidecars the version-1 writer produced.
func FuzzDecodeAdmissionState(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "store_v1", "served.admission.00000000000000000002.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture, uint64(2))
	f.Add([]byte("admitter\x00state\x00quarantine\x00\x00"), uint64(1<<40))
	f.Fuzz(func(t *testing.T, data []byte, gen uint64) {
		if dgen, sections, err := decodeSidecar(data); err == nil {
			sectionsRoundTrip(t, max(dgen, 1), sections)
		}
		var sections []Section
		parts := bytes.Split(data, []byte{0})
		for i := 0; i < len(parts); i += 2 {
			s := Section{Label: string(parts[i])}
			if i+1 < len(parts) {
				s.Payload = parts[i+1]
			}
			sections = append(sections, s)
		}
		sectionsRoundTrip(t, max(gen, 1), sections)
	})
}

// sectionsRoundTrip fails unless sections, saved in a one-shard record
// at generation gen, decode back unchanged.
func sectionsRoundTrip(t *testing.T, gen uint64, sections []Section) {
	t.Helper()
	env, err := DecodeEnvelope(Envelope{Backend: "sbayes", Generation: gen, Shards: [][]byte{nil}, Sections: sections}.Encode())
	if err != nil {
		t.Fatalf("record (generation %d, %d sections) does not decode after encoding: %v", gen, len(sections), err)
	}
	if env.Generation != gen || len(env.Sections) != len(sections) {
		t.Fatalf("round trip changed the record: generation %d -> %d, %d -> %d sections", gen, env.Generation, len(sections), len(env.Sections))
	}
	for i, got := range env.Sections {
		if got.Label != sections[i].Label || !bytes.Equal(got.Payload, sections[i].Payload) {
			t.Fatalf("round trip changed section %d: %q (%d bytes) -> %q (%d bytes)",
				i, sections[i].Label, len(sections[i].Payload), got.Label, len(got.Payload))
		}
	}
}
