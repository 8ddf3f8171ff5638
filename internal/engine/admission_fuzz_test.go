package engine

import (
	"bytes"
	"testing"
)

// FuzzDecodeAdmissionState holds the admission sidecar decoder to
// three properties. Arbitrary bytes decode or return an error, never
// panic. A decoded sidecar re-encodes to bytes that decode to the same
// sidecar. And every sidecar encodeAdmissionState builds survives the
// decoder: the fuzzer drives that leg by reading the same input as
// sections, label and payload in turn split at each zero byte, so
// mutations reach the section walk instead of stopping at the
// checksum. The committed seeds in testdata/fuzz are sidecars
// SaveGuarded wrote.
func FuzzDecodeAdmissionState(f *testing.F) {
	f.Add(encodeAdmissionState(7, []admsSection{{label: admsSectionAdmitter, payload: []byte{1, 2, 0}}}), uint64(7))
	f.Add([]byte("admitter\x00state\x00quarantine\x00\x00"), uint64(1<<40))
	f.Fuzz(func(t *testing.T, data []byte, gen uint64) {
		if dgen, sections, err := decodeAdmissionState(data); err == nil {
			sidecarRoundTrip(t, dgen, sections)
		}
		var sections []admsSection
		parts := bytes.Split(data, []byte{0})
		for i := 0; i < len(parts); i += 2 {
			s := admsSection{label: string(parts[i])}
			if i+1 < len(parts) {
				s.payload = parts[i+1]
			}
			sections = append(sections, s)
		}
		sidecarRoundTrip(t, gen, sections)
	})
}

// sidecarRoundTrip fails unless gen and sections encode to a sidecar
// that decodes to them.
func sidecarRoundTrip(t *testing.T, gen uint64, sections []admsSection) {
	t.Helper()
	dgen, got, err := decodeAdmissionState(encodeAdmissionState(gen, sections))
	if err != nil {
		t.Fatalf("sidecar (generation %d, %d sections) does not decode after encoding: %v", gen, len(sections), err)
	}
	if dgen != gen || len(got) != len(sections) {
		t.Fatalf("round trip changed the sidecar: generation %d -> %d, %d -> %d sections", gen, dgen, len(sections), len(got))
	}
	for i := range got {
		if got[i].label != sections[i].label || !bytes.Equal(got[i].payload, sections[i].payload) {
			t.Fatalf("round trip changed section %d: %q (%d bytes) -> %q (%d bytes)",
				i, sections[i].label, len(sections[i].payload), got[i].label, len(got[i].payload))
		}
	}
}
