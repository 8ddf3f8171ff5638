package sbayes

// Native fuzz target for the SBDB persistence format: whatever bytes
// arrive, Load must either return an error (leaving an in-place
// receiver untouched) or produce a filter whose re-serialization is
// stable — never panic, never silently keep partial state. Seed
// corpus entries live in testdata/fuzz/FuzzSBayesSaveLoad.

import (
	"bytes"
	"testing"
)

// canonicalDB returns the canonical Save bytes of a small trained
// filter — the well-formed seed the fuzzer mutates from.
func canonicalDB() []byte {
	f := NewDefault()
	trainBasic(f)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzSBayesSaveLoad(f *testing.F) {
	valid := canonicalDB()
	f.Add([]byte{})
	f.Add([]byte("SBDB"))       // truncated magic
	f.Add([]byte("GRDB\x01"))   // foreign database
	f.Add(valid)                // well-formed
	f.Add(valid[:len(valid)/2]) // truncated body
	f.Add(append(valid, 0xff))  // trailing garbage
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		// In-place Load on a trained filter: an error must leave the
		// receiver byte-for-byte unchanged (no partial state).
		trained := NewDefault()
		trained.Learn(mkMsg("meeting budget report\n"), false)
		trained.Learn(mkMsg("lottery winner prize\n"), true)
		var before bytes.Buffer
		if err := trained.Save(&before); err != nil {
			t.Fatal(err)
		}
		if err := trained.Load(bytes.NewReader(data)); err != nil {
			var after bytes.Buffer
			if err := trained.Save(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatal("failed Load mutated the receiver")
			}
			return
		}

		// The input parsed: loading must have replaced the state
		// entirely, and Save → Load → Save must be byte-stable (Save
		// canonicalizes, so one round trip reaches the fixed point).
		var first bytes.Buffer
		if err := trained.Save(&first); err != nil {
			t.Fatalf("saving loaded filter: %v", err)
		}
		reloaded, err := Load(bytes.NewReader(first.Bytes()), DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("re-loading just-saved database: %v", err)
		}
		ns0, nh0 := trained.Counts()
		ns1, nh1 := reloaded.Counts()
		if ns0 != ns1 || nh0 != nh1 {
			t.Fatalf("counts (%d, %d) != reloaded (%d, %d)", ns0, nh0, ns1, nh1)
		}
		var second bytes.Buffer
		if err := reloaded.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("save -> load -> save is not byte-identical")
		}
	})
}
