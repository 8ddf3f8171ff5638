package sbayes

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	f := NewDefault()
	trainBasic(f)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf, f.Options(), f.Tokenizer())
	if err != nil {
		t.Fatal(err)
	}
	if fs, fh := f.Counts(); func() bool { gs, gh := g.Counts(); return gs != fs || gh != fh }() {
		t.Error("counts differ after round trip")
	}
	if f.VocabSize() != g.VocabSize() {
		t.Errorf("vocab %d vs %d", f.VocabSize(), g.VocabSize())
	}
	probe := mkMsg("viagra budget neverseen meeting\n")
	if f.Score(probe) != g.Score(probe) {
		t.Error("scores differ after round trip")
	}
}

func TestSaveDeterministic(t *testing.T) {
	f := NewDefault()
	r := stats.NewRNG(1)
	for i := 0; i < 50; i++ {
		learnWords(f, randomTokens(r, 20), r.Bernoulli(0.5), 1)
	}
	var a, b bytes.Buffer
	if err := f.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Save output is not deterministic")
	}
}

func TestSaveEmptyFilter(t *testing.T) {
	f := NewDefault()
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.VocabSize() != 0 {
		t.Error("empty filter round trip gained tokens")
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		"",
		"XXXX",
		"SBDB\x03",         // unsupported version
		"SBDB\x02",         // truncated v2 header
		"SBDB\x01",         // truncated header
		"SBDB\x01\x01",     // truncated after nspam
		"SBDB\x01\x01\x01", // truncated after nham
		// v2 bodies with hostile symbol/record sections. Layout:
		// nspam nham nsyms {len tok}... nrecs {id spam ham}...
		"SBDB\x02\x01\x01\x02\x01a\x01a\x02\x00\x01\x01\x01\x01\x01", // duplicate symbol
		"SBDB\x02\x01\x01\x01\x01a\x01\x05\x01\x01",                  // record id out of bounds
		"SBDB\x02\x01\x01\x02\x01a\x01b\x02\x01\x01\x01\x00\x01\x01", // ids not increasing
		"SBDB\x02\x01\x01\x02\x01a\x01b\x02\x01\x01\x01\x01\x01\x01", // repeated id
		"SBDB\x02\x01\x01\x01\x01a\x02\x00\x01\x01\x01\x01\x01",      // nrecs > nsyms
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c), DefaultOptions(), nil); err == nil {
			t.Errorf("Load(%q) succeeded", c)
		}
	}
}

func TestLoadTruncatedBody(t *testing.T) {
	f := NewDefault()
	trainBasic(f)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) / 2, 8} {
		if _, err := Load(bytes.NewReader(full[:cut]), DefaultOptions(), nil); err == nil {
			t.Errorf("Load of %d/%d bytes succeeded", cut, len(full))
		}
	}
}
