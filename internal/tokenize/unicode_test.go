package tokenize

import (
	"strings"
	"testing"
)

// The corpus substitute is pure ASCII, but a deployed filter sees
// arbitrary bytes; the tokenizer must stay total and sane on unicode.

func TestUnicodeBodySafe(t *testing.T) {
	tok := Default()
	inputs := []string{
		"héllo wörld",
		"日本語のメール です",
		"mixed ascii και ελληνικά",
		"emoji 🎉🎉🎉 party",
		" nbsp separated words",
	}
	for _, in := range inputs {
		got := bodyTokens(tok, in)
		for _, g := range got {
			if g == "" {
				t.Fatalf("empty token from %q", in)
			}
		}
	}
}

func TestUnicodeCaseFolding(t *testing.T) {
	got := bodyTokens(Default(), "HÉLLO")
	if len(got) != 1 || got[0] != strings.ToLower("HÉLLO") {
		t.Errorf("got %v", got)
	}
}

func TestInvalidUTF8DoesNotPanic(t *testing.T) {
	tok := Default()
	// Broken encodings must not crash the pipeline.
	bad := string([]byte{0xff, 0xfe, 'a', 'b', 'c', ' ', 0x80, 0x81, 0x82, 0x83})
	_ = bodyTokens(tok, bad)
}

func TestLongUnicodeWordSkipToken(t *testing.T) {
	// A long multibyte word takes the skip path; the skip token keys
	// on the first byte slice, which must not split a rune unsafely
	// for our purposes (byte-prefix identity is all the learner
	// needs).
	w := strings.Repeat("é", 20) // 40 bytes
	got := bodyTokens(Default(), w)
	if len(got) != 1 || !strings.HasPrefix(got[0], "skip:") {
		t.Errorf("got %v", got)
	}
}

func TestNullBytesAndControls(t *testing.T) {
	got := bodyTokens(Default(), "abc\x00def ghi\tjkl")
	// Tab splits; NUL does not (not whitespace) — totality is what
	// matters here.
	if len(got) == 0 {
		t.Error("no tokens from control-byte input")
	}
}
