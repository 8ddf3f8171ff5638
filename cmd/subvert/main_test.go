package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestSmallScaleDigests pins the small-scale reproduction: each
// exhibit's printed output, run in-process as `subvert -scale small
// <exhibit>`, hashes to the sha256 recorded here. RONI runs in all and
// admission, and the deployment exhibits drive the serving engine, so
// a change meant to leave the reproduction alone must leave every
// digest alone; a deliberate output change records the new digests.
func TestSmallScaleDigests(t *testing.T) {
	for _, c := range []struct{ exhibit, sha256 string }{
		{"all", "2078fe03415e8b631d6f421783c83b4bfae13c24bb4e5d9e9b7037071cd12b7e"},
		{"deploy", "8064823e109b544d833b5385c54b84b09a5a04ae7213f5b20ed9f9c33e8a982b"},
		{"online", "0cc56ddabd7f0016c719846d285438a4b433a0848d6ad7f28276e3c33dd8f272"},
		{"sharded", "0b9aaebf5db0f844adc5a5828df667d0869c1fee4c3764a650a8e982f312f296"},
		{"admission", "310dee53e62a939e6d8beae7bfa593547509df9abc5b3e606be41a96c2932035"},
	} {
		t.Run(c.exhibit, func(t *testing.T) {
			var out, log bytes.Buffer
			if code := run([]string{"-scale", "small", c.exhibit}, &out, &log); code != 0 {
				t.Fatalf("exit status %d:\n%s", code, log.String())
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != c.sha256 {
				t.Errorf("sha256 of the output %s, want %s", got, c.sha256)
			}
		})
	}
}
