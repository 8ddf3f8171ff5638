package tokenizeonce_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/tokenizeonce"
)

// TestFixtures proves the analyzer fences the tokenizer's entry point,
// Stream: a direct call in a non-allowlisted package is flagged, while
// the tokenize package itself, an allowlisted pre-tokenizing consumer,
// derived-fact helpers, a Stream method on another type, and the
// //sbvet:retokenize escape hatch stay quiet.
func TestFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", tokenizeonce.Analyzer,
		"internal/tokenize", "internal/eval", "serving")
}
