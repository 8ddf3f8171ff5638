// Package b imports the package under test, so the external test's
// import of b type-checks only over a's test variant.
package b

import "example.com/m/a"

// Use takes a value of the package under test.
func Use(t a.T) int { return 0 }
