// Package c has a type error in a non-test file, which its test
// variant type-checks again, and one in a test file, beside an
// analyzer finding.
package c

import "context"

// Drain is the analyzer finding.
func Drain(ctx context.Context, ch <-chan int) {
	for range ch {
	}
}

var broken int = "not an int"
