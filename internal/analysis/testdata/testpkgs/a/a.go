// Package a is the package under test: it has in-package tests, an
// export_test.go helper and an external test.
package a

import "context"

// T is a value the external test passes to package b.
type T struct{ n int }

// New returns a T.
func New() T { return T{n: 1} }

// Drain is the one finding outside test files.
func Drain(ctx context.Context, ch <-chan int) {
	for range ch {
	}
}

func count(t T) int { return t.n }
