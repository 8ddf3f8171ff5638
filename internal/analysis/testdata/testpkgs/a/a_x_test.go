package a_test

import (
	"context"

	"example.com/m/a"
	"example.com/m/b"
)

func drainExternal(ctx context.Context, ch <-chan int) int {
	n := b.Use(a.New()) + a.Count(a.New())
	for range ch {
		n++
	}
	return n
}
