package a

import "context"

func drainInPackage(ctx context.Context, ch <-chan int) {
	for range ch {
	}
}
