// Fixture for snapshotonce: a miniature of the engine's serving
// shape. Each want-annotated line is the historical bug class the
// analyzer must catch; the unannotated functions are the sanctioned
// patterns and must stay clean.
package a

import "sync/atomic"

type snapshot struct {
	clf int
	gen uint64
}

// Engine mimics the serving engine: one atomically published
// snapshot pointer.
type Engine struct {
	cur atomic.Pointer[snapshot]
}

// Pure accessors: one load each, results derived from it.
func (e *Engine) Classifier() int    { return e.cur.Load().clf }
func (e *Engine) Generation() uint64 { return e.cur.Load().gen }
func (e *Engine) Snapshot() (int, uint64) {
	s := e.cur.Load()
	return s.clf, s.gen
}

// Torn is the PR 2 bug class: two loads in one body can straddle a
// publish and pair a classifier with the wrong generation.
func (e *Engine) Torn() (int, uint64) {
	clf := e.cur.Load().clf
	gen := e.cur.Load().gen // want `snapshot pointer e\.cur is read again in the same function body`
	return clf, gen
}

// LoopLoad re-reads the pointer every iteration: a publish mid-loop
// mixes generations within one batch.
func (e *Engine) LoopLoad(msgs []int) int {
	total := 0
	for range msgs {
		total += e.cur.Load().clf // want `snapshot pointer e\.cur is read inside a loop`
	}
	return total
}

// HoistedLoad is the fix for LoopLoad and must stay clean.
func (e *Engine) HoistedLoad(msgs []int) int {
	clf := e.cur.Load().clf
	total := 0
	for range msgs {
		total += clf
	}
	return total
}

// Guarded mimics a wrapper reading the snapshot through accessors.
type Guarded struct {
	eng *Engine
}

// TornAccessors is the wrapper variant of the same torn read: two
// accessor calls are two loads of one pointer.
func (g *Guarded) TornAccessors() (int, uint64) {
	clf := g.eng.Classifier()
	return clf, g.eng.Generation() // want `snapshot pointer g\.eng\.cur is read again in the same function body`
}

// OneSnapshot is the fix for TornAccessors and must stay clean.
func (g *Guarded) OneSnapshot() (int, uint64) {
	return g.eng.Snapshot()
}

// Fleet mimics per-shard pointers: reading one pointer per shard in a
// loop is N reads a publish can straddle, so a batch spanning the
// shards mixes generations. One epoch pointer for every shard is the
// fix; the loop read is flagged even though each iteration reads a
// different pointer.
type Fleet struct {
	shards []*Engine
}

func (f *Fleet) Generations() []uint64 {
	out := make([]uint64, 0, len(f.shards))
	for _, e := range f.shards {
		out = append(out, e.Generation()) // want `snapshot pointer e\.cur is read inside a loop`
	}
	return out
}

// Closures are their own bodies: one load in the method plus one in
// the goroutine is not a torn read of one decision.
func (e *Engine) Background(done chan<- uint64) int {
	clf := e.cur.Load().clf
	go func() {
		done <- e.cur.Load().gen
	}()
	return clf
}

// Waived shows the escape hatch: an annotated intentional re-read.
func (e *Engine) Waived() (int, uint64) {
	clf := e.cur.Load().clf
	//sbvet:reload fixture: deliberately re-reads to demonstrate the directive
	gen := e.cur.Load().gen
	return clf, gen
}
