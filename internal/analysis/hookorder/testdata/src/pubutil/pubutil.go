// Package pubutil is a non-engine helper whose RebuildAndPublish
// reaches the publish surface — the cross-package fact leg of the
// hookorder fixture.
package pubutil

import "internal/engine"

// RebuildAndPublish retrains and publishes; it exports a
// publishesFact, so registering any caller of it as a hook is flagged
// from another package.
func RebuildAndPublish(g *engine.Guarded, train []*engine.Message) error {
	_, err := g.RetrainIncremental(train)
	return err
}

// Audit is publish-free; hooks may call it.
func Audit(g *engine.Guarded) int { return 0 }
