package admission

import (
	"context"
	"fmt"

	"repro/internal/mail"
	"repro/internal/tokenize"
)

// FloodGateConfig tunes the structural pre-filter.
type FloodGateConfig struct {
	// MaxDistinct rejects any message whose distinct-token count
	// reaches this bound (<= 0 selects 1024). The paper's §4.2 volume
	// analysis is the calibration: a dictionary attack email carries an
	// entire word source — tens of thousands of distinct tokens against
	// the few hundred of the longest legitimate mail — so a generous
	// cutoff separates the classes with no model at all.
	MaxDistinct int
}

// TokenFloodGate is the cheap structural admitter: it rejects
// dictionary-style wide-vocabulary payloads on token count alone, no
// clone-and-probe required. It cannot see focused attacks (their
// vocabulary is deliberately narrow) — it exists so the expensive
// IncrementalRONI probe behind it in a Chain is spent on mail the
// gate cannot judge.
type TokenFloodGate struct {
	max int
}

// NewTokenFloodGate builds the gate.
func NewTokenFloodGate(cfg FloodGateConfig) *TokenFloodGate {
	max := cfg.MaxDistinct
	if max <= 0 {
		max = 1024
	}
	return &TokenFloodGate{max: max}
}

// Name identifies the gate and its bound.
func (g *TokenFloodGate) Name() string { return fmt.Sprintf("floodgate-%d", g.max) }

// Admit rejects wide-vocabulary candidates and accepts the rest. The
// label is irrelevant: the gate is structural, which is exactly why it
// still fires on pseudospam delivered under ham labels. The distinct
// count is read off the candidate's token stream, so the gate costs
// nothing beyond the one tokenization every candidate gets.
func (g *TokenFloodGate) Admit(_ context.Context, _ *mail.Message, ts *tokenize.TokenStream, _ bool) Decision {
	n := ts.Len()
	if n >= g.max {
		return Decision{
			Verdict: Rejected,
			Reason:  fmt.Sprintf("token flood: %d distinct tokens >= %d", n, g.max),
		}
	}
	return Decision{Verdict: Accepted, Reason: fmt.Sprintf("%d distinct tokens", n)}
}
