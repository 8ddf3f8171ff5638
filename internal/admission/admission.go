// Package admission is the training-data vetting pipeline: it sits
// between the message stream and the engine's training path and
// decides, message by message as mail arrives, whether a candidate
// training example may influence the next serving snapshot.
//
// The paper's defenses (RONI §5.1, dynamic thresholds §5.2) are
// evaluated as offline batch steps — a week-end pass over the
// accumulated candidates. An online deployment cannot afford that
// shape: the batch pass concentrates a week of probe compute into one
// stall, and poison delivered on Monday sits in the store all week.
// This package spreads the same defenses across arrivals:
//
//   - TokenFloodGate is a cheap structural pre-filter that rejects
//     dictionary-style wide-vocabulary payloads outright, so the
//     expensive impact probes are spent on mail that actually needs
//     them;
//   - IncrementalRONI runs the paper's clone-and-probe impact
//     measurement under a per-message amortized compute budget,
//     memoizing verdicts by payload, the token stream's digest (a
//     replicated attack costs one probe, not one per copy), and
//     quarantining what the budget cannot cover;
//   - Quarantine holds deferred candidates until the next snapshot
//     swap, where they are re-vetted and released or dropped;
//   - Chain composes admitters into a policy.
//
// Every admitter judges the candidate's token stream, which is never
// nil: the guard tokenizes each candidate once, and that stream is
// what the chain judges, the quarantine holds and, once admitted,
// RetrainIncremental trains. A hold resumed from a record is
// tokenized once at resume (Quarantine.Restream).
//
// The contract types (Verdict, Decision, Admitter) are aliases of the
// engine package's declarations, exactly as sbayes.Label aliases
// engine.Label: engine.Guarded threads the pipeline through
// RetrainIncremental, so the interface lives where the wrapper is, and
// this package supplies the policies.
package admission

import (
	"context"
	"strings"

	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/tokenize"
)

// Verdict is an admission decision's three-way outcome.
//
//sbvet:nofacade alias of the engine-declared contract; the facade exports it as AdmitVerdict
type Verdict = engine.AdmitVerdict

// The verdicts. (Held rather than Quarantine, because Quarantine names
// the buffer type below.)
const (
	Accepted = engine.AdmitAccept     //sbvet:nofacade alias; the facade exports it as AdmitAccept
	Held     = engine.AdmitQuarantine //sbvet:nofacade alias; the facade exports it as AdmitQuarantine
	Rejected = engine.AdmitReject     //sbvet:nofacade alias; the facade exports it as AdmitReject
)

// Decision is one vetted candidate's outcome.
//
//sbvet:nofacade alias of the engine-declared contract; the facade exports it as AdmitDecision
type Decision = engine.AdmitDecision

// Admitter vets candidate training examples; see engine.Admitter.
type Admitter = engine.Admitter

// Chain composes admitters in order: the first non-Accept decision
// wins, and a candidate every link accepts is accepted. The canonical
// pipeline is Chain(TokenFloodGate, IncrementalRONI) — the free
// structural check runs first so the budgeted probe never pays for a
// message the gate would have rejected anyway.
type Chain struct {
	links []Admitter
}

// NewChain composes the links in vetting order.
func NewChain(links ...Admitter) *Chain {
	if len(links) == 0 {
		panic("admission: NewChain with no admitters")
	}
	return &Chain{links: links}
}

// Name lists the links in order.
func (c *Chain) Name() string {
	names := make([]string, len(c.links))
	for i, a := range c.links {
		names[i] = a.Name()
	}
	return "chain(" + strings.Join(names, ",") + ")"
}

// Admit runs the links in order; the first non-Accept decision wins.
// The same token stream is handed to every link — the tokenize-once
// contract composes through the chain.
func (c *Chain) Admit(ctx context.Context, m *mail.Message, ts *tokenize.TokenStream, spam bool) Decision {
	for _, a := range c.links {
		if d := a.Admit(ctx, m, ts, spam); d.Verdict != Accepted {
			return d
		}
	}
	return Decision{Verdict: Accepted, Reason: "all links clear"}
}
