// Package sbayes reimplements the SpamBayes statistical learner that
// the paper attacks: Robinson-smoothed per-token spam scores combined
// with Fisher's method into a message score that is thresholded into
// ham / unsure / spam (paper §2.3, equations 1–4).
//
// The implementation follows the SpamBayes reference behaviour:
//
//	PS(w)  = (NH·NS(w)) / (NH·NS(w) + NS·NH(w))             (eq. 1)
//	f(w)   = (s·x + N(w)·PS(w)) / (s + N(w))                (eq. 2)
//	I(E)   = (1 + H(E) − S(E)) / 2                           (eq. 3)
//	H, S   = chi-square combinations of f(w) over δ(E)       (eq. 4)
//
// with x = 0.5, s = 0.45, δ(E) the ≤150 tokens whose scores are
// furthest from 0.5 and outside (0.4, 0.6), and thresholds θ0 = 0.15,
// θ1 = 0.9.
//
// The learner supports incremental Learn/Unlearn and weighted learning
// (training n identical messages in one pass), which the attack
// experiments and the RONI defense rely on. Those learners, the token
// counts and the shared parts of the database codec live in the
// token-count database both backends embed (internal/tokendb); this
// package adds the scoring rule, its validation sets and the SBDB
// format.
package sbayes

import (
	"fmt"

	"repro/internal/engine"
)

// Label is the three-way verdict, shared with every backend through
// the engine package: Ham (score ≤ θ0), Unsure (θ0 < score ≤ θ1),
// Spam (score > θ1).
type Label = engine.Label

const (
	Ham    = engine.Ham
	Unsure = engine.Unsure
	Spam   = engine.Spam
)

// Options holds the learner's tunable parameters. The zero value is
// not meaningful; start from DefaultOptions.
type Options struct {
	// UnknownWordProb is x in equation 2: the prior score of a token
	// never seen in training (SpamBayes default 0.5).
	UnknownWordProb float64
	// UnknownWordStrength is s in equation 2: the weight of the prior
	// relative to observed evidence (SpamBayes default 0.45).
	UnknownWordStrength float64
	// MinProbStrength excludes tokens with |f(w) − 0.5| below this
	// bound from δ(E) (SpamBayes default 0.1, i.e. the paper's
	// (0.4, 0.6) indifference interval).
	MinProbStrength float64
	// MaxDiscriminators caps |δ(E)| (SpamBayes default 150).
	MaxDiscriminators int
	// HamCutoff is θ0: scores ≤ HamCutoff are ham (default 0.15).
	HamCutoff float64
	// SpamCutoff is θ1: scores > SpamCutoff are spam (default 0.9).
	SpamCutoff float64
}

// DefaultOptions returns the SpamBayes defaults used throughout the
// paper.
func DefaultOptions() Options {
	return Options{
		UnknownWordProb:     0.5,
		UnknownWordStrength: 0.45,
		MinProbStrength:     0.1,
		MaxDiscriminators:   150,
		HamCutoff:           0.15,
		SpamCutoff:          0.9,
	}
}

// Validate reports whether the options are internally consistent.
func (o Options) Validate() error {
	switch {
	case o.UnknownWordProb < 0 || o.UnknownWordProb > 1:
		return fmt.Errorf("sbayes: UnknownWordProb %v outside [0,1]", o.UnknownWordProb)
	case o.UnknownWordStrength < 0:
		return fmt.Errorf("sbayes: UnknownWordStrength %v negative", o.UnknownWordStrength)
	case o.MinProbStrength < 0 || o.MinProbStrength > 0.5:
		return fmt.Errorf("sbayes: MinProbStrength %v outside [0,0.5]", o.MinProbStrength)
	case o.MaxDiscriminators <= 0:
		return fmt.Errorf("sbayes: MaxDiscriminators %d not positive", o.MaxDiscriminators)
	case o.HamCutoff < 0 || o.HamCutoff > 1 || o.SpamCutoff < 0 || o.SpamCutoff > 1:
		return fmt.Errorf("sbayes: cutoffs (%v, %v) outside [0,1]", o.HamCutoff, o.SpamCutoff)
	case o.HamCutoff > o.SpamCutoff:
		return fmt.Errorf("sbayes: HamCutoff %v above SpamCutoff %v", o.HamCutoff, o.SpamCutoff)
	}
	return nil
}

// LabelFor maps a message score to a Label using the thresholds.
func (o Options) LabelFor(score float64) Label {
	switch {
	case score <= o.HamCutoff:
		return Ham
	case score <= o.SpamCutoff:
		return Unsure
	default:
		return Spam
	}
}
