package main

import (
	"fmt"
	"net/http"

	"repro/internal/obs"
	"repro/internal/serve"
)

// checks tallies a phase's operations and the output checks that
// failed. Any failed check makes the run incorrect.
type checks struct {
	attempted, failed int
	problems          []string
}

func (c *checks) problem(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

func (c *checks) merge(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.problems = append(c.problems, o.problems...)
}

func (c checks) result(m map[string]metric) result {
	for i, p := range c.problems {
		if i == 20 {
			fmt.Printf("check: ... %d more\n", len(c.problems)-i)
			break
		}
		fmt.Printf("check: FAILED %s\n", p)
	}
	return result{Correct: len(c.problems) == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}
}

// check counts the phase's operations and verifies its outputs. On
// deliver and bulk_score every verdict must equal the replay's verdict
// on the daemon's model (rp replays the sent bodies), and the learn
// path must have stayed idle. On feedback_under_attack no submission
// may shed, the daemon's counters must agree with the loader after the
// flush, and the attacked filter must still pass the ham holdout.
func check(o options, in *inputs, p *phase, rp *replay) (checks, error) {
	var c checks
	d := delta{p.before.m, p.after.m}
	switch o.workload {
	case "deliver":
		want, err := rp.classifyPath(p.model, p.modelGen, in.classify)
		if err != nil {
			return c, err
		}
		c.classify(p, want)
	case "bulk_score":
		want, err := rp.batchPath(p.model, p.modelGen, in.batches)
		if err != nil {
			return c, err
		}
		c.batches(p, want)
	case "feedback_under_attack":
		c.classify(p, nil)
		c.learn(p, d)
	}
	if o.workload != "feedback_under_attack" {
		if p.finalGen != p.modelGen {
			c.problem("serving generation moved from %d to %d with no learn traffic", p.modelGen, p.finalGen)
		}
		for _, name := range []string{"admission_roni_arrivals_total", "serve_publishes_total", "serve_learn_queued_total"} {
			var labels []obs.Label
			if name == "admission_roni_arrivals_total" {
				labels = []obs.Label{obs.L("admitter", "roni")}
			}
			if v := d.value(name, labels...); v != 0 {
				c.problem("learn path not idle: %s grew by %v", name, v)
			}
		}
	}
	return c, nil
}

// classify checks the /classify stream: every response a well-formed
// verdict and, when want is given, equal to the replay's verdict at
// the model's generation.
func (c *checks) classify(p *phase, want []serve.ClassifyResponse) {
	for _, r := range p.classify {
		c.attempted++
		if r.Status != http.StatusOK {
			c.failed++
			continue
		}
		v, err := decodeVerdict(r.body)
		if err != nil {
			c.failed++
			c.problem("classify %d: %v", r.ID, err)
			continue
		}
		if v.Generation < p.modelGen {
			c.problem("classify %d: generation %d older than the model's %d", r.ID, v.Generation, p.modelGen)
		}
		if want != nil && v != want[r.Input] {
			c.failed++
			c.problem("classify %d: daemon said %+v, replay %+v", r.ID, v, want[r.Input])
		}
	}
}

// batches checks the /classify/batch stream: one verdict line per
// message, in order, each equal to the replay's.
func (c *checks) batches(p *phase, want [][]serve.ClassifyResponse) {
	for _, r := range p.batches {
		c.attempted++
		if r.Status != http.StatusOK {
			c.failed++
		}
	}
	if p.repeats > 0 {
		c.failed += p.repeats
		c.problem("%d batch responses differ from the first response to the same body", p.repeats)
	}
	for in, body := range p.batchOut {
		if body == nil {
			continue
		}
		got, err := decodeVerdicts(body)
		if err != nil {
			c.problem("batch body %d: %v", in, err)
			continue
		}
		if len(got) != len(want[in]) {
			c.problem("batch body %d: %d verdict lines for %d messages", in, len(got), len(want[in]))
			continue
		}
		for i := range got {
			if got[i] != want[in][i] {
				c.problem("batch body %d line %d: daemon said %+v, replay %+v", in, i, got[i], want[in][i])
			}
		}
	}
}

// learn checks the feedback stream against the daemon's counters.
func (c *checks) learn(p *phase, d delta) {
	accepted := 0
	for _, r := range p.learn.recs {
		c.attempted++
		if r.Status == http.StatusAccepted {
			accepted++
		} else {
			c.failed++
		}
	}
	c.attempted++ // the flush
	if p.learn.flushStatus != http.StatusOK {
		c.failed++
		c.problem("admin/flush: status %d", p.learn.flushStatus)
	}
	if shed := d.value("serve_learn_shed_total"); shed != 0 {
		c.problem("%v learn submissions shed", shed)
	}
	if trained := d.value("serve_trained_total"); trained != float64(accepted) {
		c.problem("daemon trained %v examples, loader had %d accepted", trained, accepted)
	}
	a := p.stats.Engine.Admission
	if a.Vetted != a.Admitted+a.Quarantined+a.Rejected {
		c.problem("admission: vetted %d != admitted %d + quarantined %d + rejected %d", a.Vetted, a.Admitted, a.Quarantined, a.Rejected)
	}
	if a.Vetted != uint64(accepted) {
		c.problem("admission vetted %d, loader had %d accepted", a.Vetted, accepted)
	}
	if len(p.holdout) != holdoutHam {
		c.problem("holdout: %d verdicts for %d messages", len(p.holdout), holdoutHam)
		return
	}
	if miss := holdoutMiss(p.holdout); miss > maxHoldoutHamMiss {
		c.problem("holdout ham misclassified %.3f > bound %.3f after learning the attacked stream", miss, maxHoldoutHamMiss)
	}
}

// holdoutMiss is the share of holdout ham not labeled ham.
func holdoutMiss(vs []serve.ClassifyResponse) float64 {
	miss := 0
	for _, v := range vs {
		if v.Label != "ham" {
			miss++
		}
	}
	return ratio(float64(miss), float64(len(vs)))
}
