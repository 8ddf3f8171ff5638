package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
)

// phase is one timed run of a workload against one fresh daemon, with
// everything measured around it.
type phase struct {
	setups  []time.Duration // launch-to-healthy of every daemon launched
	args    []string        // the measured daemon's flags
	elapsed time.Duration   // length of the timed phase

	before, after scrape
	daemonCPU     time.Duration // over the timed phase
	loaderCPU     time.Duration
	peakRSSMB     float64
	gc            []gcEvent
	// stealPct is the share of the host's CPU time the hypervisor
	// gave to other guests during the phase: high values explain slow,
	// noisy runs.
	stealPct float64

	classify []record
	batches  []record
	batchOut [][]byte // first response to each batch body
	repeats  int      // batch responses that differed from the first
	learn    learnResult

	stats    statsResponse // GET /stats after the phase
	holdout  []serve.ClassifyResponse
	model    engine.Classifier // the daemon's serving model, saved before the phase
	modelGen uint64
	finalGen uint64 // serving generation after the phase
}

// msgs is the number of messages the daemon handled in the phase:
// verdicts given plus learn submissions accepted or shed.
func (p *phase) msgs() int {
	n := len(p.classify) + len(p.learn.recs)
	for _, r := range p.batches {
		if r.Status == http.StatusOK {
			n += batchLines
		}
	}
	return n
}

// statsResponse mirrors the GET /stats body.
type statsResponse struct {
	Serve  serve.Stats `json:"serve"`
	Engine struct {
		Admission engine.AdmissionStats
	} `json:"engine"`
}

// runPhase launches `launches` daemons one after another, timing each
// set-up, keeps the last, and drives the workload's traffic through it
// for `seconds`.
func runPhase(o options, in *inputs, traced bool, launches int) (*phase, error) {
	p := &phase{}
	var d *daemon
	for i := 0; i < launches; i++ {
		if d != nil {
			d.stop()
		}
		var err error
		d, err = launchRetry(o.daemonBin, o.workDir, traced)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, d.setup)
	}
	defer d.stop()
	p.args = d.args

	ctl, fg := newConn(d.url), newConn(d.url)
	defer ctl.Close()
	defer fg.Close()
	if err := p.loadModel(ctl, d); err != nil {
		return nil, err
	}

	var err error
	if p.before, err = scrapeMetrics(ctl); err != nil {
		return nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	self0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	tot0, steal0, err := hostSteal()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	phaseLen := time.Duration(o.seconds) * time.Second
	switch o.workload {
	case "deliver":
		p.classify = openLoop(fg, in.classify, classifyRate, t0, len(in.classify), func() bool { return false })
	case "bulk_score":
		p.batches, p.batchOut, p.repeats = closedLoop(fg, in.batches, t0, phaseLen)
	case "feedback_under_attack":
		var learnDone atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.learn = learnLoop(ctl, in.learn, t0, &learnDone)
		}()
		p.classify = openLoop(fg, in.classify, classifyRate, t0, len(in.classify), func() bool { return !learnDone.Load() })
		wg.Wait()
		if p.learn.err != nil {
			return nil, p.learn.err
		}
	}
	p.elapsed = time.Since(t0)
	t1 := time.Now()
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	self1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	tot1, steal1, err := hostSteal()
	if err != nil {
		return nil, err
	}
	p.daemonCPU, p.loaderCPU = cpu1-cpu0, self1-self0
	p.stealPct = 100 * ratio(float64(steal1-steal0), float64(tot1-tot0))
	if p.after, err = scrapeMetrics(ctl); err != nil {
		return nil, err
	}
	if err := ctl.getJSON("/stats", &p.stats); err != nil {
		return nil, err
	}
	p.finalGen = p.stats.Serve.Generation
	for _, body := range in.holdout {
		vs, err := classifyBatch(ctl, body)
		if err != nil {
			return nil, fmt.Errorf("holdout: %w", err)
		}
		p.holdout = append(p.holdout, vs...)
	}
	if p.peakRSSMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	p.gc = d.stderr.gcBetween(t0, t1)
	return p, nil
}

// launchRetry launches the daemon, retrying when the reserved port was
// taken before the daemon could bind it.
func launchRetry(bin, workDir string, traced bool) (*daemon, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *daemon
		if d, err = launch(bin, workDir, traced); err == nil {
			return d, nil
		}
	}
	return nil, err
}

// loadModel saves the daemon's serving snapshot through POST
// /admin/save and loads it back with engine.NewFromEnvelope: the
// replay scores and learns on the daemon's own model.
func (p *phase) loadModel(c *conn, d *daemon) error {
	status, body, err := c.post("/admin/save", "application/json", nil)
	if err != nil {
		return fmt.Errorf("admin/save: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("admin/save: status %d: %s", status, bytes.TrimSpace(body))
	}
	var saved serve.SaveResponse
	if err := json.Unmarshal(body, &saved); err != nil || len(saved.Generations) != 1 {
		return fmt.Errorf("admin/save: unexpected response %s", bytes.TrimSpace(body))
	}
	store, err := engine.NewDirStore(d.dir)
	if err != nil {
		return err
	}
	env, err := engine.LatestEnvelope(store, "served")
	if err != nil {
		return err
	}
	if env.Generation != saved.Generations[0] {
		return fmt.Errorf("admin/save reported generation %d, store holds %d", saved.Generations[0], env.Generation)
	}
	p.model, err = engine.NewFromEnvelope(env)
	p.modelGen = env.Generation
	return err
}

// classifyBatch posts one NDJSON body and decodes one verdict per line.
func classifyBatch(c *conn, body []byte) ([]serve.ClassifyResponse, error) {
	status, out, err := c.post("/classify/batch", "application/x-ndjson", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d", status)
	}
	return decodeVerdicts(out)
}

// decodeVerdicts parses an NDJSON verdict stream strictly: every line
// must be a ClassifyResponse with a known label.
func decodeVerdicts(body []byte) ([]serve.ClassifyResponse, error) {
	var out []serve.ClassifyResponse
	for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		v, err := decodeVerdict(line)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func decodeVerdict(b []byte) (serve.ClassifyResponse, error) {
	var v serve.ClassifyResponse
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, fmt.Errorf("malformed verdict %q: %w", b, err)
	}
	switch v.Label {
	case "ham", "spam", "unsure":
		return v, nil
	}
	return v, fmt.Errorf("malformed verdict %q: unknown label", b)
}
