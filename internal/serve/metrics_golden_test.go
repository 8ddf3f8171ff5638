package serve_test

// Golden pin of the /metrics surface: the family names, their TYPE and
// HELP lines, and every series' label set, with the sample values
// masked. A dashboard, an alert or the repo benchmark's report reads
// these series by name and label (engine="served" for the one-shard
// daemon, engine="served/i" per shard of a fleet), so a change meant
// to leave the surface alone must leave both goldens byte-identical.
// A deliberate surface change regenerates them with
//
//	go test ./internal/serve -run TestMetricsSurfaceGolden -update

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/tokenize"
)

var updateGolden = flag.Bool("update", false, "rewrite the /metrics surface goldens")

// newDaemonFleet wires a guarded fleet the way sbserved does: a flood
// gate and incremental RONI chain, a quarantine reviewed after every
// publish, and engine, admission and quarantine instruments in one
// registry.
func newDaemonFleet(t *testing.T, shards int, reg *obs.Registry, tracer *obs.Tracer) *engine.Guarded {
	t.Helper()
	b, err := engine.Lookup("sbayes")
	if err != nil {
		t.Fatal(err)
	}
	g := testGen(t)
	rng := stats.NewRNG(5)
	roni, err := admission.NewIncrementalRONI(admission.IncrementalRONIConfig{BudgetPerMessage: 0.05, Burst: 4},
		g.Corpus(rng.Split("calib"), 50, 50), b.New, rng.Split("roni"))
	if err != nil {
		t.Fatal(err)
	}
	chain := admission.NewChain(admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 2000}), roni)
	quarantine := admission.NewQuarantine(admission.QuarantineConfig{Capacity: 16, Trace: tracer})
	roni.Register(reg)
	quarantine.Register(reg)
	gcfg := engine.GuardedConfig{Quarantine: quarantine}
	gcfg.PostPublish = append(gcfg.PostPublish, func() {
		roni.Grant(4)
		quarantine.Review(func(m *mail.Message, ts *tokenize.TokenStream, spam bool) admission.Decision {
			return chain.Admit(context.Background(), m, ts, spam)
		})
	})
	parts := engine.PartitionByKey(g.Corpus(rng.Split("boot"), 40, 40), shards, engine.RecipientKey)
	clfs := make([]engine.Classifier, shards)
	for i := range clfs {
		clfs[i] = b.New()
		for _, ex := range parts[i].Examples {
			clfs[i].Learn(ex.Msg, ex.Spam)
		}
	}
	return engine.NewGuarded(engine.NewSharded(clfs, engine.Config{Name: "served", Obs: reg, Trace: tracer}), chain, gcfg)
}

func TestMetricsSurfaceGolden(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			reg := obs.NewRegistry()
			tracer := obs.NewTracer(64, 1)
			srv := serve.New(newDaemonFleet(t, shards, reg, tracer), serve.Config{
				Store: engine.NewMemStore(), Name: "served", Obs: reg, Trace: tracer,
			})
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			client := ts.Client()

			// Traffic on the scoring, learning and admin paths, so no
			// family that appears only once used is missed.
			g := testGen(t)
			rng := stats.NewRNG(9)
			if code := postJSON(t, client, ts.URL+"/classify", serve.ClassifyRequest{Message: wireMsg(g.HamMessage(rng))}, nil); code != http.StatusOK {
				t.Fatalf("classify: status %d", code)
			}
			var batch bytes.Buffer
			for i := 0; i < 8; i++ {
				line, err := json.Marshal(wireMsg(g.Message(rng, i%2 == 0)))
				if err != nil {
					t.Fatal(err)
				}
				batch.Write(append(line, '\n'))
			}
			if code, _ := postRaw(t, client, ts.URL+"/classify/batch", batch.Bytes()); code != http.StatusOK {
				t.Fatalf("classify/batch: status %d", code)
			}
			for i := 0; i < 4; i++ {
				if code := postJSON(t, client, ts.URL+"/learn", serve.LearnRequest{Message: wireMsg(g.SpamMessage(rng)), Spam: true}, nil); code != http.StatusAccepted {
					t.Fatalf("learn: status %d", code)
				}
			}
			for _, path := range []string{"/admin/flush", "/admin/save"} {
				if code := postJSON(t, client, ts.URL+path, struct{}{}, nil); code != http.StatusOK {
					t.Fatalf("%s: status %d", path, code)
				}
			}

			resp, err := client.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/metrics status %d", resp.StatusCode)
			}
			checkGolden(t, fmt.Sprintf("metrics_shards%d.golden", shards), maskMetrics(t, bufio.NewScanner(resp.Body)))
		})
	}
}

// maskMetrics keeps the exposition's comment lines and each sample's
// series (name and label set) and replaces every sample value with _.
func maskMetrics(t *testing.T, sc *bufio.Scanner) []byte {
	t.Helper()
	var out bytes.Buffer
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "#") {
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				t.Fatalf("sample line without a value: %q", line)
			}
			line = line[:i] + " _"
		}
		out.WriteString(line)
		out.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// checkGolden compares got with testdata/name, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
