// Serving walkthrough: the guarded engine — or fleet — on the network.
// The daemon surface (repro.HTTPServer, the library behind
// cmd/sbserved) exposes classification over HTTP while routing every
// learn submission through the admission guard — the admitflow
// analyzer proves there is no other training path — and carries the
// admission state through snapshot save/resume, so a restart cannot
// amnesty quarantined mail.
//
// The walkthrough runs the server in-process over a loopback
// listener and speaks plain HTTP to it:
//
//  1. bootstrap a classifier, wrap it in admission control
//     (flood gate + quarantine), and serve it;
//  2. classify organic mail and stream an NDJSON batch;
//  3. submit a learn candidate (202: queued behind the guard), flush
//     deterministically, and watch the generation advance;
//  4. submit a dictionary-style flood (admission rejects it — the
//     generation still advances, but nothing trains);
//  5. save a snapshot, train past it, resume in place: serving rolls
//     back to the saved state under a fresh generation;
//  6. serve a three-shard fleet through the same constructor: a save
//     writes one record of every shard and the admission state, and
//     the fleet resumes in place just as the single engine did.
//
// The learn path is bounded: a saturated queue (or a wedged admitter)
// sheds submissions with 503 + Retry-After while classification
// continues. The repo benchmark (`bash benchmark/run.sh`) drives a
// live cmd/sbserved under real load.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro"
)

func main() {
	gen, err := repro.NewGenerator()
	if err != nil {
		log.Fatal(err)
	}
	rng := repro.NewRNG(42)

	// Bootstrap: an operator-trusted local corpus trains the fresh
	// classifier before it serves; everything after goes through
	// admission.
	clf, err := repro.NewClassifier("sbayes")
	if err != nil {
		log.Fatal(err)
	}
	repro.TrainClassifier(clf, gen.Corpus(rng, 200, 200))

	// The guard: a structural flood gate vets each submission, a
	// quarantine holds deferrals for swap-time review.
	quarantine := repro.NewQuarantine(repro.QuarantineConfig{Capacity: 64})
	chain := repro.NewAdmissionChain(
		repro.NewTokenFloodGate(repro.FloodGateConfig{MaxDistinct: 2000}),
	)
	guarded := repro.NewGuarded(
		repro.NewEngine(clf, repro.EngineConfig{Name: "walkthrough"}),
		chain,
		repro.GuardedConfig{Quarantine: quarantine},
	)

	store := repro.NewMemSnapshotStore()
	srv := repro.NewHTTPServer(guarded, repro.HTTPServerConfig{
		Store: store, Name: "walkthrough",
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// 2. Classify one message, then an NDJSON batch.
	var verdict repro.ClassifyResponse
	post(client, ts.URL+"/classify",
		repro.ClassifyRequest{Message: repro.WireFromMail(gen.SpamMessage(rng))}, &verdict)
	fmt.Printf("single classify: %s (score %.3f) at generation %d\n",
		verdict.Label, verdict.Score, verdict.Generation)

	var batch bytes.Buffer
	enc := json.NewEncoder(&batch)
	for i := 0; i < 4; i++ {
		enc.Encode(repro.WireFromMail(gen.Message(rng, i%2 == 0)))
	}
	resp, err := client.Post(ts.URL+"/classify/batch", "application/x-ndjson", &batch)
	if err != nil {
		log.Fatal(err)
	}
	lines := 0
	for dec := json.NewDecoder(resp.Body); dec.More(); {
		var r repro.ClassifyResponse
		if err := dec.Decode(&r); err != nil {
			log.Fatal(err)
		}
		lines++
	}
	resp.Body.Close()
	fmt.Printf("batch classify: %d verdicts streamed back\n", lines)

	// 3. Learn through the guard: 202 queues it, flush publishes.
	var learned repro.LearnResponse
	post(client, ts.URL+"/learn",
		repro.LearnRequest{Message: repro.WireFromMail(gen.SpamMessage(rng)), Spam: true}, &learned)
	var flushed repro.FlushResponse
	post(client, ts.URL+"/admin/flush", struct{}{}, &flushed)
	fmt.Printf("learn+flush: queued=%v, now serving generation %d\n",
		learned.Queued, flushed.Generation)

	// 4. A dictionary-style flood: thousands of distinct tokens. The
	// flood gate rejects it before it can touch the filter.
	words := make([]string, 3000)
	for i := range words {
		words[i] = fmt.Sprintf("flood%03d", i)
	}
	flood := &repro.Message{Body: strings.Join(words, " ")}
	post(client, ts.URL+"/learn", repro.LearnRequest{Message: repro.WireFromMail(flood), Spam: true}, nil)
	post(client, ts.URL+"/admin/flush", struct{}{}, &flushed)
	adm := guarded.Stats().Admission
	fmt.Printf("flood submission: admission vetted %d (admitted %d, rejected %d)\n",
		adm.Vetted, adm.Admitted, adm.Rejected)

	// 5. Save, train past the snapshot, resume in place.
	var saved repro.SaveResponse
	post(client, ts.URL+"/admin/save", struct{}{}, &saved)
	post(client, ts.URL+"/learn",
		repro.LearnRequest{Message: repro.WireFromMail(gen.HamMessage(rng)), Spam: false}, nil)
	post(client, ts.URL+"/admin/flush", struct{}{}, &flushed)
	var resumed repro.ResumeResponse
	post(client, ts.URL+"/admin/resume", struct{}{}, &resumed)
	fmt.Printf("save/resume: snapshot generation %d restored, serving generation %d (admission state loaded: %v)\n",
		resumed.SnapshotGeneration, resumed.Generation, resumed.AdmissionLoaded)

	stats := srv.Stats()
	fmt.Printf("server counters: classified %d, trained %d, publishes %d, shed %d\n",
		stats.Classified, stats.Trained, stats.Publishes, stats.LearnShed)

	// 6. A fleet: three recipient-hashed shards, each bootstrapped on
	// its own slice of the corpus, behind one guard and one server.
	parts := repro.PartitionByShardKey(gen.Corpus(rng, 150, 150), 3, nil)
	shards := make([]repro.Classifier, len(parts))
	for i := range shards {
		if shards[i], err = repro.NewClassifier("sbayes"); err != nil {
			log.Fatal(err)
		}
		repro.TrainClassifier(shards[i], parts[i])
	}
	fleet := repro.NewGuarded(
		repro.NewSharded(shards, repro.EngineConfig{Name: "fleet"}),
		chain,
		repro.GuardedConfig{Quarantine: repro.NewQuarantine(repro.QuarantineConfig{Capacity: 64})},
	)
	fsrv := repro.NewHTTPServer(fleet, repro.HTTPServerConfig{Store: store, Name: "fleet"})
	defer fsrv.Close()
	fts := httptest.NewServer(fsrv)
	defer fts.Close()
	post(fts.Client(), fts.URL+"/admin/save", struct{}{}, &saved)
	post(fts.Client(), fts.URL+"/admin/resume", struct{}{}, &resumed)
	fmt.Printf("fleet save/resume: shard generations %v saved, resumed in place at generation %d (admission state loaded: %v)\n",
		saved.Generations, resumed.Generation, resumed.AdmissionLoaded)
}

// post sends v as JSON and decodes the response into out when non-nil.
func post(client *http.Client, url string, v any, out any) {
	body, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatalf("decoding %s: %v", url, err)
		}
	}
}
