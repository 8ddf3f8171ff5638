package main

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/textgen"
)

// Each workload's foreground latency and throughput: the /classify
// stream on deliver and feedback_under_attack, one /classify/batch
// request on bulk_score. Throughput is verdicts per second on deliver
// and bulk_score and vetted learn submissions per second on
// feedback_under_attack (N over first submission to flush return).

// foreground returns the workload's foreground requests.
func foreground(o options, p *phase) []record {
	if o.workload == "bulk_score" {
		return p.batches
	}
	return p.classify
}

// latencies returns the foreground requests' latencies.
func latencies(o options, p *phase) []time.Duration {
	recs := foreground(o, p)
	out := make([]time.Duration, len(recs))
	for i, r := range recs {
		out[i] = r.latency()
	}
	return out
}

// throughput is the workload's headline rate.
func throughput(o options, p *phase) float64 {
	switch o.workload {
	case "feedback_under_attack":
		return float64(len(p.learn.recs)) / (p.learn.last - p.learn.first).Seconds()
	case "bulk_score":
		return float64(p.msgs()) / p.elapsed.Seconds()
	}
	ok := 0
	for _, r := range p.classify {
		if r.Status == http.StatusOK {
			ok++
		}
	}
	return float64(ok) / p.elapsed.Seconds()
}

// endToEnd computes the metrics a user of the daemon sees.
func endToEnd(o options, p *phase) (map[string]metric, error) {
	// The tail is printed, not gated: on a host whose hypervisor steals
	// a varying share of the CPUs, p90 and p99 move by a third or more
	// between runs of the same code, while the median holds within a
	// few percent.
	lat := sortedMs(latencies(o, p))
	p50, _ := percentile(lat, 0.50)
	p90, ok90 := percentile(lat, 0.90)
	p99, ok99 := percentile(lat, 0.99)
	if !ok90 {
		return nil, fmt.Errorf("%d foreground requests leave fewer than %d beyond p90: run longer", len(lat), minBeyond)
	}
	setups := make([]float64, len(p.setups))
	for i, s := range p.setups {
		setups[i] = s.Seconds()
	}
	fmt.Printf("latency: %d foreground requests, p50 %.4g ms, p90 %.4g ms", len(lat), p50, p90)
	if ok99 {
		fmt.Printf(", p99 %.4g ms", p99)
	}
	fmt.Printf("; %d set-ups\n", len(setups))
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"latency_p50_ms":   {p50, "ms"},
		"throughput_per_s": {throughput(o, p), "1/s"},
		"cpu_us_per_msg":   {perMsgUs(p.daemonCPU, p.msgs()), "us"},
		"peak_rss_mb":      {p.peakRSSMB, "MiB"},
	}, nil
}

// meanService is the foreground requests' mean time from send to
// response, in milliseconds.
func meanService(o options, p *phase) float64 {
	recs := foreground(o, p)
	var sum time.Duration
	for _, r := range recs {
		sum += r.End - r.Start
	}
	return ms(sum) / float64(max(len(recs), 1))
}

// headline is the number each workload's attribution table divides:
// the p50 /classify latency (ms) on deliver, the wall time per message
// (µs) on bulk_score, and the wall time per learn submission (ms) on
// feedback_under_attack.
func headline(o options, p *phase) float64 {
	switch o.workload {
	case "bulk_score":
		return 1e6 / throughput(o, p)
	case "feedback_under_attack":
		return 1e3 / throughput(o, p)
	}
	v, _ := percentile(sortedMs(latencies(o, p)), 0.50)
	return v
}

// layerRun is what replayLayers adds to the timing pass check ran.
type layerRun struct {
	learn learnSummary
	batch int // learn batch size the replay used
}

// allocSample bounds the alloc pass, which reads MemStats around every
// call.
const allocSample = 500

// replayLayers completes the replay of a traced phase: the classify
// path of feedback_under_attack (check replayed the other workloads'
// foreground already), the learn path, and the alloc pass.
func replayLayers(o options, gen *textgen.Generator, in *inputs, p *phase, rp *replay) (layerRun, error) {
	var lr layerRun
	if o.workload == "feedback_under_attack" {
		if _, err := rp.classifyPath(p.model, p.modelGen, in.classify); err != nil {
			return lr, err
		}
	}
	tok, _, err := streamPath(p.model)
	if err != nil {
		return lr, err
	}
	ds, err := rp.learnDecode(in.replayLearn)
	if err != nil {
		return lr, err
	}
	streams := rp.learnTokenize(tok, ds)
	// The daemon's learn consumer publishes whatever queued up to 64
	// examples; the replay batches by the daemon's measured average.
	lr.batch = 64
	d := delta{p.before.m, p.after.m}
	if pubs := d.value("serve_publishes_total"); pubs > 0 {
		lr.batch = min(max(int(d.value("serve_trained_total")/pubs+0.5), 1), 64)
	}
	if lr.learn, err = rp.learnPath(gen, p.model, ds, streams, lr.batch); err != nil {
		return lr, err
	}

	rp.allocMode = true
	defer func() { rp.allocMode = false }()
	switch o.workload {
	case "bulk_score":
		_, err = rp.batchPath(p.model, p.modelGen, in.batches[:1])
	default:
		_, err = rp.classifyPath(p.model, p.modelGen, in.classify[:min(allocSample, len(in.classify))])
	}
	if err != nil {
		return lr, err
	}
	if ds, err = rp.learnDecode(in.replayLearn[:min(allocSample, len(in.replayLearn))]); err != nil {
		return lr, err
	}
	rp.learnTokenize(tok, ds)
	rp.finish()
	return lr, nil
}

// paths names the replay path each layer metric reads: the foreground
// stream for the classify-side layers, and for the decode, build and
// tokenize layers whichever stream carries the workload's headline.
func paths(workload string) (score, head string) {
	switch workload {
	case "bulk_score":
		return "batch", "batch"
	case "feedback_under_attack":
		return "classify", "learn"
	}
	return "classify", "classify"
}

// perLayer computes the per-layer metrics of a traced run and renders
// its attribution table.
func perLayer(o options, in *inputs, base, p *phase, rp *replay, lr layerRun) (map[string]metric, string) {
	d := delta{p.before.m, p.after.m}
	score, hpath := paths(o.workload)
	L := rp.layer
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// loader
	var late []time.Duration
	for _, r := range foreground(o, p) {
		late = append(late, r.late())
	}
	lateP99, _ := percentile(sortedMs(late), 0.99)
	put("loader.late_p99_ms", lateP99, "ms")
	put("loader.cpu_us_per_msg", perMsgUs(p.loaderCPU, p.msgs()), "us")

	// serve
	route := func(r string) obs.Label { return obs.L("route", r) }
	classifyH := d.histMean("serve_request_seconds", route("classify")) * 1e3
	batchH := d.histMean("serve_request_seconds", route("classify_batch")) * 1e3
	var handlerSum float64
	for _, r := range []string{"classify", "classify_batch", "learn"} {
		_, sum := d.hist("serve_request_seconds", route(r))
		handlerSum += sum
	}
	put("serve.handler_us_per_msg", ratio(handlerSum, float64(p.msgs()))*1e6, "us")
	// Outside the handler: the foreground requests' mean round trip as
	// the loader saw it, from send to last byte, less the handler's mean
	// over the same requests (net/http, loopback, loader).
	outside := meanService(o, p) - classifyH
	if o.workload == "bulk_score" {
		outside = meanService(o, p) - batchH
	}
	put("serve.outside_mean_ms", outside, "ms")
	dec := L(hpath, "serve.decode")
	put("serve.decode_us_per_msg", dec.meanUs(), "us")
	put("serve.decode_allocs_per_msg", dec.allocsPer(), "count")
	put("serve.encode_us_per_msg", L(hpath, "serve.encode").meanUs(), "us")
	put("serve.request_bytes_per_msg", dec.bytesPer(), "bytes")
	pubs, trained := d.value("serve_publishes_total"), d.value("serve_trained_total")
	put("serve.publishes", pubs, "count")
	put("serve.trained_per_publish", ratio(trained, pubs), "count")

	// mail, tokenize
	put("mail.build_us_per_msg", L(hpath, "mail.build").meanUs(), "us")
	put("mail.allocs_per_msg", L(hpath, "mail.build").allocsPer(), "count")
	tk := L(hpath, "tokenize.stream")
	put("tokenize.stream_us_per_msg", tk.meanUs(), "us")
	put("tokenize.allocs_per_msg", tk.allocsPer(), "count")
	put("tokenize.tokens_per_msg", tk.tokensPer(), "count")

	// sbayes
	put("sbayes.score_us_per_msg", L(score, "sbayes.score").meanUs(), "us")
	put("sbayes.score_allocs_per_msg", L(score, "sbayes.score").allocsPer(), "count")
	put("sbayes.clone_us", L("learn", "sbayes.clone").meanUs(), "us")
	put("sbayes.learn_us_per_msg", L("learn", "sbayes.learn").meanUs(), "us")

	// engine
	el := obs.L("engine", "served")
	singleN, singleSum := d.hist("engine_classify_seconds", el)
	_, batchSum := d.hist("engine_batch_seconds", el)
	var verdicts float64
	for _, label := range []string{"ham", "unsure", "spam"} {
		verdicts += d.value("engine_classified_total", el, obs.L("label", label))
	}
	put("engine.us_per_msg", ratio(singleSum+batchSum, verdicts)*1e6, "us")
	batchPerMsg := ratio(batchSum, verdicts-singleN) * 1e6
	engSelf := L(score, "engine.classify").meanUs() - L(score, "engine.layers").meanUs()
	put("engine.self_us_per_msg", engSelf, "us")
	put("engine.retrain_incremental_ms", L("learn", "engine.retrain_incremental").meanUs()/1e3, "ms")

	// admission, core
	ra := obs.L("admitter", "roni")
	arrivals := d.value("admission_roni_arrivals_total", ra)
	put("admission.vet_us_per_msg", L("learn", "admission.vet").meanUs(), "us")
	put("admission.floodgate_us_per_msg", L("learn", "admission.floodgate").meanUs(), "us")
	put("admission.review_ms", L("learn", "admission.review").meanUs()/1e3, "ms")
	put("admission.probes", d.value("admission_roni_probes_total", ra), "count")
	put("admission.memo_hit_ratio", ratio(d.value("admission_roni_memo_hits_total", ra), arrivals), "ratio")
	put("admission.deferred_ratio", ratio(d.value("admission_roni_deferred_total", ra), arrivals), "ratio")
	var vetted float64
	for _, v := range []string{"accept", "quarantine", "reject"} {
		vetted += d.value("engine_admission_total", el, obs.L("verdict", v))
	}
	put("admission.admitted_ratio", ratio(d.value("engine_admission_total", el, obs.L("verdict", "accept")), vetted), "ratio")
	put("admission.released", d.value("admission_quarantine_released_total"), "count")
	put("admission.expired", d.value("admission_quarantine_expired_total"), "count")
	put("core.roni_impact_ms", L("learn", "core.roni_impact").meanUs()/1e3, "ms")

	// obs, runtime
	put("obs.scrape_ms", ms(p.after.dur), "ms")
	put("obs.scrape_bytes", float64(p.after.bytes), "bytes")
	var pause time.Duration
	for _, ev := range p.gc {
		pause += ev.pause
	}
	put("runtime.gc_cycles_per_1k_msgs", ratio(float64(len(p.gc))*1e3, float64(p.msgs())), "count")
	put("runtime.gc_pause_ms", ms(pause), "ms")

	head, hBase := headline(o, p), headline(o, base)
	put("trace.overhead_pct", (head-hBase)/hBase*100, "%")

	var rows []row
	switch o.workload {
	case "deliver":
		rows = []row{
			{"serve", "decode ClassifyRequest", L(score, "serve.decode").meanUs() / 1e3},
			{"mail", "WireMessage.Mail", L(score, "mail.build").meanUs() / 1e3},
			{"tokenize", "Tokenizer.Stream", L(score, "tokenize.stream").meanUs() / 1e3},
			{"sbayes", "ClassifyTokenStream", L(score, "sbayes.score").meanUs() / 1e3},
			{"engine", "Engine.Classify self", engSelf / 1e3},
			{"serve", "encode ClassifyResponse", L(score, "serve.encode").meanUs() / 1e3},
			{"net/http+loader", "headline - handler mean", head - classifyH},
		}
	case "bulk_score":
		w := float64(host(o, p).DaemonProcs)
		par := (L(score, "tokenize.stream").meanUs() + L(score, "sbayes.score").meanUs()) / w
		rows = []row{
			{"serve", "line decode (serial)", L(score, "serve.decode").meanUs()},
			{"mail", "WireMessage.Mail (serial)", L(score, "mail.build").meanUs()},
			{"tokenize", fmt.Sprintf("Tokenizer.Stream / %g workers", w), L(score, "tokenize.stream").meanUs() / w},
			{"sbayes", fmt.Sprintf("ClassifyTokenStream / %g workers", w), L(score, "sbayes.score").meanUs() / w},
			{"engine", "ClassifyBatch wall - tokenize - score", batchPerMsg - par},
			{"serve", "encode verdict (serial)", L(score, "serve.encode").meanUs()},
			{"net/http+loader", "(request mean - handler mean) / msgs", outside * 1e3 / batchLines},
		}
	case "feedback_under_attack":
		n := float64(len(in.replayLearn))
		per := func(a *layerAgg) float64 {
			if a == nil {
				return 0
			}
			return ms(a.total) / n
		}
		probe := ms(lr.learn.vetProbe+lr.learn.reviewProbe) / n
		review := per(L("learn", "admission.review"))
		rows = []row{
			{"tokenize", "Tokenizer.Stream before vetting", per(L("learn", "tokenize.stream"))},
			{"admission", "Guarded.VetStream excl. probes", per(L("learn", "admission.vet")) - ms(lr.learn.vetProbe)/n},
			{"core", "RONI impact probes (vet + review)", probe},
			{"admission", "Quarantine.Review excl. probes", review - ms(lr.learn.reviewProbe)/n},
			{"sbayes", "CloneClassifier", per(L("learn", "sbayes.clone"))},
			{"sbayes", "Learn admitted", per(L("learn", "sbayes.learn"))},
			{"engine", "publish excl. review", per(L("learn", "engine.publish")) - review},
		}
	}
	unit := map[string]string{"deliver": "ms (p50 /classify)", "bulk_score": "us per message", "feedback_under_attack": "ms per learn submission"}[o.workload]
	table := attribution(o.workload, head, unit, rows)
	table += fmt.Sprintf("tracing overhead: headline %.4g traced vs %.4g untraced (%+.1f%%)\n", head, hBase, (head-hBase)/hBase*100)
	if o.workload == "feedback_under_attack" {
		table += fmt.Sprintf("learn stream: %d submissions, %.3f replicated dictionary payloads; replay: %d batches of %d, %d admitted, %d probes (daemon: %v probes, %v publishes)\n",
			len(in.learn), replicatedShare(in.learn), lr.learn.batches, lr.batch, lr.learn.admitted, lr.learn.probes, m["admission.probes"].Value, pubs)
	}
	return m, table
}

// row is one line of an attribution table.
type row struct {
	layer, what string
	value       float64
}

// attribution renders each row's share of the headline and the
// unattributed remainder.
func attribution(workload string, head float64, unit string, rows []row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "attribution %s: headline %.4g %s\n", workload, head, unit)
	sum := 0.0
	for _, r := range rows {
		sum += r.value
		fmt.Fprintf(&b, "  %-16s %-40s %10.4g %6.1f%%\n", r.layer, r.what, r.value, 100*r.value/head)
	}
	rest := head - sum
	fmt.Fprintf(&b, "  %-16s %-40s %10.4g %6.1f%%\n", "unattributed", "headline - rows", rest, 100*rest/head)
	return b.String()
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
