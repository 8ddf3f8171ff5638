// Command benchab is the before/after of the repo benchmark: it runs
// every workload of BENCHMARK.json on a parent revision and on the
// working tree, alternating, and prints for each end-to-end metric
// both sides' medians and quartiles, the change's wins out of the
// pairs, and a verdict against the metric's bound.
//
// Usage, from anywhere in the repository (make ab wraps it):
//
//	go run ./cmd/benchab -parent HEAD~1 [-seed 1] [-workload feedback_under_attack]
//
// The parent is checked out, offline, with git worktree under
// .bench_build/ and removed afterwards; the change side is the working
// tree as it stands. Each workload runs its BENCHMARK.json command
//
//	bash benchmark/run.sh --workload W --seed SEED --seconds S --trace 0
//
// at the file's run_seconds, 10 times per side, the side going first
// alternating from pair to pair so drift on a shared host falls on
// both. Every run — its host line, correct, attempted and failed, and
// its metrics — is printed as it finishes and appended to
// .bench_build/ab/<workload>-seed<SEED>.ndjson. A run that fails or
// reports "correct":false is reported and counted, never dropped; the
// command exits 1 if any did.
//
// Verdicts, per metric (better and bound from BENCHMARK.json):
//
//	gain          the change won at least 9 of 10 pairs and its median
//	              beats the parent's by more than the parent's
//	              interquartile range
//	unresolved    the parent's interquartile range is wider than the
//	              bound (relative to its median), and not every change
//	              run is better than every parent run
//	worse         the change's median is worse than the parent's by
//	              more than the bound
//	within bound  none of the above
//
// Quartiles interpolate linearly between order statistics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// pairs is the number of parent/change pairs per workload.
const pairs = 10

// benchmarkFile is the part of BENCHMARK.json benchab reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// metricSpec is one end-to-end metric and its bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // the largest tolerated relative loss
}

// result is the last line a benchmark run prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// run is one benchmark invocation on one side.
type run struct {
	Workload string          `json:"workload"`
	Seed     uint64          `json:"seed"`
	Pair     int             `json:"pair"`
	Side     string          `json:"side"` // "parent" or "change"
	First    bool            `json:"first"`
	Host     json.RawMessage `json:"host,omitempty"`
	Result   *result         `json:"result,omitempty"`
	Err      string          `json:"error,omitempty"`
}

// ok reports whether the run finished and every check held.
func (r *run) ok() bool { return r.Result != nil && r.Result.Correct && r.Result.Failed == 0 }

func main() {
	parent := flag.String("parent", "", "the revision to compare the working tree against (required)")
	seed := flag.Uint64("seed", 1, "workload seed")
	workload := flag.String("workload", "", "one workload of BENCHMARK.json (default: all)")
	flag.Parse()
	if *parent == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchab -parent REV [-seed N] [-workload W]")
		os.Exit(2)
	}
	bad, err := compare(*parent, *seed, *workload, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchab: %d run(s) failed or reported incorrect results\n", bad)
		os.Exit(1)
	}
}

// compare runs the pairs and prints the report, returning the number
// of runs that failed or reported incorrect results.
func compare(parent string, seed uint64, only string, out io.Writer) (bad int, err error) {
	top, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return 0, err
	}
	data, err := os.ReadFile(filepath.Join(top, "BENCHMARK.json"))
	if err != nil {
		return 0, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return 0, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var workloads []string
	for _, w := range bf.Workloads {
		if only == "" || only == w.Name {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return 0, fmt.Errorf("no workload %q in BENCHMARK.json", only)
	}
	if len(bf.Command) == 0 || bf.RunSeconds < 1 {
		return 0, errors.New("BENCHMARK.json names no command or run_seconds")
	}
	rev, err := git(top, "rev-parse", "--verify", parent+"^{commit}")
	if err != nil {
		return 0, err
	}

	// The children share the terminal's process group, so an interrupt
	// reaches them directly; benchab waits for the run in flight and
	// removes the worktree before it exits.
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt)
	defer signal.Stop(interrupted)

	tree := filepath.Join(top, ".bench_build", "ab-parent")
	git(top, "worktree", "remove", "--force", tree) // a leftover of an interrupted run
	if _, err := git(top, "worktree", "add", "--detach", tree, rev); err != nil {
		return 0, err
	}
	defer git(top, "worktree", "remove", "--force", tree)
	logDir := filepath.Join(top, ".bench_build", "ab")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return 0, err
	}
	fmt.Fprintf(out, "benchab: parent %s (%s) vs the working tree, seed %d, %d pairs of %d s runs\n",
		parent, rev[:12], seed, pairs, bf.RunSeconds)

	dirs := map[string]string{"parent": tree, "change": top}
	for _, w := range workloads {
		logf, err := os.Create(filepath.Join(logDir, fmt.Sprintf("%s-seed%d.ndjson", w, seed)))
		if err != nil {
			return bad, err
		}
		var runs []run
		for p := 0; p < pairs; p++ {
			order := []string{"parent", "change"}
			if p%2 == 1 {
				order = []string{"change", "parent"}
			}
			for i, side := range order {
				r := run{Workload: w, Seed: seed, Pair: p, Side: side, First: i == 0}
				args := append(slices.Clone(bf.Command[1:]), "--workload", w, "--seed", strconv.FormatUint(seed, 10),
					"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
				r.Host, r.Result, err = invoke(dirs[side], bf.Command[0], args)
				if err != nil {
					r.Err = err.Error()
				}
				if !r.ok() {
					bad++
				}
				runs = append(runs, r)
				line, _ := json.Marshal(r)
				fmt.Fprintf(logf, "%s\n", line)
				fmt.Fprintln(out, describe(&r, bf.EndToEnd))
				select {
				case <-interrupted:
					logf.Close()
					return bad, errors.New("interrupted")
				default:
				}
			}
		}
		if err := logf.Close(); err != nil {
			return bad, err
		}
		report(out, w, runs, bf.EndToEnd)
	}
	return bad, nil
}

// invoke runs the benchmark command in dir and returns its host line
// and its last line.
func invoke(dir, name string, args []string) (json.RawMessage, *result, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var host json.RawMessage
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if h, ok := strings.CutPrefix(line, "host "); ok && json.Valid([]byte(h)) {
			host = json.RawMessage(h)
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if i := strings.LastIndexByte(msg, '\n'); i >= 0 {
			msg = msg[i+1:]
		}
		return host, nil, fmt.Errorf("%v: %s", err, msg)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return host, nil, fmt.Errorf("last line is no result: %q", last)
	}
	return host, &res, nil
}

// describe is one run's progress line.
func describe(r *run, metrics []metricSpec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s pair %d %s:", r.Workload, r.Pair, r.Side)
	if r.Result == nil {
		fmt.Fprintf(&b, " FAILED: %s", r.Err)
		return b.String()
	}
	fmt.Fprintf(&b, " correct=%t attempted=%d failed=%d", r.Result.Correct, r.Result.Attempted, r.Result.Failed)
	for _, m := range metrics {
		if v, ok := r.Result.Metrics[m.Name]; ok {
			fmt.Fprintf(&b, " %s=%.4g", m.Name, v.Value)
		}
	}
	if !r.ok() {
		b.WriteString(" INCORRECT")
	}
	return b.String()
}

// report prints one workload's table.
func report(out io.Writer, workload string, runs []run, metrics []metricSpec) {
	fmt.Fprintf(out, "\n== %s ==\n", workload)
	for _, r := range runs {
		if len(r.Host) > 0 {
			fmt.Fprintf(out, "host %s\n", r.Host)
			break
		}
	}
	for _, side := range []string{"parent", "change"} {
		n, bad := 0, 0
		for _, r := range runs {
			if r.Side == side {
				n++
				if !r.ok() {
					bad++
				}
			}
		}
		fmt.Fprintf(out, "%s: %d runs, %d failed or incorrect\n", side, n, bad)
	}
	fmt.Fprintf(out, "%-18s %11s %23s %11s %23s %8s %6s  %s\n",
		"metric", "parent p50", "parent q1–q3", "change p50", "change q1–q3", "delta", "wins", "verdict")
	for _, m := range metrics {
		var par, chg []float64
		// A pair missing a value, from a failed run, counts as lost.
		wins := 0
		for p := 0; p < pairs; p++ {
			pv, pok := value(runs, p, "parent", m.Name)
			cv, cok := value(runs, p, "change", m.Name)
			if pok {
				par = append(par, pv)
			}
			if cok {
				chg = append(chg, cv)
			}
			if pok && cok && better(m.Better, cv, pv) {
				wins++
			}
		}
		if len(par) == 0 || len(chg) == 0 {
			fmt.Fprintf(out, "%-18s no values\n", m.Name)
			continue
		}
		ps, cs := summarize(par), summarize(chg)
		fmt.Fprintf(out, "%-18s %11.4g %23s %11.4g %23s %+7.1f%% %3d/%-2d  %s\n",
			m.Name, ps.median, fmt.Sprintf("%.4g–%.4g", ps.q1, ps.q3), cs.median, fmt.Sprintf("%.4g–%.4g", cs.q1, cs.q3),
			100*(cs.median-ps.median)/ps.median, wins, pairs, judge(ps, cs, wins, pairs, m))
	}
}

// value is one side's value of a metric in one pair.
func value(runs []run, pair int, side, metric string) (float64, bool) {
	for _, r := range runs {
		if r.Pair == pair && r.Side == side && r.Result != nil {
			v, ok := r.Result.Metrics[metric]
			return v.Value, ok
		}
	}
	return 0, false
}

// better reports whether a is better than b in the metric's direction.
func better(direction string, a, b float64) bool {
	if direction == "lower" {
		return a < b
	}
	return a > b
}

// summary is a sample's extremes, median and quartiles.
type summary struct{ lo, q1, median, q3, hi float64 }

func summarize(xs []float64) summary {
	s := slices.Sorted(slices.Values(xs))
	return summary{s[0], quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75), s[len(s)-1]}
}

// quantile interpolates linearly between the order statistics of the
// sorted sample s.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// judge is a metric's verdict: the change won wins of pairs pairs,
// and parent and change summarize each side's runs.
func judge(parent, change summary, wins, pairs int, m metricSpec) string {
	iqr := parent.q3 - parent.q1
	if wins*10 >= pairs*9 && better(m.Better, change.median, parent.median) &&
		math.Abs(change.median-parent.median) > iqr {
		return "gain"
	}
	apart := better(m.Better, change.lo, parent.hi)
	if m.Better == "lower" {
		apart = better(m.Better, change.hi, parent.lo)
	}
	if spread(iqr, parent.median) > m.Bound && !apart {
		return "unresolved"
	}
	limit := parent.median * (1 + m.Bound)
	if m.Better == "higher" {
		limit = parent.median * (1 - m.Bound)
	}
	if better(m.Better, limit, change.median) {
		return "worse"
	}
	return "within bound"
}

// spread is an interquartile range relative to its median.
func spread(iqr, median float64) float64 {
	switch {
	case iqr == 0:
		return 0
	case median == 0:
		return math.Inf(1)
	}
	return math.Abs(iqr / median)
}

// git runs git in dir (the current directory if empty) and returns
// its trimmed standard output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}
