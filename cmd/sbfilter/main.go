// Command sbfilter is a standalone statistical spam filter over mbox
// archives: train a token database, classify messages, or score a
// single message from stdin — the filter a downstream user would
// actually deploy (and the system the paper attacks).
//
// The learner is pluggable: -backend selects any registered engine
// backend (sbayes, graham), and classification fans out across a
// worker pool (-j) through the batch-scoring engine.
//
// Alongside the raw -db token-database files, the save/resume pair
// speaks the serving layer's durable snapshot format: save trains a
// filter and publishes it as the next generation of a snapshot
// directory (generation-stamped, checksummed, atomically written),
// and resume restores the newest valid generation — the stored
// envelope names its own backend, so resume needs no -backend flag.
//
// Usage:
//
//	sbfilter train    [-backend B] -db FILE -ham HAM.mbox -spam SPAM.mbox
//	sbfilter classify [-backend B] [-j N] -db FILE MBOX...
//	sbfilter score    [-backend B] -db FILE      (one message on stdin)
//	sbfilter info     [-backend B] -db FILE
//	sbfilter save     [-backend B] [-name N] [-keep K] -dir DIR -ham HAM.mbox -spam SPAM.mbox
//	sbfilter resume   [-name N] [-j N] -dir DIR [MBOX...]
//	sbfilter backends
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/sbayes"

	// Register the backends sbfilter does not otherwise import.
	_ "repro/internal/graham"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "train":
		err = cmdTrain(args)
	case "classify":
		err = cmdClassify(args)
	case "score":
		err = cmdScore(args)
	case "info":
		err = cmdInfo(args)
	case "save":
		err = cmdSave(args)
	case "resume":
		err = cmdResume(args)
	case "backends":
		err = cmdBackends()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbfilter: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  sbfilter train    [-backend B] -db FILE -ham HAM.mbox -spam SPAM.mbox
  sbfilter classify [-backend B] [-j N] -db FILE MBOX...
  sbfilter score    [-backend B] -db FILE      (reads one message from stdin)
  sbfilter info     [-backend B] -db FILE
  sbfilter save     [-backend B] [-name N] [-keep K] -dir DIR -ham HAM.mbox -spam SPAM.mbox
  sbfilter resume   [-name N] [-j N] -dir DIR [MBOX...]
  sbfilter backends

Backends: %s (default sbayes).
`, strings.Join(engine.Backends(), ", "))
}

// backendFlag adds the -backend flag to a flag set.
func backendFlag(fs *flag.FlagSet) *string {
	return fs.String("backend", "sbayes", "learner backend ("+strings.Join(engine.Backends(), "|")+")")
}

// newClassifier constructs a fresh classifier for a backend name.
func newClassifier(backend string) (engine.Classifier, error) {
	b, err := engine.Lookup(backend)
	if err != nil {
		return nil, err
	}
	return b.New(), nil
}

// loadMbox reads every message of an mbox file.
func loadMbox(path string) ([]*mail.Message, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mail.NewMboxReader(f).ReadAll()
}

// loadDB constructs a backend classifier and restores its database.
func loadDB(path, backend string) (engine.Classifier, error) {
	clf, err := newClassifier(backend)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := clf.Load(f); err != nil {
		return nil, err
	}
	return clf, nil
}

func cmdBackends() error {
	for _, name := range engine.Backends() {
		b, err := engine.Lookup(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %s\n", b.Name, b.Doc)
	}
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	backend := backendFlag(fs)
	db := fs.String("db", "", "token database file to write")
	hamPath := fs.String("ham", "", "mbox of ham training messages")
	spamPath := fs.String("spam", "", "mbox of spam training messages")
	fs.Parse(args)
	if *db == "" || *hamPath == "" || *spamPath == "" {
		return fmt.Errorf("train needs -db, -ham and -spam")
	}
	clf, trained, err := trainFromMboxes(*backend, *hamPath, *spamPath)
	if err != nil {
		return err
	}
	out, err := os.Create(*db)
	if err != nil {
		return err
	}
	if err := clf.Save(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	ns, nh := clf.Counts()
	fmt.Printf("trained %s on %d messages (%d ham + %d spam) -> %s\n", *backend, trained, nh, ns, *db)
	return nil
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	backend := backendFlag(fs)
	db := fs.String("db", "", "token database file")
	workers := fs.Int("j", runtime.GOMAXPROCS(0), "batch-classification parallelism")
	fs.Parse(args)
	if *db == "" || fs.NArg() == 0 {
		return fmt.Errorf("classify needs -db and at least one mbox")
	}
	clf, err := loadDB(*db, *backend)
	if err != nil {
		return err
	}
	eng := engine.New(clf, engine.Config{Name: *backend, Workers: *workers})
	return classifyMboxes(eng, fs.Args(),
		fmt.Sprintf("%d workers", eng.Workers()))
}

// classifyMboxes scores each mbox through the engine and prints one
// verdict line per message plus a totals line — the shared output
// path of classify and resume. One batch call per mbox: the worker
// pool scores each archive in parallel while only one archive is
// resident, and output streams between archives in input order. The
// extra string is appended into the totals line (worker count,
// resumed generation).
func classifyMboxes(eng *engine.Engine, paths []string, extra string) error {
	counts := map[engine.Label]int{}
	for _, path := range paths {
		msgs, err := loadMbox(path)
		if err != nil {
			return err
		}
		results, err := eng.ClassifyBatch(context.Background(), msgs)
		if err != nil {
			return err
		}
		for i, res := range results {
			counts[res.Label]++
			subject := msgs[i].Subject()
			if len(subject) > 40 {
				subject = subject[:40]
			}
			fmt.Printf("%s:%d\t%-6s\t%.4f\t%s\n", path, i, res.Label, res.Score, subject)
		}
	}
	stats := eng.Stats()
	fmt.Printf("totals: %d ham, %d unsure, %d spam (%d msgs, %s, %v)\n",
		counts[engine.Ham], counts[engine.Unsure], counts[engine.Spam],
		stats.Classified, extra, stats.BatchLatency.Round(time.Microsecond))
	return nil
}

func cmdScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ExitOnError)
	backend := backendFlag(fs)
	db := fs.String("db", "", "token database file")
	explain := fs.Bool("explain", false, "print per-token clues (sbayes only)")
	fs.Parse(args)
	if *db == "" {
		return fmt.Errorf("score needs -db")
	}
	clf, err := loadDB(*db, *backend)
	if err != nil {
		return err
	}
	f, isSBayes := clf.(*sbayes.Filter)
	if *explain && !isSBayes {
		return fmt.Errorf("-explain is only available for the sbayes backend")
	}
	msg, err := mail.Parse(os.Stdin)
	if err != nil {
		return err
	}
	label, score := clf.Classify(msg)
	fmt.Printf("%s\t%.4f\n", label, score)
	if *explain {
		for _, c := range f.Explain(msg) {
			marker := " "
			if c.Used {
				marker = "*"
			}
			fmt.Printf("%s %.4f %s\n", marker, c.Score, c.Token)
		}
	}
	return nil
}

// trainFromMboxes builds a fresh backend classifier and trains it on
// the operator's labeled mboxes, ham first, before anything serves it
// — the shared training path of train and save.
func trainFromMboxes(backend, hamPath, spamPath string) (engine.Classifier, int, error) {
	clf, err := newClassifier(backend)
	if err != nil {
		return nil, 0, err
	}
	ham, err := loadMbox(hamPath)
	if err != nil {
		return nil, 0, err
	}
	spam, err := loadMbox(spamPath)
	if err != nil {
		return nil, 0, err
	}
	for i, m := range append(ham, spam...) {
		clf.Learn(m, i >= len(ham)) //sbvet:unguarded operator-initiated bootstrap from local mboxes the operator labeled; admission vets third-party reports, not the operator
	}
	return clf, len(ham) + len(spam), nil
}

// cmdSave trains a filter on the given mboxes and publishes it as the
// next generation of the snapshot directory: if the store already
// holds a valid generation line the new snapshot continues it
// (generation+1), otherwise the line starts at 1. -keep prunes the
// directory down to the K newest generations afterward.
func cmdSave(args []string) error {
	fs := flag.NewFlagSet("save", flag.ExitOnError)
	backend := backendFlag(fs)
	dir := fs.String("dir", "", "snapshot directory")
	name := fs.String("name", "sbfilter", "snapshot line name within the directory")
	keep := fs.Int("keep", 0, "prune to the K newest generations after saving (0 keeps all)")
	hamPath := fs.String("ham", "", "mbox of ham training messages")
	spamPath := fs.String("spam", "", "mbox of spam training messages")
	fs.Parse(args)
	if *dir == "" || *hamPath == "" || *spamPath == "" {
		return fmt.Errorf("save needs -dir, -ham and -spam")
	}
	// Check the line before the (potentially long) training pass:
	// continue an existing generation line (reading only the newest
	// envelope's stamp, not the whole database); an empty store starts
	// at 1. A store that holds generations but none that validates is
	// an error — starting over would overwrite the line's history —
	// and so is a line written by a different backend.
	st, err := engine.NewDirStore(*dir)
	if err != nil {
		return err
	}
	gens, err := st.Generations(*name)
	if err != nil {
		return err
	}
	next := uint64(1)
	if len(gens) > 0 {
		env, err := engine.LatestEnvelope(st, *name)
		if err != nil {
			return fmt.Errorf("refusing to restart line %q in %s: %w", *name, *dir, err)
		}
		if env.Backend != *backend {
			return fmt.Errorf("line %q in %s is a %s line; refusing to append a %s snapshot (use another -name)",
				*name, *dir, env.Backend, *backend)
		}
		next = env.Generation + 1
	}
	clf, trained, err := trainFromMboxes(*backend, *hamPath, *spamPath)
	if err != nil {
		return err
	}
	eng := engine.NewAt(clf, next, engine.Config{Name: *name})
	gen, err := engine.SaveEngine(st, *name, eng)
	if err != nil {
		return err
	}
	if *keep > 0 {
		if _, err := engine.Prune(st, *name, *keep); err != nil {
			return err
		}
	}
	ns, nh := clf.Counts()
	fmt.Printf("saved %s generation %d (%d messages: %d ham + %d spam) -> %s\n",
		*backend, gen, trained, nh, ns, *dir)
	return nil
}

// cmdResume restores the newest valid generation of a snapshot
// directory — the stored envelope names its backend, so no -backend
// flag — and either reports it (no mboxes) or classifies the given
// mboxes with it.
func cmdResume(args []string) error {
	fs := flag.NewFlagSet("resume", flag.ExitOnError)
	dir := fs.String("dir", "", "snapshot directory")
	name := fs.String("name", "sbfilter", "snapshot line name within the directory")
	workers := fs.Int("j", runtime.GOMAXPROCS(0), "batch-classification parallelism")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("resume needs -dir")
	}
	st, err := engine.NewDirStore(*dir)
	if err != nil {
		return err
	}
	eng, env, err := engine.ResumeEngine(st, *name, 1, engine.Config{Name: *name, Workers: *workers})
	if err != nil {
		return err
	}
	clf, _ := eng.Snapshot()
	ns, nh := clf.Counts()
	fmt.Printf("resumed %s generation %d (%d ham, %d spam trained)\n", env.Backend, env.Generation, nh, ns)
	if fs.NArg() == 0 {
		return nil
	}
	return classifyMboxes(eng, fs.Args(),
		fmt.Sprintf("generation %d", env.Generation))
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	backend := backendFlag(fs)
	db := fs.String("db", "", "token database file")
	fs.Parse(args)
	if *db == "" {
		return fmt.Errorf("info needs -db")
	}
	clf, err := loadDB(*db, *backend)
	if err != nil {
		return err
	}
	ns, nh := clf.Counts()
	fmt.Printf("backend:  %s\n", *backend)
	fmt.Printf("messages: %d ham, %d spam\n", nh, ns)
	fmt.Printf("tokens:   %d\n", clf.VocabSize())
	return nil
}
