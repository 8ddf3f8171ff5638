// Command corpusgen materializes the synthetic data substitution to
// disk: a labeled email corpus (ham.mbox + spam.mbox) and the attack
// lexicons (aspell.txt, usenet.txt, optimal.txt), so they can be
// inspected or fed to cmd/sbfilter.
//
// Usage:
//
//	corpusgen -out DIR [-ham N] [-spam N] [-seed N] [-small]
//	          [-usenet-tokens N] [-usenet-k N] [-no-lexicons]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/lexicon"
	"repro/internal/stats"
	"repro/internal/textgen"
)

func main() {
	out := flag.String("out", "", "output directory (required)")
	nHam := flag.Int("ham", 1000, "ham messages to generate")
	nSpam := flag.Int("spam", 1000, "spam messages to generate")
	seed := flag.Uint64("seed", 1, "generation seed")
	small := flag.Bool("small", false, "use the scaled-down test universe")
	usenetTokens := flag.Int("usenet-tokens", 2_000_000, "usenet corpus sample size for the top-k lexicon")
	usenetK := flag.Int("usenet-k", 90_000, "usenet lexicon size")
	noLexicons := flag.Bool("no-lexicons", false, "skip writing lexicons")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "corpusgen: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	ucfg := textgen.DefaultUniverseConfig()
	if *small {
		ucfg = textgen.SmallUniverseConfig()
	}
	start := time.Now()
	u, err := textgen.NewUniverse(ucfg)
	if err != nil {
		fatal(err)
	}
	g, err := textgen.New(u, textgen.DefaultConfig())
	if err != nil {
		fatal(err)
	}
	r := stats.NewRNG(*seed)

	c := g.Corpus(r.Split("corpus"), *nHam, *nSpam)
	if err := c.SaveMboxPair(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d ham + %d spam to %s (%v)\n", c.NumHam(), c.NumSpam(), *out,
		time.Since(start).Round(time.Millisecond))

	if *noLexicons {
		return
	}
	writeLex := func(name string, lex *lexicon.Lexicon) {
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := lex.Save(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d words)\n", path, lex.Len())
	}
	asp := lexicon.Aspell(u)
	writeLex("aspell.txt", asp)
	writeLex("optimal.txt", lexicon.Optimal(u))
	k := *usenetK
	if *small && k > 1000 {
		k = 900
	}
	us := lexicon.UsenetFromGenerator(g, r.Split("usenet"), *usenetTokens, k)
	writeLex("usenet.txt", us)
	fmt.Printf("usenet/aspell overlap: %d words\n", us.Overlap(asp))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "corpusgen: %v\n", err)
	os.Exit(1)
}
