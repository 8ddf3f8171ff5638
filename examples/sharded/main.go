// Sharded serving walkthrough: the serving layer scaled out the way
// a provider with a real user population runs it — one logical filter
// partitioned across N engine shards, routed by a hash of the
// recipient address, so every user's mail lands on (and trains)
// exactly one shard.
//
// Two properties fall out, and this example shows both:
//
//  1. Throughput: a batch is grouped by shard, fanned out across the
//     shards' worker pools, and restitched in input order, every
//     shard's slice scored against the one epoch the batch loaded
//     (BenchmarkShardedClassifyBatch measures the scaling).
//  2. Blast radius: a poisoning attack addressed to one victim (the
//     paper's §4.3 targeted setting) trains into only that user's
//     shard. The other shards keep serving clean verdicts, and the
//     per-shard stats/confusions make the containment visible — the
//     same dose spread across the population degrades everyone.
//
// A single engine is the one-shard fleet: with one shard the routing
// key is never called and the shard keeps the fleet's name, so the
// guard, the HTTP server, persistence and the simulator run one code
// path for every shard count. The walkthrough checks that a one-shard
// fleet gives exactly a single engine's verdicts.
//
//	go run ./examples/sharded
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/core"
	"repro/internal/scenario"
)

func main() {
	gen, err := repro.NewGenerator()
	if err != nil {
		log.Fatal(err)
	}
	rng := repro.NewRNG(7)

	// ---- 1. The sharded engine, hands on. ----
	// Four shards over one clean training corpus: each shard gets its
	// own classifier (clones of one trained filter), and batches route
	// by recipient hash.
	train := gen.Corpus(rng, 800, 800)
	base := repro.TrainFilter(train, repro.DefaultFilterOptions(), nil)
	clfs := make([]repro.Classifier, 4)
	for i := range clfs {
		clfs[i] = base.Clone()
	}
	sh := repro.NewSharded(clfs, repro.EngineConfig{Name: "walkthrough", Workers: 2})

	batch := gen.Corpus(rng, 64, 64)
	msgs := append(batch.Ham(), batch.Spam()...)
	for i, m := range msgs {
		m.Header.Set("To", fmt.Sprintf("user%d@corp.example", i%16))
	}
	results, err := sh.ClassifyBatch(context.Background(), msgs)
	if err != nil {
		log.Fatal(err)
	}
	spam := 0
	for _, res := range results {
		if res.Label == repro.Spam {
			spam++
		}
	}
	st := sh.Stats()
	fmt.Printf("scored %d messages across %d shards (%d flagged spam)\n",
		st.Classified, len(st.Shards), spam)
	for i, s := range st.Shards {
		fmt.Printf("  shard %d: %d classified, generation %d\n", i, s.Classified, s.Generation)
	}

	// The one-shard fleet against a plain engine over the same filter.
	one := repro.NewSharded([]repro.Classifier{base}, repro.EngineConfig{Name: "single"})
	single := repro.NewEngine(base, repro.EngineConfig{Name: "single"})
	same := 0
	for _, m := range msgs {
		if one.Classify(m) == single.Classify(m) {
			same++
		}
	}
	fmt.Printf("one-shard fleet %q agrees with a single engine on %d/%d messages\n\n",
		one.Stats().Shards[0].Name, same, len(msgs))

	// ---- 2. Targeted poison vs. spread poison, per-shard damage. ----
	cfg := scenario.DefaultConfig()
	cfg.Weeks = 6
	cfg.InitialMailStore = 1500
	cfg.MessagesPerWeek = 600
	cfg.AttackStartWeek = 3
	cfg.AttackFraction = 0.02
	cfg.RetrainLag = cfg.MessagesPerWeek / 3
	cfg.Shards = 4
	cfg.Recipients = 8
	attack := core.NewDictionaryAttack(repro.AspellLexicon(gen.Universe()))
	target := scenario.RecipientAddress(0)

	run := func(name string, mutate func(*scenario.Config)) {
		c := cfg
		mutate(&c)
		res, err := scenario.RunOnline(gen, c, repro.NewRNG(99))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s ==\n%s\n", name, res.Render())
	}

	run("clean sharded deployment", func(c *scenario.Config) {})
	run("dictionary attack aimed entirely at "+target, func(c *scenario.Config) {
		c.Attack = attack
		c.AttackRecipient = target
	})
	run("same dose spread across all 8 users", func(c *scenario.Config) {
		c.Attack = attack
	})

	fmt.Println("Read the per-shard tables: aimed at one user, the poison")
	fmt.Println("collapses a single shard (the * column) while the rest stay")
	fmt.Println("clean — sharding turned an organization-wide outage into one")
	fmt.Println("mailbox's outage. Spread across the population, the same dose")
	fmt.Println("degrades every shard at once.")
}
