// Durable serving walkthrough: the serving layer's snapshot
// persistence, end to end.
//
// A deployment that retrains continuously must also survive restarts
// — without losing the generations it published, and without
// silently resurrecting state an operator scrubbed. This example
// shows the three layers of that story:
//
//  1. One engine: save generation-stamped snapshots as retrains
//     publish, kill the engine, resume from the newest valid
//     generation — and watch resume fall back past a corrupted file
//     instead of failing (or worse, loading it: every snapshot is
//     checksummed).
//
//  2. A sharded fleet: each save is one record of every shard at the
//     fleet's one generation, written in one store write; when the
//     newest record is corrupted, the whole fleet resumes from the
//     previous one, so no shard serves a different generation than its
//     peers.
//
//  3. The online deployment simulator in durable mode: checkpoint
//     every retrain, crash mid-simulation, and verify users cannot
//     tell — then checkpoint too rarely and watch the restart rewind
//     the filter to an old generation.
//
//     go run ./examples/persistence
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/scenario"
)

func main() {
	gen, err := repro.NewGenerator()
	if err != nil {
		log.Fatal(err)
	}
	rng := repro.NewRNG(11)

	dir, err := os.MkdirTemp("", "repro-snapshots-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := repro.NewDirSnapshotStore(dir)
	if err != nil {
		log.Fatal(err)
	}

	// ---- 1. One engine's generation line, across a restart. ----
	week1 := gen.Corpus(rng, 400, 400)
	eng := repro.NewEngine(repro.TrainFilter(week1, repro.DefaultFilterOptions(), nil), repro.EngineConfig{Name: "prod"})
	if _, err := repro.SaveEngine(st, "prod", eng); err != nil {
		log.Fatal(err)
	}
	// Two more weekly retrains, each published and persisted.
	store := week1
	for week := 2; week <= 3; week++ {
		store.Append(gen.Corpus(rng, 200, 200))
		next := repro.TrainFilter(store, repro.DefaultFilterOptions(), nil)
		eng.Swap(next) //sbvet:unguarded example: checkpoint walkthrough publishes operator-built snapshots, no third-party training
		g, err := repro.SaveEngine(st, "prod", eng)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("week %d: published and persisted generation %d\n", week, g)
	}

	probe := gen.Corpus(rng.Split("probe"), 30, 30)
	served, _ := eng.Snapshot()
	before := repro.EvaluateBatch(served, probe, 0)

	// "Crash": drop the engine, resume from disk.
	eng = nil
	resumed, env, err := repro.ResumeEngine(st, "prod", 1, repro.EngineConfig{Name: "prod"})
	if err != nil {
		log.Fatal(err)
	}
	restored, _ := resumed.Snapshot()
	after := repro.EvaluateBatch(restored, probe, 0)
	fmt.Printf("restart resumed %s generation %d; probe confusion identical: %v\n",
		env.Backend, env.Generation, before == after)

	// Corrupt the newest snapshot on disk: the checksum rejects it
	// and resume falls back one generation instead of serving it.
	data, err := st.Read("prod", env.Generation)
	if err != nil {
		log.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := st.Write("prod", env.Generation, data); err != nil {
		log.Fatal(err)
	}
	if _, fallback, err := repro.ResumeEngine(st, "prod", 1, repro.EngineConfig{}); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("newest snapshot corrupted on disk -> resume fell back to generation %d\n\n", fallback.Generation)
	}

	// ---- 2. A sharded fleet: one generation, one record per save. ----
	base := repro.TrainFilter(week1, repro.DefaultFilterOptions(), nil)
	clones := func() []repro.Classifier {
		clfs := make([]repro.Classifier, 4)
		for i := range clfs {
			clfs[i] = base.Clone()
		}
		return clfs
	}
	fleet := repro.NewSharded(clones(), repro.EngineConfig{Name: "fleet", Workers: 2})
	if _, err := repro.SaveEngine(st, "fleet", fleet); err != nil {
		log.Fatal(err)
	}
	// One fleet publish replaces every shard at once, and the next
	// checkpoint writes one record of every shard at the new
	// generation.
	fleet.Swap(clones()...) //sbvet:unguarded example: checkpoint walkthrough publishes operator-built snapshots, no third-party training
	saved, err := repro.SaveEngine(st, "fleet", fleet)
	if err != nil {
		log.Fatal(err)
	}
	// Bit rot in the newest record: its checksum no longer matches, so
	// the whole fleet resumes one generation back rather than serving
	// any shard from a damaged save.
	data, err = st.Read("fleet", saved)
	if err != nil {
		log.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := st.Write("fleet", saved, data); err != nil {
		log.Fatal(err)
	}
	fleet = nil
	restoredFleet, _, err := repro.ResumeEngine(st, "fleet", 4, repro.EngineConfig{Name: "fleet", Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet saved generation %d as one record; record corrupted -> all %d shards resumed at generation %d\n\n",
		saved, restoredFleet.NumShards(), restoredFleet.Generation())

	// ---- 3. The durable online deployment, crash included. ----
	cfg := scenario.DefaultConfig()
	cfg.Weeks = 6
	cfg.InitialMailStore = 1500
	cfg.MessagesPerWeek = 600
	cfg.RetrainLag = cfg.MessagesPerWeek / 3
	cfg.Attack = nil

	run := func(name string, mutate func(*scenario.Config)) *scenario.OnlineResult {
		c := cfg
		mutate(&c)
		res, err := scenario.RunOnline(gen, c, repro.NewRNG(99))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s ==\n%s\n", name, res.Render())
		return res
	}

	clean := run("no crash", func(c *scenario.Config) {})
	durable := run("crash at week 3, checkpoint every retrain", func(c *scenario.Config) {
		c.Checkpoints = repro.NewMemSnapshotStore()
		c.CrashAtWeek = 3
	})
	identical := true
	for i := range clean.Weeks {
		if clean.Weeks[i].Delivered != durable.Weeks[i].Delivered {
			identical = false
		}
	}
	fmt.Printf("every week's at-delivery confusion identical to the uncrashed run: %v\n\n", identical)

	run("crash at week 3, checkpointing only every 4th retrain", func(c *scenario.Config) {
		c.Checkpoints = repro.NewMemSnapshotStore()
		c.CheckpointEvery = 4
		c.CrashAtWeek = 3
	})

	fmt.Println("Read the gen columns: with a checkpoint per retrain the restart")
	fmt.Println("(the * week) resumes the very generation that was serving and")
	fmt.Println("users never notice. Checkpoint too rarely and the restart rewinds")
	fmt.Println("to the last persisted generation — the filter forgets retrains it")
	fmt.Println("already served, which is exactly the provenance gap an attacker")
	fmt.Println("who poisons between checkpoints would exploit.")
}
