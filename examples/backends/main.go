// Backends: the interface-first API — construct learners by name
// from the backend registry, train each before anything serves it,
// score a corpus across a worker pool, and watch the same
// dictionary attack poison every backend (at very different doses).
//
//	go run ./examples/backends
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	gen, err := repro.NewGenerator()
	if err != nil {
		log.Fatal(err)
	}
	rng := repro.NewRNG(42)

	// The registry knows every learner; a deployment picks one by
	// name, the attacks don't care which.
	fmt.Printf("registered backends: %v\n\n", repro.Backends())

	inbox := gen.Corpus(rng, 1000, 1000)
	test := gen.Corpus(rng, 200, 200)
	attack := repro.NewOptimalAttack(gen.Universe())
	attackMsg := attack.BuildAttack(rng)
	doses := []float64{0.001, 0.005, 0.02}

	// train builds a named backend and trains it on the inbox before
	// anything serves it.
	train := func(name string) repro.Classifier {
		clf, err := repro.NewClassifier(name)
		if err != nil {
			log.Fatal(err)
		}
		for _, ex := range inbox.Examples {
			clf.Learn(ex.Msg, ex.Spam) //sbvet:unguarded example: training an operator-labeled corpus, the pre-admission baseline
		}
		return clf
	}

	for _, name := range repro.Backends() {
		clf := train(name)
		baseline := repro.EvaluateBatch(clf, test, 4)
		fmt.Printf("%s: trained %d messages, baseline ham misclassified %.1f%%\n",
			name, inbox.Len(), 100*baseline.HamMisclassifiedRate())

		// The same Causative Availability attack at growing doses —
		// a fresh filter per dose, whatever the learner.
		for _, dose := range doses {
			clf := train(name)
			clf.LearnWeighted(attackMsg, true, repro.AttackSize(dose, inbox.Len())) //sbvet:unguarded example: the dictionary attack being demonstrated
			attacked := repro.EvaluateBatch(clf, test, 4)
			fmt.Printf("  %4.1f%% dictionary attack -> %5.1f%% ham misclassified\n",
				100*dose, 100*attacked.HamMisclassifiedRate())
		}
		fmt.Println()
	}

	fmt.Println("The attack poisons token statistics, so it transfers to any")
	fmt.Println("learner built on them. Graham's hard clamps and 15-token cap")
	fmt.Println("only buy a few multiples of dose over SpamBayes before the")
	fmt.Println("whole-universe dictionary overwhelms them too.")
}
