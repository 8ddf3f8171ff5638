// Focused attack walkthrough (§3.3 of the paper): a malicious
// contractor wants the victim to never see a competitor's bid email.
// Knowing (part of) what that email will say, the attacker sends spam
// containing those words; once the victim's filter retrains, the bid
// goes to the spam folder.
//
//	go run ./examples/focusedattack
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
	rng := repro.NewRNG(11)

	// The victim's filter, trained on a clean 4,000-message inbox.
	inbox := gen.Corpus(rng, 2000, 2000)
	filter := repro.TrainFilter(inbox, repro.DefaultFilterOptions(), nil)

	// The target: a legitimate email the victim is about to receive.
	target := gen.HamMessage(rng)
	label, score := filter.Classify(target)
	fmt.Printf("target email %q\n", target.Subject())
	fmt.Printf("before attack: classified %s (score %.4f)\n\n", label, score)

	// The attacker guesses each word of the target with probability
	// p and sends 300 attack emails containing the guessed words,
	// headers copied from ordinary spam (§4.1).
	for _, p := range []float64{0.1, 0.3, 0.5, 0.9} {
		attack, err := repro.NewFocusedAttack(target, p, inbox.Spam())
		if err != nil {
			log.Fatal(err)
		}
		poisoned := filter.Clone()
		attackMsg := attack.BuildAttack(rng)
		poisoned.LearnWeighted(attackMsg, true, 300) //sbvet:unguarded example: the focused attack being demonstrated
		label, score := poisoned.Classify(target)
		fmt.Printf("guessing %3.0f%% of tokens: target now %-6s (score %.4f)\n",
			100*p, label, score)
	}

	// Why it works: guessed tokens' spam scores jump, the rest drift
	// slightly down (Figure 4).
	attack, err := repro.NewFocusedAttack(target, 0.5, inbox.Spam())
	if err != nil {
		log.Fatal(err)
	}
	attackMsg := attack.BuildAttack(rng)
	poisoned := filter.Clone()
	poisoned.LearnWeighted(attackMsg, true, 300) //sbvet:unguarded example: the focused attack being demonstrated

	included := map[string]bool{}
	//sbvet:retokenize exhibit inspects the attack payload's token set once, off the serving path
	ts := repro.DefaultTokenizer().Stream(attackMsg)
	for i := 0; i < ts.Len(); i++ {
		included[string(ts.At(i))] = true
	}
	fmt.Println("\ntoken score shifts (first few):")
	shown := 0
	for _, clue := range filter.Explain(target) {
		after := poisoned.TokenScore(clue.Token)
		tag := "excluded"
		if included[clue.Token] {
			tag = "INCLUDED"
		}
		fmt.Printf("  %-14s %s  f: %.3f -> %.3f\n", clue.Token, tag, clue.Score, after)
		if shown++; shown == 10 {
			break
		}
	}

	// Collateral damage is limited — other ham still gets through.
	other := gen.Corpus(rng, 200, 0)
	conf := repro.Evaluate(poisoned, other)
	fmt.Printf("\nunrelated fresh ham still classified ham: %.1f%% (the attack is surreptitious)\n",
		100*(1-conf.HamMisclassifiedRate()))
}
