package scenario

// Sharded online deployment (Config.Shards > 1): the §2.1 organization
// again, but served by one logical filter partitioned across the
// shards of one engine.Engine, routed by recipient hash. Every user's mail
// lands on — and trains — one shard, so an attacker who stamps their
// poison with a single victim's address (the sharded rendition of the
// paper's §4.3 targeted setting) degrades only that shard, and the
// per-shard at-delivery confusions make the blast radius measurable:
// target damage in one column, collateral damage (ideally none) in the
// rest. RunOnline runs both shapes through one body; the helpers here
// are what only a fleet needs — a closed recipient population, attack
// addressing, and the per-shard report table.

import (
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/mail"
	"repro/internal/stats"
)

// NumRecipients returns the effective sharded-mode user population
// size: Config.Recipients, defaulting to four users per shard.
func (c Config) NumRecipients() int {
	if c.Recipients > 0 {
		return c.Recipients
	}
	return 4 * c.Shards
}

// RecipientAddress returns sharded-mode user i's stamped address. The
// population is deterministic so traces are reproducible and configs
// can target a specific user by address (AttackRecipient).
func RecipientAddress(i int) string {
	return fmt.Sprintf("user%d@corp.example", i)
}

// TargetShard returns the shard index AttackRecipient's mail routes
// to, or -1 when the attack is untargeted or the config is unsharded.
func (c Config) TargetShard() int {
	if c.AttackRecipient == "" || c.Shards < 2 {
		return -1
	}
	return int(engine.AddressKey(c.AttackRecipient) % uint64(c.Shards))
}

// stampRecipients overwrites each message's To header with a uniform
// draw from the population. The generator synthesizes plausible To
// addresses already, but sharded mode needs a closed population so
// that each user accumulates a mail history on one shard.
func stampRecipients(c *corpus.Corpus, pop []string, wr *stats.RNG) {
	for _, ex := range c.Examples {
		ex.Msg.Header.Set("To", pop[wr.Intn(len(pop))])
	}
}

// addressAttack stamps the week's attack mail after injection.
// Targeted: every payload (shared across its replicated copies)
// carries the victim's address, so the whole dose trains into one
// shard. Untargeted: each injected copy is cloned and stamped with its
// own recipient, spreading the poison across the population like
// organic mail; the clones join the identity set so rejection
// attribution still matches by pointer.
func addressAttack(cfg Config, payloads []*mail.Message, attackSet map[*mail.Message]bool, weekly *corpus.Corpus, pop []string, wr *stats.RNG) {
	if cfg.AttackRecipient != "" {
		for _, m := range payloads {
			m.Header.Set("To", cfg.AttackRecipient)
		}
		return
	}
	if len(payloads) == 0 {
		return
	}
	for i, ex := range weekly.Examples {
		if !attackSet[ex.Msg] {
			continue
		}
		clone := ex.Msg.Clone()
		clone.Header.Set("To", pop[wr.Intn(len(pop))])
		weekly.Examples[i].Msg = clone
		attackSet[clone] = true
	}
}

// renderShardTable appends the per-shard at-delivery ham-loss matrix
// to an online trace: one row per week, one column per shard, with
// the targeted shard (if any) marked in the header.
func renderShardTable(b *strings.Builder, r *OnlineResult) {
	nsh := len(r.Weeks[0].ByShard)
	target := r.Cfg.TargetShard()
	header := make([]string, 0, nsh+1)
	header = append(header, "week")
	for i := 0; i < nsh; i++ {
		label := fmt.Sprintf("s%d", i)
		if i == target {
			label += "*"
		}
		header = append(header, label+" ham lost")
	}
	t := eval.NewTable(header...)
	for _, w := range r.Weeks {
		row := make([]string, 0, nsh+1)
		row = append(row, fmt.Sprintf("%d", w.Week))
		for _, conf := range w.ByShard {
			row = append(row, fmt.Sprintf("%.1f%%", 100*conf.HamMisclassifiedRate()))
		}
		t.AddRow(row...)
	}
	fmt.Fprintf(b, "per-shard at-delivery ham loss (recipient-hash, %d shards", nsh)
	if target >= 0 {
		fmt.Fprintf(b, "; * = %s's shard", r.Cfg.AttackRecipient)
	}
	b.WriteString("):\n")
	b.WriteString(t.String())
}
