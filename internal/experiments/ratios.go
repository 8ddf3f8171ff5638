package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
)

// TokenRatioRow is one attack's token-volume arithmetic at a given
// fraction (§4.2: at 2% control the Usenet attack carries ≈6.4× the
// corpus's tokens, the Aspell attack ≈7×).
type TokenRatioRow struct {
	Attack       string
	Fraction     float64
	NumAttack    int
	AttackTokens int
	CorpusTokens int
}

// Ratio is attack tokens over corpus tokens.
func (r TokenRatioRow) Ratio() float64 {
	if r.CorpusTokens == 0 {
		return 0
	}
	return float64(r.AttackTokens) / float64(r.CorpusTokens)
}

// TokenRatioResult holds the §4.2 check.
type TokenRatioResult struct {
	TrainSize      int
	MeanBodyTokens float64
	Rows           []TokenRatioRow
}

// RunTokenRatio reproduces the paper's token-volume observation: the
// attack is small in message count but large in token count.
func RunTokenRatio(env *Env) (*TokenRatioResult, error) {
	cfg := env.Cfg
	// Average tokens per message over a corpus sample (token stream
	// length, multiplicity included, as the paper counts).
	sample := env.Pool.Examples
	if len(sample) > 2000 {
		sample = sample[:2000]
	}
	total := 0
	for _, e := range sample {
		total += env.Tok.Stream(e.Msg).Total()
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("token ratio: empty pool")
	}
	mean := float64(total) / float64(len(sample))
	corpusTokens := int(mean * float64(cfg.TrainSize))

	res := &TokenRatioResult{TrainSize: cfg.TrainSize, MeanBodyTokens: mean}
	const fraction = 0.02
	n := core.AttackSize(fraction, cfg.TrainSize)
	for _, lex := range []interface {
		Name() string
		Len() int
	}{env.Usenet, env.Aspell} {
		res.Rows = append(res.Rows, TokenRatioRow{
			Attack:       lex.Name(),
			Fraction:     fraction,
			NumAttack:    n,
			AttackTokens: n * lex.Len(),
			CorpusTokens: corpusTokens,
		})
	}
	return res, nil
}

// Render prints the §4.2 arithmetic.
func (r *TokenRatioResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Token-volume check (§4.2): mean %.0f tokens/message, %d-message training set.\n",
		r.MeanBodyTokens, r.TrainSize)
	t := eval.NewTable("attack", "atk%", "#atk", "attack tokens", "corpus tokens", "ratio")
	for _, row := range r.Rows {
		t.AddRow(row.Attack,
			fmt.Sprintf("%.0f", 100*row.Fraction),
			fmt.Sprintf("%d", row.NumAttack),
			fmt.Sprintf("%d", row.AttackTokens),
			fmt.Sprintf("%d", row.CorpusTokens),
			fmt.Sprintf("%.1fx", row.Ratio()))
	}
	b.WriteString(t.String())
	return b.String()
}
