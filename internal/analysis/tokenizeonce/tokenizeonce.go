// Package tokenizeonce fences tokenization into the layer that owns
// it. BENCH_PR3 showed batch scoring flat from 1→8 workers because
// every stage re-tokenizes what the previous stage already tokenized;
// the tokenize-once pipeline fixed that by tokenizing once per
// message and flowing a *tokenize.TokenStream through
// score/vet/learn. That invariant only holds if new double-tokenize
// call sites cannot creep in, so this analyzer forbids direct calls
// to the tokenizer's one per-message entry point,
// (*tokenize.Tokenizer).Stream, outside an allowlist of packages that
// legitimately own tokenization:
//
//   - internal/tokenize itself;
//   - internal/tokendb, the token-count database both backends embed,
//     whose Learn/LearnWeighted/Unlearn are the one message->tokens
//     boundary for training;
//   - internal/sbayes and internal/graham, whose Classify/Score (and
//     sbayes's Explain) are the same boundary for scoring;
//   - internal/engine, which tokenizes once at the batch boundary
//     and hands the same stream to Classify, Admit, and the learn
//     path;
//   - internal/eval, whose StreamCorpus IS the tokenize-once pattern
//     (pre-tokenize, then score many times);
//   - internal/core and internal/experiments, the offline exhibit
//     layer that pre-tokenizes attack payloads and validation pools
//     once per run, off the serving path.
//
// Everything else — admission, scenario, the CLIs, the facade and
// examples — must either flow pre-computed streams or carry an
// explicit //sbvet:retokenize directive stating why this call site
// may pay (and re-pay) the tokenization cost.
//
// _test.go files are exempt: tests tokenize to construct expected
// token sets.
package tokenizeonce

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the tokenizeonce check.
var Analyzer = &analysis.Analyzer{
	Name: "tokenizeonce",
	Doc:  "flag direct tokenizer calls outside the packages that own tokenization",
	Run:  run,
}

// Allow lists the package-path suffixes permitted to call the
// tokenizer directly. A package is allowed when its import path
// equals an entry or ends in "/"+entry.
var Allow = []string{
	"internal/tokenize",
	"internal/tokendb",
	"internal/sbayes",
	"internal/graham",
	"internal/engine",
	"internal/eval",
	"internal/core",
	"internal/experiments",
}

func run(pass *analysis.Pass) error {
	if allowed(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Stream" {
				return true
			}
			fn := analysis.MethodCallee(pass.TypesInfo, sel)
			// Tests tokenize to construct expected token sets; the
			// once-per-message economy is a serving-path concern.
			if fn == nil || !isTokenizerMethod(fn) || pass.IsTestFile(call.Lparen) || pass.ExemptedAt(call.Lparen, "retokenize") {
				return true
			}
			pass.Reportf(call.Lparen, "direct call to (*tokenize.Tokenizer).Stream outside the tokenization layer; the hot path must tokenize each message once and flow the stream — move the work behind an allowlisted package or annotate //sbvet:retokenize with a reason")
			return true
		})
	}
	return nil
}

// allowed reports whether pkgPath may tokenize directly.
func allowed(pkgPath string) bool {
	for _, entry := range Allow {
		if isPkg(pkgPath, entry) {
			return true
		}
	}
	return false
}

// isPkg reports whether pkgPath equals entry or ends in "/"+entry.
func isPkg(pkgPath, entry string) bool {
	return pkgPath == entry || strings.HasSuffix(pkgPath, "/"+entry)
}

// isTokenizerMethod reports whether fn is a method on the tokenize
// package's Tokenizer.
func isTokenizerMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Tokenizer" && obj.Pkg() != nil && obj.Pkg().Name() == "tokenize"
}
