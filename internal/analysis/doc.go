// Package analysis is the sbvet static-analysis framework: a
// stdlib-only, API-compatible subset of golang.org/x/tools/go/analysis
// plus a module-aware source loader, built so the repo's serving,
// accounting, and drain invariants are enforced at lint time instead
// of depending on a -race window opening.
//
// The concrete analyzers live in subpackages, one invariant class per
// analyzer, each grounded in a bug this repo has actually had to fix:
//
//   - snapshotonce (internal/analysis/snapshotonce): the serving
//     snapshot pointer is read at most once per function body and
//     never inside a loop, so a batch or decision can never mix
//     generations (the PR 2 torn-read invariant, previously guarded
//     only by TestServeWhileRetrainNoTornReads winning a race).
//   - statscomplete (internal/analysis/statscomplete): every atomic
//     counter field on a struct with a Stats method is loaded
//     somewhere in Stats, so a newly added counter cannot silently
//     vanish from the sum(per-shard) == combined aggregation (the
//     accounting class PR 3 and PR 5 each had to re-fix).
//   - ctxdrain (internal/analysis/ctxdrain): a for-range over a
//     channel inside a context-aware function must either select on
//     ctx.Done() or carry an explicit drain annotation (the PR 4
//     Sharded.LearnStream cancellation-swallowing class).
//   - tokenizeonce (internal/analysis/tokenizeonce): direct calls to
//     the tokenizer's entry point, Stream, are confined to the
//     tokenization layer's own packages, so new double-tokenize call
//     sites cannot creep into the serving or admission paths.
//
// The second round adds an interprocedural layer — a module-wide call
// graph (CallGraph) over the already-type-checked packages, static
// calls plus method calls resolved through declared interface types,
// and an exported-facts mechanism (Fact, FactStore) — and four
// analyzers that prove call-path invariants no single function body
// can show:
//
//   - admitflow (internal/analysis/admitflow): outside the packages
//     that own training, no call path may reach the engine's raw
//     publish (Engine.Swap) or a learner's raw
//     Learn/LearnWeighted/LearnTokenStream without passing through
//     Guarded/Admitter —
//     the guarded-training invariant the PR 5 admission layer exists
//     to enforce, closed against future call sites.
//   - hookorder (internal/analysis/hookorder): a PrePublish or
//     PostPublish hook, or anything it transitively calls, must not
//     call Swap / publish / RetrainIncremental / Resume — a hook runs
//     inside publish, so re-entering the publish path is a recursive
//     publish shipping in a config struct.
//   - facadeexport (internal/analysis/facadeexport): every exported
//     capability of internal/engine, internal/admission,
//     internal/serve and internal/obs must be surfaced by the repro
//     facade (same name, or referenced by a renamed alias or wrapper)
//     — with internal/ packages, an unexported capability does not
//     exist for users.
//   - atomicfield (internal/analysis/atomicfield): a struct field
//     accessed through sync/atomic anywhere must never be plainly
//     read or written — one plain read of a hot counter is a data
//     race the race detector only catches if a test wins the
//     interleaving.
//
// cmd/sbvet runs the suite through Check (go run ./cmd/sbvet ./...,
// which is make lint): it loads the module from source, analyzes the
// matched packages and then their test packages, _test.go files
// included, over one call graph and one fact store, and reports
// findings in a deterministic order (file, line, column, analyzer).
//
// # Facts and the x/tools correspondence
//
// The framework mirrors golang.org/x/tools/go/analysis field for
// field — Analyzer{Name, Doc, Run, FactTypes}, Pass with
// ExportObjectFact / ImportObjectFact / ExportPackageFact /
// ImportPackageFact, and Fact's AFact marker — so analyzers written
// here port to the real driver mechanically once a module proxy is
// reachable. Facts are how interprocedural results cross package
// boundaries: an analyzer running on package P may attach a fact
// (a struct with an AFact method, declared in FactTypes) to P's own
// objects; when a dependent package is analyzed later,
// ImportObjectFact retrieves it. The checker keeps facts in memory in
// a FactStore and analyzes a package only after all its imports.
//
// # Directives
//
// Intentional violations are annotated, never silent. A directive is
// a line comment of the form
//
//	//sbvet:NAME optional justification
//
// placed on the offending line or the line immediately above it
// (mirroring //nolint and //go:build placement). Each analyzer
// honors exactly one directive name, so an annotation states which
// invariant is being waived and the justification is auditable with
// `grep -rn "//sbvet:"`:
//
//	//sbvet:reload      snapshotonce — this re-read is intentional
//	//sbvet:nostat      statscomplete — this counter is deliberately
//	                    absent from Stats
//	//sbvet:drain       ctxdrain — this loop is an intentional
//	                    drain-to-close and must ignore cancellation
//	//sbvet:retokenize  tokenizeonce — this call site may invoke the
//	                    tokenizer directly
//	//sbvet:unguarded   admitflow — this training call is deliberately
//	                    unguarded (an attack demo, an operator
//	                    bootstrap); the waiver also sanitizes the
//	                    function for its callers
//	//sbvet:reentrant   hookorder — this hook's publish call is
//	                    intentional
//	//sbvet:nofacade    facadeexport — this exported declaration is
//	                    deliberately not part of the facade contract
//	//sbvet:unatomic    atomicfield — this plain access is safe (for
//	                    example, a single-goroutine teardown path)
//
// A typical waiver, from the experiment layer, reads:
//
//	f.LearnWeighted(attackMsg, true, n) //sbvet:unguarded the attack injection being measured
//
// Directive parsing is shared (see Directives and ExemptedAt) so all
// analyzers agree on placement rules: one comment may stack several
// directives, CRLF endings are tolerated, and a blank line between
// the directive and the site breaks the waiver — adjacency is
// required, so a stale comment cannot waive code that drifted away
// from it. Unknown directive names are themselves diagnosed by the
// checker, so a typo like //sbvet:drian cannot silently waive
// nothing.
package analysis
