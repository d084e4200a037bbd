// Package lint is otem-lint: a domain-aware static-analysis suite that
// gates the whole simulator.
//
// It mirrors the golang.org/x/tools/go/analysis contract — Analyzer,
// Pass, Diagnostic, per-package Run, object/package Facts — on top of
// the standard library alone, because this module builds offline with
// zero third-party dependencies. The driver loads packages with `go list
// -export -deps -json`, type-checks the targets from source against
// compiled export data (the same scheme `go vet` uses), runs every
// analyzer over the package-import DAG, and filters findings through
// //lint:ignore / //lint:file-ignore directives (whose analyzer names
// are themselves validated against the registered suite).
//
// The suite encodes the invariants this reproduction lives or dies by:
//
//   - floatcompare: no == / != on floating-point operands; use
//     repro/internal/core/floats (Eq. 19 cost terms and Arrhenius sums
//     never compare bit-equal).
//   - nakedgoroutine: no raw go statements outside internal/runner; all
//     fan-out goes through the bounded pool.
//   - errwrapcheck: fmt.Errorf must wrap embedded errors with %w, and
//     sentinel tests must use errors.Is, so otem.ErrUnknownCycle and
//     friends survive every layer.
//   - nopanic: library packages return errors; panic is for init and
//     Must* constructors (documented programmer-error contracts opt out
//     line by line with a //lint:ignore).
//   - detrand: no global math/rand or time.Now inside internal/sim,
//     internal/mpc, internal/policy — replay determinism is a tested
//     property.
//   - detflow: the same determinism contract, transitively and as a
//     value property — a helper anywhere in the module that reaches
//     global rand or time.Now (at any call depth) must not be called
//     from the deterministic scope, and neither may a *rand.Rand or
//     func value derived from those sources, even laundered through a
//     struct field, closure or function value.
//   - errflow: errors returned by this module's own APIs must not be
//     discarded — as bare call / defer / go statements, or as dead
//     stores no path reads before overwrite; functions proven always-nil
//     through the value flow (assignments, phi joins, tuple forwarding,
//     naked returns of named results) are exempt.
//   - unitmix: additive arithmetic and comparisons must not mix
//     identifiers whose names carry conflicting unit suffixes (tempK +
//     limitC, powerW > energyJ); convert through internal/units first.
//   - nilness: no guaranteed-nil dereferences and no nil checks the
//     branch-refined value flow has already decided.
//   - unusedwrite: no stores whose value is overwritten or dies on
//     every path before a read (dead error stores stay with errflow).
//   - allocflow: functions reachable from a //lint:hotpath root must be
//     provably allocation-free, transitively — the compile-time form of
//     the allocs/step budget the simulator benchmarks enforce.
//
// detflow, errflow and unitmix are cross-package dataflow analyses
// built on Facts: serializable claims attached to objects or packages
// (NondetFact, TaintFact, NilErrorFact, UnitFact) that an analyzer
// exports while analyzing a dependency and imports while analyzing a
// dependent. In the standalone driver the facts live in an in-memory
// store keyed by (analyzer, package path, object); under `go vet
// -vettool` they are gob-encoded into .vetx files and flow between
// compilation units through the go command's build cache, exactly like
// vet's own unitchecker facts.
//
// # How value-flow analysis works
//
// detflow, errflow, nilness and unusedwrite share one intermediate
// representation, built by repro/internal/lint/ir and cached per
// function across analyzers by the driver (Pass.FuncIR):
//
//  1. CFG. Each function body is lowered to basic blocks of straight-line
//     statements; if/for/range/switch/select/goto lower to explicit
//     edges. A block ending in a condition expression with two successors
//     branches on it, Succs[0] true.
//  2. Dominators. The Cooper–Harvey–Kennedy iterative algorithm yields
//     immediate dominators and dominance frontiers for reachable blocks.
//  3. SSA. Local variables whose address never escapes (no explicit &x,
//     no closure capture, no implicit pointer-receiver indirection) are
//     "tracked": phi values are placed on dominance frontiers of their
//     definition sites and every use identifier is renamed to the one
//     definition (Param, Def, or Phi) reaching it. Untracked variables
//     resolve to Unknown, which every analyzer treats as "no claim".
//  4. Cells. Address-taken locals get a conservative flow-insensitive
//     summary (Func.Cell): every store that may reach the variable —
//     direct assignment or a write through a local may-alias chain —
//     plus a read count and an Escaped bit that trips the moment the
//     address leaves the function (call argument, return, field store,
//     closure capture). Non-escaped cells sustain must-claims (errflow's
//     always-nil proofs, unusedwrite's dead stores, nilness states);
//     escaped cells only may-claims (detflow taint).
//  5. Dataflow. A generic forward fixpoint driver (ir.Forward) visits
//     reachable blocks in reverse postorder; the per-block transfer
//     returns one fact per successor edge, which is how nilness refines
//     "p == nil" into different facts on the two arms. Joins see
//     per-predecessor edges so they can evaluate phis.
//
// # Interprocedural analysis
//
// repro/internal/lint/callgraph builds a per-package call graph over the
// same IR, cached per package by the driver (Pass.CallGraph): one node
// per declared function and per function literal, edges for static
// calls, function values chased through SSA def-use chains (including
// phi joins), and class-hierarchy candidates for interface dispatch
// computed from the package's own method sets — always paired with a
// residual dynamic edge, so clients never mistake CHA candidates for a
// proof of coverage. Tarjan's algorithm emits the SCC condensation in
// reverse topological order, and detflow, errflow and allocflow compute
// their per-function summaries bottom-up over it: callees settle before
// callers, mutually recursive components iterate to their own local
// fixpoint, and the resulting facts (NondetFact, NilErrorFact,
// AllocFact) carry the summaries across package boundaries. detflow
// alone keeps an outer loop, because taint stored into fields feeds back
// into function summaries. `make lint-bench` reports the graph and
// summary costs as callgraph_ns and summary_ns in BENCH_lint.json.
//
// # Hot-path annotations
//
// Two //lint: annotations (reasons mandatory, validated like ignore
// directives) drive allocflow:
//
//	//lint:hotpath <reason>   — this function and everything it reaches
//	                            through static calls must be provably
//	                            allocation-free; every allocating
//	                            construct in the region is a finding.
//	//lint:coldpath <reason>  — a reviewed amortized or setup path
//	                            (buffer growth in a reusable workspace);
//	                            enforcement stops here and no AllocFact
//	                            is exported for it.
//
// Allocations on failing returns (a return statement whose error result
// is non-nil) and in panic arguments are exempt without annotation —
// error paths are cold by definition. Dynamic dispatch is not followed;
// implementations that must stay allocation-free need their own hotpath
// roots.
//
// On top of the IR, detflow runs a taint engine (taint.go) that answers
// "is this value derived from a nondeterministic source?" with a
// package-level fixpoint across functions, fields and package variables;
// errflow proves "this expression is always nil" (a greatest-fixpoint
// dual: optimistic through phi cycles); nilness and unusedwrite consume
// the branch-refined facts and the IR's observedness relation directly.
// Every analysis under-approximates on the same side: a finding is
// proven, silence is not a proof.
//
// # Migrating from the syntactic detflow/errflow
//
// The value-flow rewrite keeps every old finding message, so existing
// //lint:ignore directives keep suppressing what they suppressed. New
// finding shapes (each suppressible the usual way, with the analyzer
// name unchanged):
//
//   - "call to <m> on a nondeterministically derived receiver ..."
//     (detflow: a rand handle reached the receiver through fields or
//     assignments),
//   - "call through nondeterministic function value ..." (detflow: a
//     stored time.Now or closure over one),
//   - "error assigned to <v> from <api> is never checked ..." (errflow:
//     dead error store),
//   - nilness and unusedwrite findings, new analyzers with their own
//     //lint:ignore names.
//
// Functions that previously needed ignores because only a literal
// `return nil` counted as infallible may shed them: always-nil is now
// proven through the value flow.
//
// Because facts make package order matter, the parallel driver
// (Module.RunParallel) schedules packages in topological waves over the
// import DAG on the bounded worker pool from repro/internal/runner —
// ctx-cancellable and panic-isolated — and sorts findings into a total
// order so its output is byte-identical to the sequential reference
// driver (Module.Run).
//
// Entry points: Load / LoadContext + (*Module).Run or RunParallel for
// the standalone cmd/otem-lint multichecker (`make lint`), RunUnit for
// `go vet -vettool=$(otem-lint)`, ToSARIF / WriteSARIF / WriteJSON /
// WriteText for rendering, and RunFixture for analysistest-style
// fixture tests under testdata/src.
package lint
