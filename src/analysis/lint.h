// fdlsp-lint: the repo's determinism & protocol-isolation source linter.
//
// A token-level C++ scanner (no libclang dependency) enforcing the
// invariants the verification harness can only sample:
//
//   unseeded-rng        — ambient randomness (std::rand, srand,
//                         std::random_device, std::mt19937,
//                         std::default_random_engine, random_shuffle) is
//                         banned everywhere: all stochastic code must draw
//                         from fdlsp::Rng with an explicitly threaded seed
//                         (src/support/rng.h). fdlsp::Rng itself has no
//                         default constructor, so the type system already
//                         forbids unseeded Rng; this rule closes the escape
//                         routes around it.
//   time-seed           — wall-clock reads (time(), clock(), ::now(),
//                         gettimeofday) in deterministic paths.
//   unordered-container — std::unordered_{map,set,multimap,multiset} in
//                         deterministic paths: iteration order is
//                         unspecified, and a token scanner cannot prove a
//                         given instance is never iterated, so the
//                         containers are banned there outright.
//   pointer-key         — map/set keyed on a pointer type anywhere:
//                         address order changes across runs (ASLR).
//   cross-node-state    — inside a class deriving from SyncProgramSet or
//                         AsyncProgram: naming SyncEngine/AsyncEngine or
//                         calling .program(/->program( lets a simulated
//                         node read peer state outside the message API.
//   ordered-in-protocol-state
//                       — std::map/std::set (and multi variants) in
//                         protocol-state paths (src/sim, src/algos) or
//                         inside program classes: node-pair state is
//                         point-queried per message, where red-black trees
//                         allocate per insert and pay log-n per probe; use
//                         FlatHashMap/FlatHashSet (support/flat_hash.h), or
//                         allow() with a justification when iteration order
//                         is semantically load-bearing.
//   heap-in-hot-path    — inside a function annotated `// fdlsp-lint: hot`
//                         (the per-message/per-round engine seams): `new`,
//                         make_unique, make_shared, or a .resize()/
//                         .reserve() member call. The zero-alloc message
//                         path (DESIGN.md §13) is enforced at runtime by
//                         the allocation auditor (support/alloc_audit.h);
//                         this rule catches regressions at review time.
//   unjustified-allow   — an `// fdlsp-lint: allow(<rule>)` directive whose
//                         line (and the line above) carries no justifying
//                         comment text, or that names a rule not in the
//                         catalog. Allows are part of the invariant
//                         surface: each one must say *why* it is safe.
//                         Diagnostics of this rule ignore allow()
//                         directives — the escape hatch cannot excuse
//                         itself.
//   layer-dag           — project mode only (analysis/project.h): a module
//                         includes a header from a higher layer of the
//                         declared include-layer DAG, or a set of
//                         same-layer includes forms a module cycle.
//
// Deterministic paths are src/algos, src/sim, src/coloring and src/graph —
// the code whose behavior must be a pure function of (input graph, seed).
// Protocol-state paths are src/sim and src/algos — the per-message fast
// path shared by every simulated protocol.
//
// Escape hatch: a file containing the comment
//     // fdlsp-lint: allow(<rule>)
// suppresses <rule> for that whole file (multiple directives allowed;
// `allow(rule1, rule2)` also works). Policy: every allow needs a
// justifying comment on the same line or the line above — and since v2
// that policy is machine-checked by the unjustified-allow rule.
//
// The scanner strips comments and string/char literals first (including
// raw string literals), so banned tokens in documentation do not fire. It
// is deliberately line-oriented and heuristic — a lint, not a compiler —
// but every rule errs toward firing: false positives are silenced with
// allow() + justification.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fdlsp {

/// One lint finding.
struct LintDiagnostic {
  std::string file;
  std::size_t line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

/// "file:line: [rule] message" (clickable in most terminals/editors).
std::string to_string(const LintDiagnostic& diagnostic);

/// Catalog entry for --list-rules and the docs.
struct LintRuleInfo {
  std::string_view name;
  std::string_view summary;
};

/// The rule catalog, in evaluation order (layer-dag last: it is enforced
/// project-wide by analysis/project.h rather than per file).
std::span<const LintRuleInfo> lint_rules();

/// True for paths whose code must be deterministic (src/algos, src/sim,
/// src/coloring, src/graph), where the path-scoped rules apply.
bool lint_deterministic_path(std::string_view path);

/// True for paths on the protocol fast path (src/sim, src/algos), where
/// ordered-in-protocol-state applies to the whole file rather than only to
/// program class bodies.
bool lint_protocol_state_path(std::string_view path);

/// Lints one file's contents. `path` selects the path-scoped rules and is
/// echoed into diagnostics; it does not need to exist on disk (tests lint
/// fixture snippets under synthetic paths).
std::vector<LintDiagnostic> lint_source(std::string_view path,
                                        std::string_view text);

/// Replaces comments and string/char literals (including raw strings) with
/// spaces, preserving line structure. Exposed for tests.
std::string lint_sanitize(std::string_view text);

}  // namespace fdlsp
