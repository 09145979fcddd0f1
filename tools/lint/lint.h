// pmemolap_lint — project-invariant static analyzer.
//
// The repo's scientific claim is that modeled SSB runtimes are
// bit-identical across executors and fault intensities. That only holds
// while the model layers stay deterministic and the layering DAG keeps
// nondeterministic machinery (threads, clocks, ambient RNG) out of them.
// This tool machine-checks those invariants as CI-failing diagnostics:
//
//   layering             include edges must follow the declared layer DAG
//   determinism          no ambient clocks / unseeded RNG in model layers
//   raw-thread           std::thread construction only inside src/exec/
//   volatile-sync        volatile is not a synchronization primitive
//   header-static        no mutable static storage in headers (ODR+races)
//   discarded-status     (void)-discarding a Status needs an audit note
//   unseeded-rng         std:: RNG engines must be constructed seeded
//   persist-raw-write    memcpy/memset into PersistentRegion memory is
//                        banned outside src/durability/
//   persist-order        flow-sensitive store->flush->fence->publish
//   persist-double-flush redundant FlushRange of an already-flushed
//                        range (perf diagnostic)    } persist_check.h
//   persist-mixed-store  NtStore/Store interleaved  }
//   test-only-api        a function declared in a src/ header that no
//                        file under src/, bench/, examples/ or
//                        perfbench/ uses (tree pass; tests/ never count)
//
// Audited exceptions are annotated in the source:
//
//   code;  // lint:allow(rule-name): why this is safe
//
// on the offending line, or in a comment block directly above it (the
// annotation carries across the comment's remaining lines); the reason
// text is mandatory and inventoried (`pmemolap_lint --list-allows`).
// The analyzer is intentionally lexical (no real C++ parse): it strips
// comments and string literals with a small scanner (scanner.h) and
// then pattern matches — the persist-order family adds a statement-
// level flow analysis on top (persist_check.h) — which is exact enough
// for the project's house style and keeps the tool dependency-free and
// fast.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pmemolap::lint {

/// One diagnostic: `file:line: error: [rule] message`.
struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  std::string ToString() const;
};

/// One in-tree `// lint:allow(rule): reason` annotation — the audited-
/// exception inventory that `--list-allows` prints and CI verifies
/// (every allow must carry a non-empty reason).
struct AllowAudit {
  std::string file;
  int line = 0;  ///< 1-based
  std::string rule;
  std::string reason;
};

struct Report {
  std::vector<Diagnostic> diagnostics;
  int files_scanned = 0;
  /// Violations silenced by a `lint:allow` annotation (counted so a run
  /// can report how many audited exceptions it honored).
  int allowed = 0;
  /// Every allow annotation encountered, whether or not it silenced
  /// anything (stale allows show up here too).
  std::vector<AllowAudit> allow_audits;

  bool clean() const { return diagnostics.empty(); }
};

/// Names of all registered rules, in diagnostic order.
std::vector<std::string> RuleNames();

/// Lints one file whose contents are already in memory. `path` is used
/// for diagnostics and for path-scoped rules (layering, raw-thread), so
/// it should be repo-relative (e.g. "src/core/scheduler.h").
void LintFileContent(const std::string& path, const std::string& content,
                     Report* report);

/// Lints one on-disk file. Returns false (and appends nothing) if the
/// file cannot be read.
bool LintFile(const std::string& fs_path, const std::string& repo_relative,
              Report* report);

/// Walks `root`/src and `root`/tests (skipping lint fixture directories
/// and anything that is not .h/.cc/.cpp) and lints every file, then runs
/// the tree-level test-only-api pass, which also reads `root`/bench,
/// `root`/examples and `root`/perfbench to collect uses. Returns the
/// number of src/ and tests/ files scanned, or -1 if root lacks a src/
/// directory.
int LintTree(const std::string& root, Report* report);

/// Process exit code for a finished run: 0 clean, 1 violations.
int ExitCode(const Report& report);

}  // namespace pmemolap::lint
