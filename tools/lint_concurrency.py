#!/usr/bin/env python3
"""Concurrency lint: house rules for locks, escape hatches, and relaxed atomics.

Checked over every .h/.cc under src/ (run as a gating CI step and a ctest):

  A. Every NO_THREAD_SAFETY_ANALYSIS escape hatch must carry a rationale: a
     non-trivial `//` comment on the same line or within the 3 lines above it.
     The thread-safety analysis is the only reviewer of lock discipline that
     scales; a rationale-free escape is an unreviewed hole in the contract.

  B. No naked standard mutex types (std::mutex, std::shared_mutex, ...) outside
     src/common/mutex.h. The wrappers there carry the CAPABILITY annotations;
     a naked standard mutex makes its guarded data invisible to the analysis.

  C. Every memory_order_relaxed use must sit next to an invariant comment: a
     `//` comment on the same line or within the preceding lines (a run of
     consecutive relaxed-using lines is covered by one comment above the run).
     Relaxed atomics are exactly where the compiler and TSan are both blind;
     the invariant that makes the ordering sufficient must be written down.

  D. No `try`, `throw` or `catch` in code (comments and string literals are
     ignored). A transaction attempt that cannot proceed ends through one
     path: the Txn's doom slot (Txn::Doom), which the runner reads after the
     body returns. A thrown signal would add a second abort path, and the
     exception unwinder serializes threads, so one throw per stash or lock
     timeout costs more than a whole commit under contention.

Exit status 0 when clean; 1 with findings (one per line: path:line: rule: message).
Run with --self-test to check the rules against known-good/known-bad fixtures.
"""

import argparse
import os
import re
import sys

# Rule A: escape hatches need a rationale comment within this many lines above.
RATIONALE_WINDOW = 3
# Rationale / invariant comments shorter than this (after stripping slashes and
# whitespace) are considered trivial ("// ok") and rejected.
MIN_COMMENT_CHARS = 12
# Rule C: how many non-relaxed code lines above a relaxed use we search for a
# comment. Lines that themselves use memory_order_ chain the window upward, so
# one comment covers a whole cluster of relaxed operations.
RELAXED_WINDOW = 5
RELAXED_CHAIN_CAP = 40  # hard cap on the upward walk, chains included

EXCEPTION_RE = re.compile(r"\b(try|throw|catch)\b")
# String and character literals, blanked before rule D looks for keywords.
LITERAL_RE = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])*\'')
NAKED_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex)\b"
)
# The one file allowed to name standard mutex types (it defines the wrappers).
MUTEX_WRAPPER_FILE = os.path.join("src", "common", "mutex.h")
# The macro definition site itself is not an escape-hatch *use*.
ANNOTATIONS_FILE = os.path.join("src", "common", "annotations.h")


def strip_comment(line):
    """Code portion of a line (ignores // comments; no block-comment tracking —
    the codebase uses line comments only)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def comment_text(line):
    """The comment portion of a line, or '' if none."""
    idx = line.find("//")
    return "" if idx < 0 else line[idx:].strip("/ \t\n")


def has_real_comment(line):
    return len(comment_text(line)) >= MIN_COMMENT_CHARS


def check_escape_hatches(relpath, lines):
    """Rule A: NO_THREAD_SAFETY_ANALYSIS must carry an adjacent rationale."""
    findings = []
    if relpath.replace(os.sep, "/") == ANNOTATIONS_FILE.replace(os.sep, "/"):
        return findings
    for i, line in enumerate(lines):
        if "NO_THREAD_SAFETY_ANALYSIS" not in strip_comment(line):
            continue
        covered = has_real_comment(line)
        for j in range(max(0, i - RATIONALE_WINDOW), i):
            covered = covered or has_real_comment(lines[j])
        if not covered:
            findings.append(
                (relpath, i + 1, "escape-hatch",
                 "NO_THREAD_SAFETY_ANALYSIS without a rationale comment within "
                 f"{RATIONALE_WINDOW} lines above"))
    return findings


def check_naked_mutexes(relpath, lines):
    """Rule B: standard mutex types only inside the wrapper header."""
    findings = []
    if relpath.replace(os.sep, "/") == MUTEX_WRAPPER_FILE.replace(os.sep, "/"):
        return findings
    for i, line in enumerate(lines):
        m = NAKED_MUTEX_RE.search(strip_comment(line))
        if m:
            findings.append(
                (relpath, i + 1, "naked-mutex",
                 f"std::{m.group(1)} outside src/common/mutex.h — use the "
                 "annotated doppel::Mutex / doppel::SharedMutex wrappers"))
    return findings


def check_relaxed_comments(relpath, lines):
    """Rule C: memory_order_relaxed needs an adjacent invariant comment."""
    findings = []
    for i, line in enumerate(lines):
        if "memory_order_relaxed" not in strip_comment(line):
            continue
        if has_real_comment(line):
            continue
        budget = RELAXED_WINDOW
        covered = False
        j = i - 1
        walked = 0
        while j >= 0 and budget > 0 and walked < RELAXED_CHAIN_CAP:
            if has_real_comment(lines[j]):
                covered = True
                break
            # A neighbouring atomic op chains the window: one comment heads a
            # cluster of relaxed operations.
            if "memory_order_" in lines[j]:
                budget = RELAXED_WINDOW
            else:
                budget -= 1
            j -= 1
            walked += 1
        if not covered:
            findings.append(
                (relpath, i + 1, "relaxed-no-invariant",
                 "memory_order_relaxed without an adjacent fence/invariant "
                 "comment (same line or a comment heading the cluster)"))
    return findings


def check_exceptions(relpath, lines):
    """Rule D: no exception keywords; attempts end through the doom slot."""
    findings = []
    for i, line in enumerate(lines):
        m = EXCEPTION_RE.search(strip_comment(LITERAL_RE.sub('""', line)))
        if m:
            findings.append(
                (relpath, i + 1, "exception",
                 f"`{m.group(1)}` in src/: end a transaction attempt through "
                 "Txn::Doom, not an exception"))
    return findings


CHECKS = [check_escape_hatches, check_naked_mutexes, check_relaxed_comments,
          check_exceptions]


def lint_text(relpath, text):
    lines = text.splitlines()
    findings = []
    for check in CHECKS:
        findings.extend(check(relpath, lines))
    return findings


def lint_tree(root):
    findings = []
    src = os.path.join(root, "src")
    for dirpath, _, filenames in os.walk(src):
        for name in sorted(filenames):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            relpath = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as f:
                findings.extend(lint_text(relpath, f.read()))
    return findings


# ---- Self-test fixtures -----------------------------------------------------
# Each entry: (name, source text, set of rules that MUST flag it — empty set
# means the snippet must pass clean). Known-bad snippets guard against the lint
# rotting into a no-op; known-good ones against it rejecting the house style.

FIXTURES = [
    ("bad_escape_no_rationale", """\
void ReleaseAll(Txn& txn) NO_THREAD_SAFETY_ANALYSIS;
""", {"escape-hatch"}),
    ("bad_escape_trivial_comment", """\
// ok
void ReleaseAll(Txn& txn) NO_THREAD_SAFETY_ANALYSIS;
""", {"escape-hatch"}),
    ("good_escape_with_rationale", """\
// Lock set is held across function boundaries for the transaction's duration;
// the analysis is function-local and cannot track it.
void ReleaseAll(Txn& txn) NO_THREAD_SAFETY_ANALYSIS;
""", set()),
    ("bad_naked_mutex", """\
#include <mutex>
struct S {
  std::mutex mu;
};
""", {"naked-mutex"}),
    ("bad_naked_shared_mutex_in_template_arg", """\
#include <shared_mutex>
struct S {
  std::shared_lock<std::shared_mutex> lock;
};
""", {"naked-mutex"}),
    ("good_wrapped_mutex", """\
#include "src/common/mutex.h"
struct S {
  doppel::Mutex mu;
  doppel::SharedMutex publish_mu;
};
""", set()),
    ("good_mutex_mention_in_comment", """\
// The publish lock is a SharedMutex (was std::shared_mutex before wrapping).
int x;
""", set()),
    ("bad_relaxed_no_comment", """\
std::uint64_t Count() {
  return n_.load(std::memory_order_relaxed);
}
""", {"relaxed-no-invariant"}),
    ("good_relaxed_same_line", """\
std::uint64_t Count() {
  return n_.load(std::memory_order_relaxed);  // racy stats peek; no ordering needed
}
""", set()),
    ("good_relaxed_cluster_comment", """\
// Monotonic stat counters: readers tolerate racy values, no publication rides
// on them, so relaxed is sufficient for the whole cluster.
a_.fetch_add(1, std::memory_order_relaxed);
b_.fetch_add(1, std::memory_order_relaxed);
c_.store(0, std::memory_order_relaxed);
""", set()),
    ("bad_relaxed_comment_too_far", """\
// A comment that is much too far above the relaxed use to plausibly cover it.
int a;
int b;
int c;
int d;
int e;
int f;
n_.store(1, std::memory_order_relaxed);
""", {"relaxed-no-invariant"}),
    ("bad_throw_signal", """\
void Txn::UserAbort() { throw UserAbortSignal{}; }
""", {"exception"}),
    ("bad_try_catch", """\
try {
  body(txn);
} catch (const StashSignal& s) {
  engine.OnStash(w, s);
}
""", {"exception"}),
    ("good_doom_slot", """\
// A lock timeout used to throw; now the helper dooms the attempt (no try/catch).
if (!r->rw.try_lock_for(limits_.exclusive_spin)) {
  txn.Doom(TxnStatus::kConflict, r, op);
  Log("try again: throw nothing");
  return false;
}
""", set()),
]


def self_test():
    failures = []
    for name, text, expected_rules in FIXTURES:
        relpath = os.path.join("src", "fixture", name + ".cc")
        flagged = {rule for (_, _, rule, _) in lint_text(relpath, text)}
        if expected_rules - flagged:
            failures.append(
                f"{name}: expected rules {sorted(expected_rules - flagged)} did not fire")
        if not expected_rules and flagged:
            failures.append(f"{name}: expected clean, got {sorted(flagged)}")
    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}")
        return 1
    print(f"self-test OK ({len(FIXTURES)} fixtures)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("root", nargs="?", default=".",
                        help="repository root (containing src/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the rule checkers against embedded fixtures")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings = lint_tree(args.root)
    for relpath, lineno, rule, msg in findings:
        print(f"{relpath}:{lineno}: {rule}: {msg}")
    if findings:
        print(f"lint_concurrency: {len(findings)} finding(s)")
        return 1
    print("lint_concurrency: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
