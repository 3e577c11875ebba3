#!/usr/bin/env python3
"""Project-invariant linter for the fastft tree.

Machine-checks the conventions that keep the determinism contract
(bit-identical scores at any thread count, DESIGN.md "Concurrency model")
and the locking discipline (src/common/thread_annotations.h) enforceable:

  nondeterminism      std::rand / srand / random_device / time(nullptr) /
                      argless clock-now reads anywhere except the clock
                      abstraction itself (src/common/timer.cc,
                      src/common/trace.cc). Scoring paths must derive all
                      randomness from seeded fastft::Rng streams and all
                      time from WallTimer (src/common/timer.h).
  unordered-iteration Iteration over std::unordered_map / unordered_set in
                      src/core/ and src/nn/ (the scoring paths): hash-map
                      iteration order is implementation-defined, so any loop
                      over it can leak nondeterminism into scores.
                      Membership tests and keyed lookups are fine.
  raw-mutex           std::mutex / lock_guard / unique_lock /
                      condition_variable & friends outside
                      src/common/thread_annotations.h. All locking goes
                      through the annotated Mutex/MutexLock/CondVar wrappers
                      so Clang -Wthread-safety can prove the discipline.
  raw-intrinsics      SIMD intrinsics (_mm*/NEON v*q_*) or their headers
                      outside src/common/simd_kernels*. All vector code
                      lives behind the fastft::simd dispatch layer
                      (src/common/simd_kernels.h) so the bit-identity
                      contract stays auditable in one place and per-TU
                      ISA flags (-mavx2) stay honest.
  check-user-input    FASTFT_CHECK* in input-parsing layers (src/data/csv.*,
                      src/core/expression_parser.*, tools/): malformed user
                      input must surface as Status, never abort the process.
  pragma-once         Every header must contain #pragma once.

Rule regexes only ever see noise-stripped code: string/char literals are
blanked and both `//` line comments and `/* ... */` block comments
(including multi-line block state) are removed, so prose can neither trip
a rule nor mask code that follows a closing `*/` on the same line.

Suppress a single line with a trailing comment naming the rule:

    auto t = Clock::now();  // fastft-lint: allow(nondeterminism)

Findings print as "path:line: [rule-id] message"; exit status is 0 for a
clean tree, 1 when there are findings, 2 on usage errors. Run from anywhere:

    python3 tools/fastft_lint.py              # lint src/ tools/ bench/
    python3 tools/fastft_lint.py --root DIR   # lint another tree
    python3 tools/fastft_lint.py file.cc ...  # lint specific files
    python3 tools/fastft_lint.py --list-rules
"""

import argparse
import os
import re
import sys

SCAN_DIRS = ("src", "tools", "bench")
SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")

SUPPRESS_RE = re.compile(r"//\s*fastft-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


def strip_noise_lines(lines):
    """Returns the lines with string/char literals and comments blanked —
    both `//` line comments and `/* ... */` block comments, including
    multi-line block state carried across lines — so rule regexes can
    neither fire on prose nor be masked by it (`/* x */ std::mutex m;`
    still shows the mutex). Suppression directives are matched against the
    RAW lines by the caller, so comments are stripped unconditionally."""
    out = []
    in_block = False
    for line in lines:
        kept = []
        i, n = 0, len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            c = line[i]
            if c in ('"', "'"):
                j = i + 1
                while j < n:
                    if line[j] == "\\":
                        j += 2
                        continue
                    if line[j] == c:
                        break
                    j += 1
                kept.append(c + c)
                i = j + 1
                continue
            if c == "/" and i + 1 < n and line[i + 1] == "/":
                break
            if c == "/" and i + 1 < n and line[i + 1] == "*":
                in_block = True
                i += 2
                continue
            kept.append(c)
            i += 1
        out.append("".join(kept))
    return out


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --- nondeterminism ---------------------------------------------------------

NONDET_PATTERNS = [
    (re.compile(r"\bstd::rand\b"), "std::rand is unseeded global state"),
    (re.compile(r"\bsrand\s*\("), "srand mutates global RNG state"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device is nondeterministic entropy"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "time(nullptr) reads the wall clock"),
    (re.compile(r"\b(?:[A-Za-z_]\w*_clock|Clock)\s*::\s*now\s*\(\s*\)"),
     "argless clock-now read"),
]

# The clock abstraction itself: WallTimer's implementation header carries
# per-line allow() suppressions instead (it is the documented exception).
NONDET_ALLOWED_FILES = {
    os.path.join("src", "common", "timer.cc"),
    os.path.join("src", "common", "trace.cc"),
}


def check_nondeterminism(rel_path, lines):
    if rel_path in NONDET_ALLOWED_FILES:
        return
    for lineno, code in enumerate(lines, start=1):
        for pattern, why in NONDET_PATTERNS:
            if pattern.search(code):
                yield lineno, (f"{why}; derive randomness from a seeded "
                               "fastft::Rng and time from WallTimer "
                               "(src/common/timer.h)")


# --- unordered-iteration ----------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;]{0,400}?>\s+"
    r"([A-Za-z_]\w*)")
RANGE_FOR_RE = re.compile(r"for\s*\([^;)]*?:\s*(?:this->)?([A-Za-z_]\w*)\s*\)")
ITER_FOR_RE = re.compile(r"for\s*\(.*\b([A-Za-z_]\w*)\.(?:c?begin)\s*\(")


def unordered_scope(rel_path):
    return rel_path.startswith(os.path.join("src", "core") + os.sep) or \
        rel_path.startswith(os.path.join("src", "nn") + os.sep)


def check_unordered_iteration(rel_path, lines):
    if not unordered_scope(rel_path):
        return
    text = "\n".join(lines)
    unordered_names = set(UNORDERED_DECL_RE.findall(text))
    for lineno, code in enumerate(lines, start=1):
        for pattern in (RANGE_FOR_RE, ITER_FOR_RE):
            match = pattern.search(code)
            if match and match.group(1) in unordered_names:
                yield lineno, (f"iterating unordered container "
                               f"'{match.group(1)}' in a scoring path: hash "
                               "order is implementation-defined; copy keys "
                               "into a sorted container first")
                break


# --- raw-mutex --------------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|recursive_timed_mutex|timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b")

RAW_MUTEX_ALLOWED_FILES = {
    os.path.join("src", "common", "thread_annotations.h"),
}


def check_raw_mutex(rel_path, lines):
    if rel_path in RAW_MUTEX_ALLOWED_FILES:
        return
    for lineno, code in enumerate(lines, start=1):
        match = RAW_MUTEX_RE.search(code)
        if match:
            yield lineno, (f"{match.group(0)} bypasses the annotated "
                           "wrappers; use fastft::common::Mutex / MutexLock "
                           "/ CondVar (src/common/thread_annotations.h) so "
                           "-Wthread-safety can check the lock discipline")


# --- raw-intrinsics ---------------------------------------------------------

# SIMD intrinsics and their headers may only appear in the blessed kernel
# backends (src/common/simd_kernels*): everything else calls the dispatching
# entry points, which is what keeps the bit-identity contract auditable in
# one place and per-TU ISA flags honest.
RAW_INTRINSICS_RE = re.compile(
    r"#\s*include\s*[<\"](?:immintrin|arm_neon|x86intrin|xmmintrin|emmintrin|"
    r"pmmintrin|tmmintrin|smmintrin|nmmintrin|avxintrin|avx2intrin)\.h[>\"]"
    r"|\b_mm(?:256|512)?_[a-z0-9_]+\s*\("
    r"|\bv(?:ld1|st1|add|sub|mul|fma|mla|dup|get|set)q?_[a-z0-9_]+\s*\(")

RAW_INTRINSICS_ALLOWED_PREFIX = os.path.join("src", "common", "simd_kernels")


def check_raw_intrinsics(rel_path, lines):
    if rel_path.startswith(RAW_INTRINSICS_ALLOWED_PREFIX):
        return
    for lineno, code in enumerate(lines, start=1):
        match = RAW_INTRINSICS_RE.search(code)
        if match:
            yield lineno, (f"'{match.group(0).strip()}' is a raw SIMD "
                           "intrinsic outside the blessed kernel files; call "
                           "the fastft::simd entry points "
                           "(src/common/simd_kernels.h) so the bit-identity "
                           "contract and per-TU ISA flags stay enforceable")


# --- check-user-input -------------------------------------------------------

CHECK_RE = re.compile(r"\bFASTFT_CHECK(?:_[A-Z]+)?\s*\(")

USER_INPUT_PREFIXES = (
    os.path.join("src", "data", "csv"),
    os.path.join("src", "core", "expression_parser"),
    "tools" + os.sep,
)


def check_user_input(rel_path, lines):
    if not rel_path.startswith(USER_INPUT_PREFIXES):
        return
    for lineno, code in enumerate(lines, start=1):
        if CHECK_RE.search(code):
            yield lineno, ("CHECK in an input-parsing layer aborts on "
                           "malformed user input; return a Status "
                           "(common/status.h) instead")


# --- pragma-once ------------------------------------------------------------

def check_pragma_once(rel_path, lines):
    if not rel_path.endswith(".h"):
        return
    if not any(line.strip() == "#pragma once" for line in lines):
        yield 1, "header is missing #pragma once"


RULES = [
    ("nondeterminism", check_nondeterminism,
     "unseeded randomness / wall-clock reads outside the clock layer"),
    ("unordered-iteration", check_unordered_iteration,
     "hash-order iteration in src/core and src/nn scoring paths"),
    ("raw-mutex", check_raw_mutex,
     "raw std::mutex family bypassing the annotated wrappers"),
    ("raw-intrinsics", check_raw_intrinsics,
     "SIMD intrinsics outside the blessed src/common/simd_kernels* files"),
    ("check-user-input", check_user_input,
     "CHECK on user input in parsing layers (must return Status)"),
    ("pragma-once", check_pragma_once,
     "headers must contain #pragma once"),
]


def suppressed_rules(line):
    match = SUPPRESS_RE.search(line)
    if not match:
        return frozenset()
    return frozenset(r.strip() for r in match.group(1).split(","))


def lint_file(root, rel_path):
    path = os.path.join(root, rel_path)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return [Finding(rel_path, 0, "io", str(e))]
    stripped = strip_noise_lines(lines)
    findings = []
    for rule_id, check, _ in RULES:
        for lineno, message in check(rel_path, stripped):
            line_text = lines[lineno - 1] if 0 < lineno <= len(lines) else ""
            if rule_id in suppressed_rules(line_text):
                continue
            findings.append(Finding(rel_path, lineno, rule_id, message))
    return findings


def collect_files(root, explicit_paths):
    if explicit_paths:
        rels = []
        for p in explicit_paths:
            ap = os.path.abspath(p)
            rels.append(os.path.relpath(ap, root))
        return rels
    rels = []
    for scan_dir in SCAN_DIRS:
        top = os.path.join(root, scan_dir)
        for dirpath, _, filenames in os.walk(top):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    rels.append(
                        os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(rels)


def main(argv):
    parser = argparse.ArgumentParser(
        description="fastft project-invariant linter")
    parser.add_argument("paths", nargs="*",
                        help="specific files to lint (default: the tree)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, _, description in RULES:
            print(f"{rule_id:20s} {description}")
        return 0

    root = os.path.abspath(
        args.root if args.root
        else os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    if not os.path.isdir(root):
        print(f"fastft_lint: no such root: {root}", file=sys.stderr)
        return 2

    findings = []
    for rel_path in collect_files(root, args.paths):
        findings.extend(lint_file(root, rel_path))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding)
    if findings:
        print(f"fastft_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
