#!/usr/bin/env python3
"""Static analyzer for the fastft tree: the one checker behind the
determinism contract.

It lexes every translation unit once with a real tokenizer (comments, string
literals, raw strings, and preprocessor lines are classified exactly once,
not per-regex), builds a cross-file declaration index and the project
#include graph from the token streams, and then runs four passes:

  error-discipline   Every function returning Status or Result<T> anywhere
                     in the tree is indexed by name. Call sites that discard
                     the returned error object as a bare expression statement
                     (including `(void)` casts without a stated reason) are
                     flagged [discarded-status]; `.value()` / `.ValueOrDie()`
                     / unary-* reads of a Result variable with no dominating
                     `.ok()` / `.status()` check in scope are flagged
                     [unchecked-value]. FASTFT_ASSIGN_OR_RETURN and
                     FASTFT_RETURN_NOT_OK call forms are inherently checked.
                     Names also declared with a non-error return type
                     somewhere in the tree are ambiguous without full type
                     resolution and are excluded (documented limitation).

  layer DAG          The #include graph must respect the documented layering
                         common -> {data, nn, ml} -> core
                                -> {baselines, tools, bench, examples}
                     (tests may include anything). Violating edges are
                     [layer-violation] unless listed, with a reason, in the
                     machine-readable allowlist
                     tools/fastft_analyze_allowlist.json. Any include cycle
                     anywhere in the graph is [include-cycle] — cycles break
                     both the layering argument and header self-containment.

  FP determinism     Reassociation-prone floating-point reductions outside
                     the blessed kernel files (src/common/simd_kernels*):
                     std::accumulate / std::reduce / std::inner_product are
                     [fp-reduction]. A for-loop over a container declared
                     unordered in the same file (range-for over it, or an
                     iterator loop from its begin()) is [unordered-iteration]
                     on the `for` line in the scoring paths src/core and
                     src/nn, where any hash-order walk can leak into scores;
                     elsewhere each compound accumulation (`+=` and friends)
                     in its body is [fp-unordered-accumulate]. One loop, one
                     finding, one suppression. CMakeLists.txt files are
                     scanned for flag drift: -ffast-math /
                     -funsafe-math-optimizations / -Ofast /
                     -ffp-contract=fast anywhere, or a top-level
                     CMakeLists.txt missing -ffp-contract=off, are
                     [fp-flag-drift] (the SIMD bit-identity contract forbids
                     FMA contraction, DESIGN.md "SIMD kernels").

  invariants         Token-level project conventions, macro bodies included:
                     [nondeterminism] std::rand / srand / random_device /
                     time(nullptr) / argless clock-now reads (the one clock
                     read, obs::internal::NowNs in src/common/timer.cc,
                     carries the tree's only suppression for it);
                     [raw-mutex] the std::mutex family outside
                     src/common/thread_annotations.h; [pool-fanout]
                     ThreadPool or a ParallelFor( call outside
                     src/common/threadpool.* and src/ml/evaluator.cc, the
                     one fan-out site (tests/ exempt); [raw-intrinsics] SIMD
                     intrinsics or their headers outside
                     src/common/simd_kernels*; [check-user-input]
                     FASTFT_CHECK* in the input-parsing layers
                     (src/data/csv*, src/core/expression_parser*, tools/);
                     [pragma-once] a header without #pragma once.

Suppress a single line with a trailing comment naming the rule(s) and a
non-empty reason; an allow() without a reason suppresses nothing:

    (void)MaybeFlush();  // fastft-analyze: allow(discarded-status): best-effort

(in CMake files: `# fastft-analyze: allow(fp-flag-drift): reason`).

Findings print as "path:line: [rule-id] message", one per line and rule;
exit status is 0 for a clean tree, 1 when there are findings, 2 on usage
errors. Run from anywhere:

    python3 tools/fastft_analyze.py               # analyze src/ tools/ bench/
    python3 tools/fastft_analyze.py --root DIR    # analyze another tree
    python3 tools/fastft_analyze.py file.cc ...   # report on specific files
    python3 tools/fastft_analyze.py --list-rules
    python3 tools/fastft_analyze.py --dump-graph  # include graph as JSON
    python3 tools/fastft_analyze.py --dump-index  # declaration index as JSON
"""

import argparse
import json
import os
import re
import sys

SCAN_DIRS = ("src", "tools", "bench")
SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")

SUPPRESS_RE = re.compile(
    r"fastft-analyze:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\):\s*\S")

DEFAULT_ALLOWLIST = os.path.join("tools", "fastft_analyze_allowlist.json")


def allowed_rules(comment):
    """The rules a comment's `fastft-analyze: allow(<rule>[, <rule>]):
    <reason>` suppresses; without a reason it suppresses nothing."""
    match = SUPPRESS_RE.search(comment)
    if not match:
        return frozenset()
    return frozenset(r.strip() for r in match.group(1).split(","))

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

IDENT_RE = re.compile(r"[A-Za-z_]\w*")
NUMBER_RE = re.compile(r"\.?\d(?:[\w.]|[eEpP][+-])*")
RAW_PREFIXES = {"R", "LR", "uR", "UR", "u8R"}
# Longest-match punctuators the passes care about; everything else falls
# back to a single character.
PUNCTUATORS = (
    "<<=", ">>=", "...", "->*", "::", "->", "++", "--", "<<", ">>", "<=",
    ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=",
)


class Token:
    __slots__ = ("kind", "value", "line")

    def __init__(self, kind, value, line):
        self.kind = kind      # "id" | "num" | "str" | "char" | "punct" | "pp"
        self.value = value
        self.line = line

    def __repr__(self):
        return f"Token({self.kind!r}, {self.value!r}, {self.line})"


class SourceFile:
    """One lexed file: token stream, per-line suppressions, include list."""

    def __init__(self, rel_path, text):
        self.rel_path = rel_path
        self.tokens = []
        self.suppressions = {}   # line -> frozenset of rule ids
        self.includes = []       # (line, quoted include path)
        self._lex(text)

    def _add_comment(self, line, comment_text):
        rules = allowed_rules(comment_text)
        if rules:
            self.suppressions[line] = self.suppressions.get(
                line, frozenset()) | rules

    def _lex(self, text):
        i, n, line = 0, len(text), 1
        tokens = self.tokens
        at_line_start = True
        while i < n:
            c = text[i]
            if c == "\n":
                line += 1
                i += 1
                at_line_start = True
                continue
            if c in " \t\r\v\f":
                i += 1
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                j = text.find("\n", i)
                j = n if j == -1 else j
                self._add_comment(line, text[i:j])
                i = j
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "*":
                j = text.find("*/", i + 2)
                end = n if j == -1 else j + 2
                block = text[i:end]
                for k, part in enumerate(block.split("\n")):
                    self._add_comment(line + k, part)
                line += block.count("\n")
                i = end
                at_line_start = False
                continue
            if c == "#" and at_line_start:
                # Preprocessor logical line (with backslash continuations).
                j = i
                while True:
                    nl = text.find("\n", j)
                    nl = n if nl == -1 else nl
                    if nl > i and text[nl - 1] == "\\":
                        j = nl + 1
                        continue
                    break
                directive = text[i:nl]
                # A // comment on the directive line may carry a suppression.
                comment_at = directive.find("//")
                if comment_at != -1:
                    self._add_comment(
                        line + directive[:comment_at].count("\n"),
                        directive[comment_at:])
                    directive = directive[:comment_at]
                inc = re.search(r'#\s*include\s*"([^"]+)"', directive)
                if inc:
                    self.includes.append((line, inc.group(1)))
                tokens.append(Token("pp", directive.strip(), line))
                line += text.count("\n", i, nl)
                i = nl
                continue
            at_line_start = False
            if c == '"':
                i = self._lex_quoted(text, i, line, '"', "str")
                continue
            if c == "'":
                i = self._lex_quoted(text, i, line, "'", "char")
                continue
            m = IDENT_RE.match(text, i)
            if m:
                ident = m.group(0)
                # Raw string literal: R"delim( ... )delim"
                if ident in RAW_PREFIXES and m.end() < n and \
                        text[m.end()] == '"':
                    close = text.find("(", m.end())
                    delim = text[m.end() + 1:close]
                    terminator = ")" + delim + '"'
                    j = text.find(terminator, close + 1)
                    j = n if j == -1 else j + len(terminator)
                    tokens.append(Token("str", '""', line))
                    line += text.count("\n", i, j)
                    i = j
                    continue
                tokens.append(Token("id", ident, line))
                i = m.end()
                continue
            m = NUMBER_RE.match(text, i)
            if m:
                tokens.append(Token("num", m.group(0), line))
                i = m.end()
                continue
            for p in PUNCTUATORS:
                if text.startswith(p, i):
                    tokens.append(Token("punct", p, line))
                    i += len(p)
                    break
            else:
                tokens.append(Token("punct", c, line))
                i += 1

    def _lex_quoted(self, text, i, line, quote, kind):
        j = i + 1
        n = len(text)
        while j < n:
            if text[j] == "\\":
                j += 2
                continue
            if text[j] == quote:
                j += 1
                break
            if text[j] == "\n":
                break  # unterminated literal: recover at the newline
            j += 1
        self.tokens.append(Token(kind, quote + quote, line))
        return j

    def suppressed(self, line, rule):
        return rule in self.suppressions.get(line, frozenset())

    def code_tokens(self):
        """The token stream with each preprocessor directive followed by its
        own tokens, so a rule also sees the code inside a macro body."""
        out = []
        for tok in self.tokens:
            out.append(tok)
            if tok.kind == "pp":
                out.extend(Token(sub.kind, sub.value, sub.line + tok.line - 1)
                           for sub in SourceFile("", tok.value[1:]).tokens)
        return out


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Declaration index (pass 1 input)
# ---------------------------------------------------------------------------

DECL_SPECIFIERS = {
    "static", "inline", "virtual", "explicit", "constexpr", "consteval",
    "friend", "extern", "typename", "public", "private", "protected",
}
STATEMENT_STARTERS = {";", "{", "}", ":"}
TYPE_KEYWORDS = {
    "void", "bool", "int", "long", "short", "char", "float", "double",
    "auto", "unsigned", "signed", "size_t", "uint8_t", "uint32_t",
    "uint64_t", "int32_t", "int64_t",
}


def _skip_template_args(tokens, i):
    """tokens[i] == '<': returns index just past the matching '>'."""
    depth = 0
    n = len(tokens)
    while i < n:
        v = tokens[i].value
        if v == "<":
            depth += 1
        elif v == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif v == ">>":
            depth -= 2
            if depth <= 0:
                return i + 1
        elif v in (";", "{", "}"):
            return i  # malformed; bail
        i += 1
    return i


def _match_paren(tokens, i):
    """tokens[i] == '(': returns index of the matching ')' or -1."""
    depth = 0
    n = len(tokens)
    while i < n:
        v = tokens[i].value
        if v == "(":
            depth += 1
        elif v == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return -1


class DeclarationIndex:
    """Cross-file index of function names by error-return kind."""

    def __init__(self):
        self.status_fns = {}   # name -> first "file:line" declaring it
        self.result_fns = {}
        self.other_fns = set()  # names declared with a non-error return type

    def ambiguous(self, name):
        return name in self.other_fns

    def kind_of(self, name):
        if name in self.result_fns:
            return "Result"
        if name in self.status_fns:
            return "Status"
        return None

    def add_file(self, src):
        tokens = src.tokens
        n = len(tokens)
        i = 0
        while i < n:
            tok = tokens[i]
            if tok.kind != "id" or tok.value in DECL_SPECIFIERS:
                i += 1
                continue
            # Require a declaration context: statement start, optionally
            # preceded by specifiers / attributes (already consumed above
            # because we only *check* the immediately preceding token).
            prev = tokens[i - 1] if i > 0 else None
            prev_ok = (
                prev is None or prev.kind == "pp"
                or prev.value in STATEMENT_STARTERS
                or prev.value in DECL_SPECIFIERS
                or prev.value == "]"  # trailing ]] of an attribute
            )
            if not prev_ok:
                i += 1
                continue
            kind, j = self._parse_error_type(tokens, i)
            if kind is None:
                # Track non-error declarations of the form `type name(`
                # so same-named functions become ambiguous.
                if tok.value in TYPE_KEYWORDS and i + 2 < n and \
                        tokens[i + 1].kind == "id" and \
                        tokens[i + 2].value == "(":
                    name = tokens[i + 1].value
                    close = _match_paren(tokens, i + 2)
                    if close != -1 and close + 1 < n and \
                            tokens[close + 1].value in (
                                ";", "{", "const", "override", "noexcept",
                                "final"):
                        self.other_fns.add(name)
                i += 1
                continue
            # Optional qualified function name: A::B::Name — keep the last
            # identifier before '('.
            name = None
            k = j
            while k < n and tokens[k].kind == "id":
                name = tokens[k].value
                if k + 1 < n and tokens[k + 1].value == "::":
                    k += 2
                    continue
                k += 1
                break
            if name is None or k >= n or tokens[k].value != "(":
                i += 1
                continue
            close = _match_paren(tokens, k)
            if close == -1 or close + 1 >= n:
                i += 1
                continue
            after = tokens[close + 1].value
            if after not in (";", "{", "const", "override", "noexcept",
                             "final", "="):
                i += 1
                continue
            where = f"{src.rel_path}:{tok.line}"
            if kind == "Status":
                self.status_fns.setdefault(name, where)
            else:
                self.result_fns.setdefault(name, where)
            i = k + 1

    @staticmethod
    def _parse_error_type(tokens, i):
        """If tokens[i..] spells a Status / Result<...> return type
        (optionally namespace-qualified), returns (kind, index past the
        type); else (None, i)."""
        n = len(tokens)
        j = i
        # Namespace qualification: fastft::common::Status etc.
        while j + 1 < n and tokens[j].kind == "id" and \
                tokens[j + 1].value == "::" and \
                tokens[j].value not in ("Status", "Result"):
            j += 2
        if j >= n or tokens[j].kind != "id":
            return None, i
        if tokens[j].value == "Status":
            # `Status::OK(...)` is a factory call, not a return type.
            if j + 1 < n and tokens[j + 1].value == "::":
                return None, i
            return "Status", j + 1
        if tokens[j].value == "Result":
            if j + 1 < n and tokens[j + 1].value == "<":
                end = _skip_template_args(tokens, j + 1)
                return "Result", end
        return None, i


# ---------------------------------------------------------------------------
# Pass 1: error discipline
# ---------------------------------------------------------------------------

CHECK_MARKERS = ("ok", "status")
VALUE_MARKERS = ("value", "ValueOrDie")


def check_error_discipline(src, index):
    tokens = src.tokens
    n = len(tokens)
    # --- discarded calls ---------------------------------------------------
    for i in range(n):
        tok = tokens[i]
        if tok.kind != "id" or i + 1 >= n or tokens[i + 1].value != "(":
            continue
        kind = index.kind_of(tok.value)
        if kind is None or index.ambiguous(tok.value):
            continue
        close = _match_paren(tokens, i + 1)
        if close == -1 or close + 1 >= n or tokens[close + 1].value != ";":
            continue
        # A bare identifier / type token immediately before the name means
        # this is a declaration (`Status Fn(...);`), not a call.
        if i >= 1 and (tokens[i - 1].kind == "id"
                       or tokens[i - 1].value in (">", "*", "&")):
            continue
        # Walk back over the object/namespace qualification chain to the
        # statement start: `a.b->Ns::Fn(...)` all counts as one call chain.
        # Hitting an expression keyword (`return Status::OK();`) means the
        # value is consumed, not discarded.
        j = i - 1
        in_expression = False
        while j >= 0 and (
                tokens[j].kind == "id"
                or tokens[j].value in (".", "->", "::")):
            if tokens[j].kind == "id" and tokens[j].value in (
                    "return", "co_return", "case", "goto", "throw", "new",
                    "delete", "co_yield", "co_await"):
                in_expression = True
                break
            j -= 1
        if in_expression:
            continue
        explicit_void = False
        if j >= 2 and tokens[j].value == ")" and \
                tokens[j - 1].value == "void" and tokens[j - 2].value == "(":
            explicit_void = True
            j -= 3
        before = tokens[j] if j >= 0 else None
        if before is not None and before.kind != "pp" and \
                before.value not in STATEMENT_STARTERS:
            continue
        detail = ("`(void)` discards the error without a stated reason"
                  if explicit_void else "return value silently discarded")
        yield tok.line, "discarded-status", (
            f"call to '{tok.value}' (returns {kind}, declared at "
            f"{index.status_fns.get(tok.value) or index.result_fns.get(tok.value)}) "
            f"{detail}; handle it, propagate with FASTFT_RETURN_NOT_OK / "
            "FASTFT_ASSIGN_OR_RETURN, or suppress with a reason: "
            "// fastft-analyze: allow(discarded-status): <why>")

    # --- unchecked Result reads -------------------------------------------
    depth = 0
    tracked = {}  # var name -> {"depth": int, "checked": bool, "line": int}
    for i in range(n):
        tok = tokens[i]
        v = tok.value
        if v == "{":
            depth += 1
        elif v == "}":
            depth -= 1
            tracked = {name: info for name, info in tracked.items()
                       if info["depth"] <= depth}
        if tok.kind != "id":
            continue
        # New tracked variable: `auto var = <expr with Result call>` or
        # `Result<T> var = ...` / `auto var = std::move(r).ValueOrDie()`.
        if i + 1 < n and tokens[i + 1].value == "=" and i >= 1:
            declared_result = False
            p = tokens[i - 1]
            if p.value == "auto" or (p.value == ">" and
                                     _looks_like_result_decl(tokens, i - 1)):
                rhs_kind = _rhs_result_call(tokens, i + 2, index)
                declared_result = (p.value != "auto") or rhs_kind
                if declared_result:
                    tracked[v] = {"depth": depth, "checked": False,
                                  "line": tok.line}
            continue
        if v in tracked and i + 2 < n and tokens[i + 1].value in (".", "->"):
            member = tokens[i + 2].value
            if member in CHECK_MARKERS:
                tracked[v]["checked"] = True
            elif member in VALUE_MARKERS and not tracked[v]["checked"]:
                yield tok.line, "unchecked-value", (
                    f"'{v}.{member}()' without a dominating '{v}.ok()' "
                    f"check ('{v}' holds a Result assigned at line "
                    f"{tracked[v]['line']}); check ok() first, or use "
                    "FASTFT_ASSIGN_OR_RETURN")
                tracked[v]["checked"] = True  # report once per variable
        elif v in tracked and i >= 1 and tokens[i - 1].value == "*" and \
                (i < 2 or tokens[i - 2].value in
                 ("=", "(", ",", "return", ";", "{")):
            if not tracked[v]["checked"]:
                yield tok.line, "unchecked-value", (
                    f"'*{v}' dereferences a Result without a dominating "
                    f"'{v}.ok()' check")
                tracked[v]["checked"] = True


def _looks_like_result_decl(tokens, close_idx):
    """tokens[close_idx] == '>': True if it closes `Result<...>`."""
    depth = 0
    i = close_idx
    while i >= 0:
        v = tokens[i].value
        if v == ">":
            depth += 1
        elif v == "<":
            depth -= 1
            if depth == 0:
                return i >= 1 and tokens[i - 1].value == "Result"
        elif v in (";", "{", "}"):
            return False
        i -= 1
    return False


def _rhs_result_call(tokens, i, index):
    """True if the expression from i to the next ';' calls an indexed
    Result-returning function."""
    n = len(tokens)
    while i < n and tokens[i].value != ";":
        if tokens[i].kind == "id" and i + 1 < n and \
                tokens[i + 1].value == "(" and \
                index.kind_of(tokens[i].value) == "Result" and \
                not index.ambiguous(tokens[i].value):
            return True
        i += 1
    return False


# ---------------------------------------------------------------------------
# Pass 2: include-layer DAG
# ---------------------------------------------------------------------------

# Documented layering (DESIGN.md §10): each layer may include itself and the
# layers listed. tools/bench/examples/tests sit at the top and may include
# anything.
LAYER_DAG = {
    "common": set(),
    "data": {"common"},
    "nn": {"common"},
    "ml": {"common"},
    "core": {"common", "data", "nn", "ml"},
    "baselines": {"common", "data", "nn", "ml", "core"},
}
TOP_LAYERS = {"tools", "bench", "examples", "tests"}


def layer_of(rel_path):
    parts = rel_path.split(os.sep)
    if parts[0] == "src" and len(parts) > 1:
        return parts[1]
    return parts[0]


def resolve_include(root, includer_rel, inc_path):
    """Maps a quoted include to a repo-relative path, or None if external."""
    candidate = os.path.join("src", *inc_path.split("/"))
    if os.path.isfile(os.path.join(root, candidate)):
        return candidate
    sibling = os.path.normpath(
        os.path.join(os.path.dirname(includer_rel), *inc_path.split("/")))
    if os.path.isfile(os.path.join(root, sibling)):
        return sibling
    return None


def load_allowlist(root, path):
    full = os.path.join(root, path) if not os.path.isabs(path) else path
    if not os.path.isfile(full):
        return {"layer_edges": {}, "file_edges": {}}
    with open(full, encoding="utf-8") as f:
        raw = json.load(f)
    layer_edges = {}
    for entry in raw.get("layer_edges", []):
        layer_edges[(entry["from"], entry["to"])] = entry.get("reason", "")
    file_edges = {}
    for entry in raw.get("file_edges", []):
        file_edges[(entry["from"], entry["to"])] = entry.get("reason", "")
    return {"layer_edges": layer_edges, "file_edges": file_edges}


def check_layering(root, sources, allowlist):
    """Yields (rel_path, line, rule, message) for DAG violations + cycles."""
    graph = {}  # rel_path -> [(line, target_rel)]
    for src in sources.values():
        edges = []
        for line, inc in src.includes:
            target = resolve_include(root, src.rel_path, inc)
            if target is not None:
                edges.append((line, target))
        graph[src.rel_path] = edges

    for rel, edges in sorted(graph.items()):
        src_layer = layer_of(rel)
        if src_layer in TOP_LAYERS or src_layer not in LAYER_DAG:
            continue
        allowed = LAYER_DAG[src_layer] | {src_layer}
        for line, target in edges:
            dst_layer = layer_of(target)
            if dst_layer in allowed:
                continue
            if (src_layer, dst_layer) in allowlist["layer_edges"]:
                continue
            if (rel.replace(os.sep, "/"),
                    target.replace(os.sep, "/")) in allowlist["file_edges"]:
                continue
            yield rel, line, "layer-violation", (
                f"'{src_layer}' may not include '{dst_layer}' "
                f"({target.replace(os.sep, '/')}): the documented layering is "
                "common -> {data, nn, ml} -> core -> {baselines, tools, "
                "bench}; add a reasoned entry to "
                f"{DEFAULT_ALLOWLIST} if this edge is legitimate")

    # Cycle detection (iterative Tarjan SCC) over the whole include graph.
    indices, low, on_stack = {}, {}, set()
    stack, sccs = [], []
    counter = [0]

    def strongconnect(v0):
        work = [(v0, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                indices[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack.add(v)
            recurse = False
            edges = graph.get(v, [])
            for idx in range(pi, len(edges)):
                w = edges[idx][1]
                if w not in graph:
                    continue
                if w not in indices:
                    work[-1] = (v, idx + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], indices[w])
            if recurse:
                continue
            if low[v] == indices[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                if len(scc) > 1 or any(t == v for _, t in graph.get(v, [])):
                    sccs.append(sorted(scc))
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    for v in sorted(graph):
        if v not in indices:
            strongconnect(v)

    for scc in sccs:
        head = scc[0]
        in_scc = set(scc)
        line = next((ln for ln, t in graph.get(head, []) if t in in_scc), 1)
        cycle = " -> ".join(p.replace(os.sep, "/") for p in scc)
        yield head, line, "include-cycle", (
            f"include cycle: {cycle}; headers in a cycle cannot be "
            "self-contained and break the layer DAG")


# ---------------------------------------------------------------------------
# Pass 3: FP determinism
# ---------------------------------------------------------------------------

FP_REDUCERS = {"accumulate", "reduce", "inner_product", "transform_reduce"}
KERNEL_PREFIX = os.path.join("src", "common", "simd_kernels")
UNORDERED_KINDS = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}
COMPOUND_ASSIGN = {"+=", "-=", "*=", "/="}
SCORING_PREFIXES = tuple(os.path.join("src", d) + os.sep for d in ("core", "nn"))


def check_fp_determinism(src):
    if src.rel_path.startswith(KERNEL_PREFIX):
        return
    tokens = src.tokens
    n = len(tokens)
    # std:: reduction algorithms — reassociation order is the algorithm's
    # choice, not the caller's; deterministic code spells the loop out.
    for i in range(n):
        tok = tokens[i]
        if tok.kind == "id" and tok.value in FP_REDUCERS and \
                i >= 2 and tokens[i - 1].value == "::" and \
                tokens[i - 2].value == "std" and \
                i + 1 < n and tokens[i + 1].value in ("(", "<"):
            yield tok.line, "fp-reduction", (
                f"std::{tok.value} owns the combination order of a "
                "floating-point reduction; write an index-order loop (or a "
                "fastft::simd kernel) so the summation order is pinned")


def unordered_loops(tokens):
    """Yields (for token, container name, body tokens) for every for-loop
    over a container declared unordered in this file: a range-for whose
    range expression ends in its name, or an iterator loop whose header
    calls its begin()/cbegin(). The one unordered-container scan behind
    both [unordered-iteration] and [fp-unordered-accumulate]."""
    n = len(tokens)
    unordered_vars = set()
    for i in range(n):
        if tokens[i].kind == "id" and tokens[i].value in UNORDERED_KINDS:
            j = i + 1
            if j < n and tokens[j].value == "<":
                j = _skip_template_args(tokens, j)
            while j < n and (tokens[j].value in ("&", "*", "const")):
                j += 1
            if j < n and tokens[j].kind == "id":
                unordered_vars.add(tokens[j].value)
    if not unordered_vars:
        return
    for i in range(n - 1):
        if tokens[i].value != "for" or tokens[i + 1].value != "(":
            continue
        close = _match_paren(tokens, i + 1)
        if close == -1:
            continue
        head = tokens[i + 2:close]
        names = {t.value for k, t in enumerate(head[:-3])
                 if t.kind == "id" and head[k + 1].value in (".", "->")
                 and head[k + 2].value in ("begin", "cbegin")
                 and head[k + 3].value == "("}
        values = [t.value for t in head]
        if ":" in values and ";" not in values and head[-1].kind == "id":
            names.add(head[-1].value)
        name = min(names & unordered_vars, default=None)
        if name is None:
            continue
        # The body: a brace block or a single statement.
        j = close + 1
        depth = 0
        while j < n:
            v = tokens[j].value
            depth += (v == "{") - (v == "}")
            if depth == 0 and v in (";", "}"):
                break
            j += 1
        yield tokens[i], name, tokens[close + 1:j + 1]


def check_unordered_loops(src):
    """One finding per hash-order loop: [unordered-iteration] on the `for`
    line in the scoring paths, else [fp-unordered-accumulate] on each
    compound accumulation in its body."""
    if src.rel_path.startswith(KERNEL_PREFIX):
        return
    scoring = src.rel_path.startswith(SCORING_PREFIXES)
    for for_tok, name, body in unordered_loops(src.tokens):
        if scoring:
            yield for_tok.line, "unordered-iteration", (
                f"iterating unordered container '{name}' in a scoring path: "
                "hash order is implementation-defined; copy keys into a "
                "sorted container first")
            continue
        for tok in body:
            if tok.value in COMPOUND_ASSIGN:
                yield tok.line, "fp-unordered-accumulate", (
                    "compound accumulation inside a loop over unordered "
                    f"container '{name}': hash order is "
                    "implementation-defined and becomes the summation "
                    "order; iterate sorted keys instead")


CMAKE_BAD_FLAGS = ("-ffast-math", "-funsafe-math-optimizations", "-Ofast",
                   "-ffp-contract=fast", "-ffp-contract=on")


def check_cmake_flags(root):
    """Yields (rel_path, line, rule, message) for CMake FP flag drift."""
    cmake_files = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if not d.startswith("build") and d != ".git"]
        if "CMakeLists.txt" in filenames:
            cmake_files.append(
                os.path.relpath(os.path.join(dirpath, "CMakeLists.txt"),
                                root))
    for rel in sorted(cmake_files):
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            lines = f.read().splitlines()
        has_contract_off = False
        for lineno, line in enumerate(lines, start=1):
            code, _, comment = line.partition("#")
            suppressed = allowed_rules(comment)
            if "-ffp-contract=off" in code:
                has_contract_off = True
            for flag in CMAKE_BAD_FLAGS:
                if flag in code and "fp-flag-drift" not in suppressed:
                    yield rel, lineno, "fp-flag-drift", (
                        f"'{flag}' licenses the compiler to reassociate/"
                        "contract FP math, breaking bit-identity across "
                        "ISAs and thread counts (DESIGN.md 'SIMD kernels')")
        if rel == "CMakeLists.txt" and not has_contract_off:
            first = lines[0] if lines else ""
            if "fp-flag-drift" not in allowed_rules(first.partition("#")[2]):
                yield rel, 1, "fp-flag-drift", (
                    "top-level CMakeLists.txt does not set -ffp-contract=off; "
                    "without it FMA contraction silently differs between "
                    "scalar and SIMD builds")


# ---------------------------------------------------------------------------
# Pass 4: project invariants
# ---------------------------------------------------------------------------

USER_INPUT_PREFIXES = (
    os.path.join("src", "data", "csv"),
    os.path.join("src", "core", "expression_parser"),
    "tools" + os.sep,
)
RAW_MUTEX_EXEMPT = os.path.join("src", "common", "thread_annotations.h")
RAW_MUTEX_TYPES = {
    "mutex", "recursive_mutex", "recursive_timed_mutex", "timed_mutex",
    "shared_mutex", "shared_timed_mutex", "lock_guard", "unique_lock",
    "scoped_lock", "shared_lock", "condition_variable",
    "condition_variable_any",
}
# The shared pool fans out from one place: the evaluator's folds and
# batches. Tests drive private pools directly.
POOL_FANOUT_EXEMPT = (
    os.path.join("src", "common", "threadpool."),
    os.path.join("src", "ml", "evaluator.cc"),
    "tests" + os.sep,
)
CLOCK_RE = re.compile(r"[A-Za-z_]\w*_clock|Clock")
INTRINSIC_RE = re.compile(
    r"_mm(?:256|512)?_[a-z0-9_]+"
    r"|v(?:ld1|st1|add|sub|mul|fma|mla|dup|get|set)q?_[a-z0-9_]+")
INTRINSIC_HEADER_RE = re.compile(
    r"#\s*include\s*[<\"](?:immintrin|arm_neon|x86intrin|xmmintrin|emmintrin|"
    r"pmmintrin|tmmintrin|smmintrin|nmmintrin|avxintrin|avx2intrin)\.h[>\"]")
CHECK_MACRO_RE = re.compile(r"FASTFT_CHECK(?:_[A-Z]+)*")
PRAGMA_ONCE_RE = re.compile(r"#\s*pragma\s+once")


def _nondeterminism_source(v):
    """v: the values of up to five tokens; returns why they start an
    unseeded-randomness or clock read, else None."""
    if v[:3] == ["std", "::", "rand"]:
        return "std::rand is unseeded global state"
    if v[:2] == ["srand", "("]:
        return "srand mutates global RNG state"
    if v[0] == "random_device":
        return "std::random_device is nondeterministic entropy"
    if v[:2] == ["time", "("] and v[2:4] in (
            ["nullptr", ")"], ["NULL", ")"], ["0", ")"]):
        return "time(nullptr) reads the wall clock"
    if CLOCK_RE.fullmatch(v[0]) and v[1:5] == ["::", "now", "(", ")"]:
        return "argless clock-now read"
    return None


def check_invariants(src):
    rel = src.rel_path
    kernel = rel.startswith(KERNEL_PREFIX)
    pool_exempt = rel.startswith(POOL_FANOUT_EXEMPT)
    if rel.endswith(".h") and not any(
            t.kind == "pp" and PRAGMA_ONCE_RE.fullmatch(t.value)
            for t in src.tokens):
        yield 1, "pragma-once", "header is missing #pragma once"
    tokens = src.code_tokens()
    values = [t.value for t in tokens]
    for i, tok in enumerate(tokens):
        if tok.kind == "pp" and not kernel and \
                INTRINSIC_HEADER_RE.search(tok.value):
            yield tok.line, "raw-intrinsics", (
                f"'{tok.value}' pulls SIMD intrinsics in outside the blessed "
                "kernel files; call the fastft::simd entry points "
                "(src/common/simd_kernels.h) so the bit-identity contract "
                "and per-TU ISA flags stay enforceable")
        if tok.kind != "id":
            continue
        why = _nondeterminism_source(values[i:i + 5])
        if why:
            yield tok.line, "nondeterminism", (
                f"{why}; derive randomness from a seeded fastft::Rng and "
                "time from WallTimer or FASTFT_TRACE_SPAN, which read the "
                "one clock (obs::internal::NowNs, src/common/timer.h)")
        if values[i:i + 2] == ["std", "::"] and i + 2 < len(values) and \
                values[i + 2] in RAW_MUTEX_TYPES and rel != RAW_MUTEX_EXEMPT:
            yield tok.line, "raw-mutex", (
                f"std::{values[i + 2]} bypasses the annotated wrappers; use "
                "fastft::common::Mutex / MutexLock / CondVar "
                "(src/common/thread_annotations.h) so -Wthread-safety can "
                "check the lock discipline")
        if not pool_exempt and (
                tok.value == "ThreadPool" or
                (tok.value == "ParallelFor" and values[i + 1:i + 2] == ["("])):
            yield tok.line, "pool-fanout", (
                f"'{tok.value}' outside src/common/threadpool.* and "
                "src/ml/evaluator.cc; the shared pool fans out only over the "
                "evaluator's folds and batches (DESIGN.md \"Concurrency "
                "model\"), so take an EvaluatorConfig::num_threads instead")
        if values[i + 1:i + 2] != ["("]:
            continue
        if not kernel and INTRINSIC_RE.fullmatch(tok.value):
            yield tok.line, "raw-intrinsics", (
                f"'{tok.value}(' is a raw SIMD intrinsic outside the blessed "
                "kernel files; call the fastft::simd entry points "
                "(src/common/simd_kernels.h) so the bit-identity contract "
                "and per-TU ISA flags stay enforceable")
        if rel.startswith(USER_INPUT_PREFIXES) and \
                CHECK_MACRO_RE.fullmatch(tok.value):
            yield tok.line, "check-user-input", (
                "CHECK in an input-parsing layer aborts on malformed user "
                "input; return a Status (common/status.h) instead")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

RULES = [
    ("discarded-status",
     "Status/Result<T> return value dropped at a call site"),
    ("unchecked-value",
     ".value()/operator* on a Result without a dominating ok() check"),
    ("layer-violation",
     "#include edge violating common -> {data,nn,ml} -> core -> "
     "{baselines,tools,bench}"),
    ("include-cycle", "cycle in the project #include graph"),
    ("fp-reduction",
     "std::accumulate/reduce/inner_product outside src/common/simd_kernels*"),
    ("unordered-iteration",
     "hash-order loop in the src/core and src/nn scoring paths"),
    ("fp-unordered-accumulate",
     "FP compound accumulation in a hash-order loop elsewhere"),
    ("fp-flag-drift",
     "-ffast-math family in CMake, or missing -ffp-contract=off"),
    ("nondeterminism",
     "unseeded randomness / clock reads outside the one clock read"),
    ("raw-mutex", "raw std::mutex family bypassing the annotated wrappers"),
    ("pool-fanout",
     "ThreadPool/ParallelFor outside the pool and src/ml/evaluator.cc"),
    ("raw-intrinsics",
     "SIMD intrinsics outside the blessed src/common/simd_kernels* files"),
    ("check-user-input",
     "CHECK on user input in parsing layers (must return Status)"),
    ("pragma-once", "headers must contain #pragma once"),
]


def collect_files(root, explicit_paths):
    if explicit_paths:
        return [os.path.relpath(os.path.abspath(p), root)
                for p in explicit_paths]
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
        description="fastft semantic static analyzer")
    parser.add_argument("paths", nargs="*",
                        help="specific files to analyze (default: the tree; "
                             "the declaration index and include graph are "
                             "always built from the whole tree)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--allowlist", default=DEFAULT_ALLOWLIST,
                        help="layer-DAG allowlist JSON (relative to root)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--dump-graph", action="store_true",
                        help="print the include graph + layers as JSON")
    parser.add_argument("--dump-index", action="store_true",
                        help="print the Status/Result declaration index")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, description in RULES:
            print(f"{rule_id:24s} {description}")
        return 0

    root = os.path.abspath(
        args.root if args.root
        else os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    if not os.path.isdir(root):
        print(f"fastft_analyze: no such root: {root}", file=sys.stderr)
        return 2

    # Lex every file in the scan set once; the index and graph are always
    # whole-tree even when only specific paths are being reported on.
    all_rels = collect_files(root, None)
    report_rels = set(collect_files(root, args.paths))
    sources = {}
    for rel in sorted(set(all_rels) | report_rels):
        path = os.path.join(root, rel)
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(Finding(rel, 0, "io", str(e)))
            return 1
        sources[rel] = SourceFile(rel, text)

    index = DeclarationIndex()
    for src in sources.values():
        index.add_file(src)

    if args.dump_index:
        print(json.dumps({
            "status": dict(sorted(index.status_fns.items())),
            "result": dict(sorted(index.result_fns.items())),
            "ambiguous": sorted(
                n for n in index.other_fns
                if n in index.status_fns or n in index.result_fns),
        }, indent=2))
        return 0

    allowlist = load_allowlist(root, args.allowlist)

    if args.dump_graph:
        graph = {}
        for rel, src in sorted(sources.items()):
            edges = []
            for line, inc in src.includes:
                target = resolve_include(root, rel, inc)
                if target is not None:
                    edges.append(target.replace(os.sep, "/"))
            graph[rel.replace(os.sep, "/")] = {
                "layer": layer_of(rel), "includes": sorted(edges)}
        print(json.dumps(graph, indent=2))
        return 0

    findings = []
    seen = set()

    def emit(rel, line, rule, message):
        src = sources.get(rel)
        if src is not None and src.suppressed(line, rule):
            return
        if rel not in report_rels and not rel.endswith("CMakeLists.txt"):
            return
        if (rel, line, rule) not in seen:
            seen.add((rel, line, rule))
            findings.append(Finding(rel, line, rule, message))

    for rel, src in sorted(sources.items()):
        for check in (check_fp_determinism, check_unordered_loops,
                      check_invariants):
            for line, rule, message in check(src):
                emit(rel, line, rule, message)
        for line, rule, message in check_error_discipline(src, index):
            emit(rel, line, rule, message)

    for rel, line, rule, message in check_layering(root, sources, allowlist):
        emit(rel, line, rule, message)

    if not args.paths:
        # CMake drift is a whole-tree property; skip it when the caller
        # asked about specific files only.
        for rel, line, rule, message in check_cmake_flags(root):
            findings.append(Finding(rel, line, rule, message))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding)
    if findings:
        print(f"fastft_analyze: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
