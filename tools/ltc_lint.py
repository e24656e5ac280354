#!/usr/bin/env python3
"""Determinism & concurrency lint for the ltc tree (DESIGN.md §14).

Every guarantee this repo ships — assignment logs pinned per --shards,
bit-exact snapshot recovery — depends on code-level
contracts no compiler checks by default: serialize paths must not iterate
hash containers, persisted floats must round-trip bit-exactly, nothing in
the library may consult ambient randomness or the wall clock, and a
returned Status must never be dropped on the floor. This lint makes those
contracts mechanical.

Rules (ids appear in findings and in suppression comments):

  unordered-iteration  Range-for / .begin() iteration over a
                       std::unordered_map/set inside a determinism-sensitive
                       function (Serialize*/Snapshot*/FormatEventRecord/...).
                       Route through common::SortedKeys instead.
  address-ordering     reinterpret_cast to (u)intptr_t or std::hash over a
                       pointer type: address-based order/hash is different
                       every run (ASLR), so it can never feed a
                       deterministic output.
  banned-randomness    rand()/srand()/drand48()/random()/std::random_device,
                       gettimeofday()/time()/system_clock::now outside
                       common/random.* and common/timer.h — all randomness
                       flows through common::Random (seeded, mixable), all
                       timing through common::Timer (steady_clock).
  float-format         A float conversion other than %.17g, or a
                       std::to_chars format other than (chars_format::general,
                       17), in a determinism-sensitive function: 17
                       significant digits is the shortest fixed precision
                       that round-trips every finite double. The snapshot
                       codec's one double writer (common/state_archive.cc
                       FormatReal) is such a function.
  unchecked-status     A bare call statement to a function returning
                       Status/StatusOr. The compiler enforces this too
                       ([[nodiscard]] + -Werror in CI); the lint catches it
                       on any compiler and names the rule to suppress.
                       Intentional discards go through LTC_IGNORE_STATUS.
  raw-std-mutex        A naked std::mutex / condition_variable / lock_guard
                       / unique_lock in src/: annotated code uses
                       common::Mutex / MutexLock / CondVar
                       (common/thread_annotations.h) so -Wthread-safety can
                       see the capability.
  nodiscard-status     common/status.h must keep class Status and StatusOr
                       declared [[nodiscard]] (the compile-time half of
                       unchecked-status).
  test-only-module     A header under src/ that nothing but its own .cc and
                       tests/ includes: src/ ships what the serving system,
                       benches and examples use. Reference code that only
                       tests compare against lives in tests/oracles/.
  number-parse         strto*/ato*/sto*/*scanf, or a '>>' read from an input
                       stream, in src/ outside common/line_scanner.cc: every
                       persisted format is read by the one line scanner, and
                       a number by its field parsers (ParseDouble,
                       ParseInt64), so no reader drifts from the one rule.

Suppressions, each requiring a justification in the trailing text:
  // ltc-lint: allow(rule-id) <why>          — this line and the next
  // ltc-lint: allow-file(rule-id) <why>     — the whole file

Engine: a libclang pass verifies unchecked-status findings when the clang
python bindings are importable; everything else (and the fallback for
unchecked-status) is a comment/string-stripping, scope-tracking AST-lite
scanner with no dependencies beyond the stdlib, so the lint runs anywhere
the repo builds.

Usage:
    tools/ltc_lint.py [--root REPO_ROOT] [--force-fallback]
    tools/ltc_lint.py --selftest

Exit status 0 when clean, 1 with one line per finding otherwise.
"""

import argparse
import os
import re
import sys
import tempfile

SOURCE_DIRS = ["src", "tests", "bench", "examples"]
SOURCE_EXTS = (".h", ".cc")

# The canonical rule roster. tools/doc_lint.py parses this tuple and
# requires every id to be documented in DESIGN.md §14's rule table, so a
# new rule cannot land undocumented.
RULE_IDS = (
    "unordered-iteration",
    "address-ordering",
    "banned-randomness",
    "float-format",
    "unchecked-status",
    "raw-std-mutex",
    "nodiscard-status",
    "test-only-module",
    "number-parse",
)

# Function names whose bodies feed persisted, byte-compared artifacts
# (snapshots, the WAL, serialized forecast/scheduler state). Every state
# object's snapshot layout is one Serialize(StateArchive&); FormatReal is
# the archive's double writer.
SENSITIVE_FN_RE = re.compile(
    r"^(Serialize\w*|\w*Snapshot\w*|FormatEventRecord|WriteManifest|"
    r"FormatReal)$")

# Directories whose includes make a src/ header shipped code (tests/ is
# deliberately absent: a module only tests reach is the test-only-module
# finding).
SHIPPING_DIRS = ["src", "bench", "examples", "perfbench"]
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)

# Files allowed to touch ambient randomness / the wall clock.
RANDOMNESS_ALLOWED = {
    os.path.join("src", "common", "random.h"),
    os.path.join("src", "common", "random.cc"),
    os.path.join("src", "common", "timer.h"),
}

# The annotated-primitive convention applies to the library; tests and
# benches may use std primitives directly (they are not part of the
# -Wthread-safety surface).
RAW_MUTEX_SCOPE = "src"
RAW_MUTEX_ALLOWED = {os.path.join("src", "common", "thread_annotations.h")}

# Text is read by the one line scanner; numbers by its field parsers.
NUMBER_PARSE_SCOPE = "src"
NUMBER_PARSE_ALLOWED = {os.path.join("src", "common", "line_scanner.cc")}
C_NUMBER_PARSE_RE = re.compile(
    r"\b(?:strto(?:d|f|ld|l|ll|ul|ull|imax|umax)|ato(?:i|l|ll|f)|"
    r"sto(?:i|l|ll|ul|ull|f|d|ld)|v?[sf]?scanf)\s*\(")
# Input stream variables and parameters (std::istream& in, ifstream f, ...),
# whose '>>' is a read; other '>>' are shifts and template closers.
INPUT_STREAM_DECL_RE = re.compile(
    r"\b(?:std::)?(?:i|if|istring|string|f|io)?stream\s*&?\s*"
    r"([A-Za-z_]\w*)")

ALLOW_RE = re.compile(r"ltc-lint:\s*allow\(([a-z0-9-]+)\)")
ALLOW_FILE_RE = re.compile(r"ltc-lint:\s*allow-file\(([a-z0-9-]+)\)")

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "do", "else", "try", "catch", "return",
}
SCOPE_KEYWORDS = {"namespace", "class", "struct", "union", "enum"}


class Finding(object):
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self, root):
        rel = os.path.relpath(self.path, root)
        return "%s:%d: [%s] %s" % (rel, self.line, self.rule, self.message)


# ---------------------------------------------------------------------------
# AST-lite scanner: comment/string stripping + scope tracking.


def strip_comments_and_strings(text):
    """Blanks comments and string/char literal contents, preserving layout.

    Newlines survive (so line numbers hold) and literal delimiters survive
    (so format strings stay findable as "...": their *contents* are kept for
    '%'-scanning but cannot open comments or braces because the scanner
    below never enters them).
    """
    out = []
    i = 0
    n = len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"' or c == "'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
            i += 1
        else:  # inside a literal
            if c == "\\" and nxt:
                # Keep escapes opaque (a \" must not close the literal).
                out.append("\\" + ("\n" if nxt == "\n" else " "))
                i += 2
                continue
            if c == state:
                state = None
            out.append(c)
            i += 1
    return "".join(out)


def collect_allows(text):
    """Per-line and file-level rule suppressions from lint comments."""
    line_allows = {}
    file_allows = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        for rule in ALLOW_FILE_RE.findall(line):
            file_allows.add(rule)
        for rule in ALLOW_RE.findall(line):
            # A suppression covers its own line and the one after it, so it
            # can ride on the preceding comment line.
            line_allows.setdefault(lineno, set()).add(rule)
            line_allows.setdefault(lineno + 1, set()).add(rule)
    return line_allows, file_allows


FN_NAME_RE = re.compile(r"([A-Za-z_~]\w*(?:\s*::\s*[A-Za-z_~]\w*)*)\s*\(")


def _scope_for_pending(pending, enclosing_fn):
    """Classifies the scope a '{' opens, given the text since the last
    statement boundary. Returns (kind, fn_name) with kind in
    {'fn', 'block', 'type', 'ns'}."""
    s = pending.strip()
    first = re.match(r"[A-Za-z_]\w*", s)
    first_word = first.group(0) if first else ""
    if first_word in SCOPE_KEYWORDS:
        return ("ns" if first_word == "namespace" else "type", enclosing_fn)
    if "(" not in s:
        return ("block", enclosing_fn)
    if first_word in CONTROL_KEYWORDS or "](" in s.replace(" ", ""):
        return ("block", enclosing_fn)
    if "=" in s.split("(", 1)[0]:
        # `auto x = expr{...}` style initializer.
        return ("block", enclosing_fn)
    m = FN_NAME_RE.search(s)
    if m is None:
        return ("block", enclosing_fn)
    name = re.split(r"\s*::\s*", m.group(1))[-1]
    if name in CONTROL_KEYWORDS:
        return ("block", enclosing_fn)
    return ("fn", name)


class Statement(object):
    def __init__(self, line, fn, text):
        self.line = line
        self.fn = fn  # innermost enclosing function name ('' at file scope)
        self.text = text


def split_statements(stripped):
    """Statements with their line number and enclosing function.

    A statement is the text between ;/{/} boundaries (paren depth 0 for the
    ';' case, so for(;;) headers stay whole). Range-for and control headers
    are emitted as their own statements when their block opens.
    """
    statements = []
    scope_stack = []  # (kind, fn_name)
    pending = []
    pending_line = [1]
    line = 1
    paren = 0

    def current_fn():
        for kind, name in reversed(scope_stack):
            if kind == "fn":
                return name
        return ""

    def flush(as_statement):
        text = "".join(pending).strip()
        if as_statement and text:
            statements.append(Statement(pending_line[0], current_fn(), text))
        del pending[:]
        pending_line[0] = line

    for c in stripped:
        if c == "\n":
            line += 1
            pending.append(" ")
            if not "".join(pending).strip():
                pending_line[0] = line
            continue
        if c == "(":
            paren += 1
        elif c == ")":
            paren = max(0, paren - 1)
        elif c == ";" and paren == 0:
            pending.append(c)
            flush(True)
            continue
        elif c == "{" and paren == 0:
            kind, fn = _scope_for_pending("".join(pending), current_fn())
            # Control headers (for/if/while...) are statements in their own
            # right — the range-for header is what unordered-iteration scans.
            flush(kind == "block")
            scope_stack.append((kind, fn))
            continue
        elif c == "}" and paren == 0:
            flush(False)
            if scope_stack:
                scope_stack.pop()
            continue
        pending.append(c)
    flush(False)
    return statements


# ---------------------------------------------------------------------------
# Symbol tables built across the whole tree.


def _template_var_names(text, opener):
    """Names of variables declared with a template type, e.g.
    `std::unordered_map<K, V> name` — brackets matched by hand so nested
    template arguments survive."""
    names = set()
    start = 0
    while True:
        idx = text.find(opener, start)
        if idx < 0:
            break
        i = idx + len(opener)
        depth = 1
        while i < len(text) and depth > 0:
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
            i += 1
        m = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*(?:;|=|\{|,|\))", text[i:])
        if m:
            names.add(m.group(1))
        start = i
    return names


def unordered_vars(all_texts):
    names = set()
    for text in all_texts:
        for opener in ("unordered_map<", "unordered_set<"):
            names |= _template_var_names(text, opener)
    return names


STATUS_DECL_RE = re.compile(
    r"\b(?:Status|StatusOr<[^;{}=()]*>)\s+(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\(")
# Any `Type name(` pair: used to disqualify names that are *also* declared
# with a non-Status return type somewhere (e.g. TaskId AddTask() vs
# StatusOr<TaskId> AddTask(...)) — an ambiguous name would make the
# statement scan guess, so it is skipped instead.
ANY_DECL_RE = re.compile(
    r"\b([A-Za-z_][\w:]*(?:<[^<>;(){}]*>)?)\s+(?:[A-Za-z_]\w*::)*"
    r"([A-Za-z_]\w*)\s*\(")
NOT_A_TYPE = {
    "return", "new", "delete", "throw", "else", "case", "goto", "co_return",
    "co_await", "co_yield", "sizeof", "typedef", "using", "template",
    "typename", "operator", "if", "for", "while", "switch", "do",
}


def status_function_names(all_texts):
    """Names returning Status/StatusOr, minus names that are also declared
    with another return type somewhere (ambiguous overloads would make the
    statement scan guess)."""
    status_fns = set()
    other_fns = set()
    for text in all_texts:
        status_fns |= set(STATUS_DECL_RE.findall(text))
        for type_tok, name in ANY_DECL_RE.findall(text):
            base = type_tok.split("<", 1)[0]
            if base in NOT_A_TYPE or base in ("Status", "StatusOr"):
                continue
            other_fns.add(name)
    return status_fns - other_fns


# ---------------------------------------------------------------------------
# Rules.

ADDRESS_ORDER_RE = re.compile(
    r"reinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>|std::hash\s*<[^<>]*\*\s*>")

RANDOMNESS_RES = [
    (re.compile(r"\b(?:s?rand|drand48|lrand48|mrand48|random)\s*\("),
     "C randomness (use common::Random)"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device (use common::Random)"),
    (re.compile(r"\bgettimeofday\s*\("),
     "wall clock (use common::Timer / stream time)"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "wall clock (use common::Timer / stream time)"),
    (re.compile(r"\bsystem_clock\s*::\s*now\b"),
     "wall clock (use common::Timer / stream time)"),
]

FLOAT_CONV_RE = re.compile(r"%[-+ #0-9.*]*(?:hh|h|ll|l|L)?[fFeEgG]")
# A std::to_chars floating format: chars_format::<kind>[, <precision>].
TO_CHARS_FORMAT_RE = re.compile(
    r"chars_format\s*::\s*(\w+)(?:\s*,\s*([^,)\s]+))?")

CALL_STMT_RE = re.compile(
    r"^(?:[A-Za-z_]\w*(?:\.|->|::))*([A-Za-z_]\w*)\s*\(")

RAW_MUTEX_RE = re.compile(
    r"std::(?:mutex|condition_variable|lock_guard|unique_lock|scoped_lock)\b")


def _statement_is_whole_call(text, open_paren):
    """True when the call whose '(' sits at `open_paren` spans the rest of
    the statement — i.e. nothing consumes its return value. A chained
    `x.status().CheckOK();` has a trailing member access after the close
    paren and is NOT a whole-statement call."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[i + 1:].strip() == ";"
    return False


def allowed(rule, lineno, line_allows, file_allows):
    return rule in file_allows or rule in line_allows.get(lineno, set())


def lint_text(path, text, unordered, status_fns, findings,
              skip_unchecked_status=False):
    rel_parts = path.replace("\\", "/").split("/")
    stripped = strip_comments_and_strings(text)
    line_allows, file_allows = collect_allows(text)
    statements = split_statements(stripped)

    # --- statement-scoped rules ---
    for stmt in statements:
        sensitive = bool(SENSITIVE_FN_RE.match(stmt.fn))
        if sensitive:
            m = re.match(r"for\s*\(.*?:\s*\*?([A-Za-z_]\w*)\s*\)\s*$",
                         stmt.text)
            it = re.search(r"\b([A-Za-z_]\w*)\s*\.\s*(?:c?begin|c?end)\s*\(",
                           stmt.text)
            var = None
            if m and m.group(1) in unordered:
                var = m.group(1)
            elif it and it.group(1) in unordered:
                var = it.group(1)
            if var and not allowed("unordered-iteration", stmt.line,
                                   line_allows, file_allows):
                findings.append(Finding(
                    path, stmt.line, "unordered-iteration",
                    "iterates unordered container '%s' in "
                    "determinism-sensitive function '%s' (use "
                    "common::SortedKeys)" % (var, stmt.fn)))
            convs = FLOAT_CONV_RE.findall(stmt.text)
            for kind, precision in TO_CHARS_FORMAT_RE.findall(stmt.text):
                if (kind, precision) != ("general", "17"):
                    convs.append("chars_format::%s%s" % (
                        kind, ", " + precision if precision else ""))
            for conv in convs:
                if conv != "%.17g" and not allowed(
                        "float-format", stmt.line, line_allows, file_allows):
                    findings.append(Finding(
                        path, stmt.line, "float-format",
                        "float format '%s' in determinism-sensitive function "
                        "'%s' (persisted floats use %%.17g or "
                        "chars_format::general, 17 — 17 significant digits "
                        "round-trip every double)" % (conv, stmt.fn)))
        if not skip_unchecked_status and stmt.fn and stmt.text.endswith(";"):
            m = CALL_STMT_RE.match(stmt.text)
            if (m and m.group(1) in status_fns
                    and _statement_is_whole_call(stmt.text, m.end() - 1)
                    and not allowed("unchecked-status", stmt.line,
                                    line_allows, file_allows)):
                findings.append(Finding(
                    path, stmt.line, "unchecked-status",
                    "return value of Status-returning '%s' is ignored "
                    "(check it, or wrap in LTC_IGNORE_STATUS with a "
                    "justification)" % m.group(1)))

    # --- line-scoped rules ---
    in_src = rel_parts[0] == "src"
    rel_norm = os.path.join(*rel_parts)
    streams = set(INPUT_STREAM_DECL_RE.findall(stripped)) | {"cin"}
    stream_read_re = re.compile(
        r"\b(?:%s)\s*>>(?!=)" % "|".join(sorted(streams)))
    for lineno, line in enumerate(stripped.splitlines(), 1):
        if ADDRESS_ORDER_RE.search(line) and not allowed(
                "address-ordering", lineno, line_allows, file_allows):
            findings.append(Finding(
                path, lineno, "address-ordering",
                "pointer/address-based ordering or hashing (ASLR makes this "
                "different every run)"))
        if rel_norm not in RANDOMNESS_ALLOWED:
            for rx, what in RANDOMNESS_RES:
                if rx.search(line) and not allowed(
                        "banned-randomness", lineno, line_allows, file_allows):
                    findings.append(Finding(
                        path, lineno, "banned-randomness", what))
        if (in_src and rel_norm not in NUMBER_PARSE_ALLOWED
                and (C_NUMBER_PARSE_RE.search(line) or
                     (stream_read_re and stream_read_re.search(line)))
                and not allowed("number-parse", lineno, line_allows,
                                file_allows)):
            findings.append(Finding(
                path, lineno, "number-parse",
                "text or number read outside the line scanner (use "
                "common::LineScanner, or ParseDouble / ParseInt64 for one "
                "value)"))
        if (in_src and rel_norm not in RAW_MUTEX_ALLOWED
                and RAW_MUTEX_RE.search(line)
                and not allowed("raw-std-mutex", lineno, line_allows,
                                file_allows)):
            findings.append(Finding(
                path, lineno, "raw-std-mutex",
                "raw std synchronisation primitive in src/ (use "
                "common::Mutex / MutexLock / CondVar from "
                "common/thread_annotations.h so -Wthread-safety applies)"))


def check_nodiscard_status(root, findings):
    path = os.path.join(root, "src", "common", "status.h")
    if not os.path.isfile(path):
        findings.append(Finding(path, 1, "nodiscard-status",
                                "src/common/status.h is missing"))
        return
    text = read(path)
    for cls in ("Status", "StatusOr"):
        if not re.search(r"class\s+\[\[nodiscard\]\]\s+%s\b" % cls, text):
            findings.append(Finding(
                path, 1, "nodiscard-status",
                "class %s must be declared [[nodiscard]] (the compile-time "
                "half of the unchecked-status rule)" % cls))


def check_test_only_modules(root, findings):
    """Flags src/ headers that no shipping file includes (a header's own
    .cc does not count). Includes resolve against src/ and against the
    including file's directory."""
    src = os.path.join(root, "src")
    reached = set()
    for d in SHIPPING_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            for name in names:
                if not name.endswith(SOURCE_EXTS):
                    continue
                path = os.path.join(dirpath, name)
                own_header = os.path.splitext(path)[0] + ".h"
                text = strip_comments_and_strings(read(path))
                for inc in INCLUDE_RE.findall(text):
                    for base in (src, dirpath):
                        target = os.path.normpath(os.path.join(base, inc))
                        if target != own_header:
                            reached.add(target)
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            if not name.endswith(".h") or path in reached:
                continue
            _, file_allows = collect_allows(read(path))
            if "test-only-module" not in file_allows:
                findings.append(Finding(
                    path, 1, "test-only-module",
                    "no file in %s includes this header: delete it, or "
                    "move it to tests/oracles/ if tests compare against it"
                    % ", ".join(d + "/" for d in SHIPPING_DIRS)))


# ---------------------------------------------------------------------------
# Optional libclang verification for unchecked-status.


def try_libclang():
    try:
        import clang.cindex  # noqa: F401
        clang.cindex.Index.create()
        return True
    except Exception:
        return False


def libclang_unchecked_status(root, files, findings):
    """AST-accurate unchecked-status: a CALL_EXPR of static type
    Status/StatusOr whose parent is a compound statement (i.e. the value is
    the whole statement) is a finding. Suppression comments still apply."""
    import clang.cindex as ci

    index = ci.Index.create()
    args = ["-std=c++17", "-I", os.path.join(root, "src"),
            "-Wno-everything"]
    for path in files:
        try:
            tu = index.parse(path, args=args)
        except ci.TranslationUnitLoadError:
            continue
        text = read(path)
        line_allows, file_allows = collect_allows(text)

        def walk(node, parent_kind):
            if (node.kind == ci.CursorKind.CALL_EXPR
                    and parent_kind == ci.CursorKind.COMPOUND_STMT
                    and node.location.file is not None
                    and os.path.samefile(node.location.file.name, path)):
                t = node.type.spelling
                if (t == "Status" or t.endswith("::Status")
                        or "StatusOr<" in t):
                    if not allowed("unchecked-status", node.location.line,
                                   line_allows, file_allows):
                        findings.append(Finding(
                            path, node.location.line, "unchecked-status",
                            "return value of Status-returning '%s' is "
                            "ignored (libclang)" % node.spelling))
            for child in node.get_children():
                walk(child, node.kind)

        walk(tu.cursor, None)


# ---------------------------------------------------------------------------
# Driver.


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def iter_source_files(root):
    for d in SOURCE_DIRS:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def run_checks(root, force_fallback=False):
    files = list(iter_source_files(root))
    texts = {path: read(path) for path in files}
    stripped_all = [strip_comments_and_strings(t) for t in texts.values()]
    unordered = unordered_vars(stripped_all)
    status_fns = status_function_names(stripped_all)

    use_libclang = (not force_fallback) and try_libclang()
    findings = []
    for path in files:
        lint_text(os.path.relpath(path, root), texts[path], unordered,
                  status_fns, findings,
                  skip_unchecked_status=use_libclang)
    if use_libclang:
        libclang_unchecked_status(root, files, findings)
    check_nodiscard_status(root, findings)
    check_test_only_modules(root, findings)
    mode = "libclang" if use_libclang else "regex/AST-lite fallback"
    return findings, mode


# ---------------------------------------------------------------------------
# Selftest: one positive and one negative fixture per rule, against a
# synthetic tree (mirrors doc_lint.py --selftest).


def expect(condition, label, failures):
    if condition:
        print("  PASS %s" % label)
    else:
        print("  FAIL %s" % label)
        failures.append(label)


def _fixture_findings(files, failures_root):
    with tempfile.TemporaryDirectory(prefix="ltc_lint_selftest_") as root:
        for rel, text in files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        # Selftest always exercises the fallback engine — it must behave
        # identically with or without libclang installed.
        findings, _ = run_checks(root, force_fallback=True)
        return findings


STATUS_H = (
    "namespace ltc {\n"
    "class [[nodiscard]] Status {};\n"
    "template <typename T> class [[nodiscard]] StatusOr {};\n"
    "}\n"
)


def selftest():
    failures = []

    def rules_of(findings):
        return sorted(set(f.rule for f in findings))

    print("selftest: unordered-iteration")
    base = {"src/common/status.h": STATUS_H}
    pos = dict(base)
    pos["src/svc/engine.cc"] = (
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> claims_;\n"
        "void SerializeTo(std::string* out) {\n"
        "  for (const auto& [k, v] : claims_) { out->append(\"x\"); }\n"
        "}\n")
    f = _fixture_findings(pos, failures)
    expect(any(x.rule == "unordered-iteration" and x.line == 4 for x in f),
           "hash-map iteration in SerializeTo flagged", failures)
    neg = dict(base)
    neg["src/svc/engine.cc"] = (
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> claims_;\n"
        "void SerializeTo(std::string* out) {\n"
        "  const auto keys = SortedKeys(claims_);\n"
        "  for (const auto& k : keys) { out->append(\"x\"); }\n"
        "}\n"
        "void HandleEvent() {\n"
        "  for (const auto& [k, v] : claims_) { Touch(k); }\n"
        "}\n")
    f = _fixture_findings(neg, failures)
    expect(not any(x.rule == "unordered-iteration" for x in f),
           "sorted-keys walk and non-sensitive iteration pass", failures)
    pos = dict(base)
    pos["src/svc/engine.cc"] = (
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> claims_;\n"
        "Status Serialize(StateArchive& ar) {\n"
        "  for (const auto& [k, v] : claims_) { Touch(ar, k); }\n"
        "  return Status::OK();\n"
        "}\n")
    f = _fixture_findings(pos, failures)
    expect(any(x.rule == "unordered-iteration" and x.line == 4 for x in f),
           "hash-map iteration in Serialize(StateArchive&) flagged", failures)

    print("selftest: address-ordering")
    pos = dict(base)
    pos["src/a.cc"] = (
        "bool Less(const T* a, const T* b) {\n"
        "  return reinterpret_cast<uintptr_t>(a) <\n"
        "         reinterpret_cast<uintptr_t>(b);\n"
        "}\n")
    f = _fixture_findings(pos, failures)
    expect(any(x.rule == "address-ordering" for x in f),
           "uintptr_t cast flagged", failures)
    neg = dict(base)
    neg["src/a.cc"] = "bool Less(int a, int b) { return a < b; }\n"
    f = _fixture_findings(neg, failures)
    expect(not any(x.rule == "address-ordering" for x in f),
           "value comparison passes", failures)

    print("selftest: banned-randomness")
    pos = dict(base)
    pos["src/gen/x.cc"] = "int Roll() { return rand() % 6; }\n"
    f = _fixture_findings(pos, failures)
    expect(any(x.rule == "banned-randomness" for x in f),
           "rand() flagged", failures)
    neg = dict(base)
    neg["src/common/random.cc"] = "int Roll() { return rand() % 6; }\n"
    neg["src/gen/x.cc"] = (
        "// rand() in a comment is fine\n"
        "int Roll(Random* rng) { return rng->Uniform(6); }\n")
    f = _fixture_findings(neg, failures)
    expect(not any(x.rule == "banned-randomness" for x in f),
           "common/random.cc and comments pass", failures)

    print("selftest: float-format")
    pos = dict(base)
    pos["src/svc/snap.cc"] = (
        "void SerializeTo(std::string* out) {\n"
        "  out->append(StrFormat(\"clock %g\\n\", clock_));\n"
        "}\n")
    f = _fixture_findings(pos, failures)
    expect(any(x.rule == "float-format" for x in f),
           "%g in SerializeTo flagged", failures)
    neg = dict(base)
    neg["src/svc/snap.cc"] = (
        "void SerializeTo(std::string* out) {\n"
        "  out->append(StrFormat(\"clock %.17g count %lld\\n\", c_, n_));\n"
        "}\n"
        "Status Report() { return Log(StrFormat(\"%.3f s\", dt)); }\n")
    f = _fixture_findings(neg, failures)
    expect(not any(x.rule == "float-format" for x in f),
           "%.17g and non-sensitive %.3f pass", failures)
    for fmt in ("general, 6", "fixed, 17", "scientific"):
        pos = dict(base)
        pos["src/common/state_archive.cc"] = (
            "char* FormatReal(double v, char* buf) {\n"
            "  return std::to_chars(buf, buf + 32, v,\n"
            "                       std::chars_format::%s).ptr;\n"
            "}\n" % fmt)
        f = _fixture_findings(pos, failures)
        expect(any(x.rule == "float-format" for x in f),
               "chars_format::%s in the archive's writer flagged" % fmt,
               failures)
    neg = dict(base)
    neg["src/common/state_archive.cc"] = (
        "char* FormatReal(double v, char* buf) {\n"
        "  return std::to_chars(buf, buf + 32, v,\n"
        "                       std::chars_format::general, 17).ptr;\n"
        "}\n"
        "void Report(double v, char* buf) {\n"
        "  std::to_chars(buf, buf + 32, v, std::chars_format::fixed, 3);\n"
        "}\n")
    f = _fixture_findings(neg, failures)
    expect(not any(x.rule == "float-format" for x in f),
           "general, 17 writer and non-sensitive fixed, 3 pass", failures)

    print("selftest: unchecked-status")
    pos = dict(base)
    pos["src/io/wal.cc"] = (
        "Status Flush();\n"
        "void Close() {\n"
        "  Flush();\n"
        "}\n")
    f = _fixture_findings(pos, failures)
    expect(any(x.rule == "unchecked-status" for x in f),
           "bare Status call flagged", failures)
    neg = dict(base)
    neg["src/io/wal.cc"] = (
        "Status Flush();\n"
        "StatusOr<int> Parse();\n"
        "TaskId AddTask();\n"          # also declared returning Status below
        "Status AddTask(int id);\n"    # -> ambiguous name, never flagged
        "Status Close() {\n"
        "  LTC_RETURN_IF_ERROR(Flush());\n"
        "  const Status s = Flush();\n"
        "  LTC_IGNORE_STATUS(Flush());\n"
        "  Parse().status().CheckOK();\n"  # chained: the value IS consumed
        "  AddTask(3);\n"
        "  return Flush();\n"
        "}\n")
    f = _fixture_findings(neg, failures)
    expect(not any(x.rule == "unchecked-status" for x in f),
           "checked/ignored/chained/ambiguous Status passes", failures)

    print("selftest: raw-std-mutex")
    pos = dict(base)
    pos["src/net/q.h"] = "#include <mutex>\nstd::mutex mu_;\n"
    f = _fixture_findings(pos, failures)
    expect(any(x.rule == "raw-std-mutex" for x in f),
           "naked std::mutex in src/ flagged", failures)
    neg = dict(base)
    neg["src/net/q.h"] = "Mutex mu_;\n"
    neg["tests/q_test.cc"] = "#include <mutex>\nstd::mutex test_mu;\n"
    f = _fixture_findings(neg, failures)
    expect(not any(x.rule == "raw-std-mutex" for x in f),
           "common::Mutex and test-side std::mutex pass", failures)

    print("selftest: nodiscard-status")
    pos = {"src/common/status.h":
           "namespace ltc { class Status {}; "
           "template <typename T> class StatusOr {}; }\n"}
    f = _fixture_findings(pos, failures)
    expect(any(x.rule == "nodiscard-status" for x in f),
           "missing [[nodiscard]] flagged", failures)
    f = _fixture_findings(dict(base), failures)
    expect(not any(x.rule == "nodiscard-status" for x in f),
           "[[nodiscard]] classes pass", failures)

    print("selftest: test-only-module")
    pos = dict(base)
    pos["src/geo/kdtree.h"] = "class KdTree {};\n"
    pos["src/geo/kdtree.cc"] = '#include "geo/kdtree.h"\n'
    pos["tests/geo_test.cc"] = '#include "geo/kdtree.h"\n'
    pos["src/algo/laf.cc"] = '// #include "geo/kdtree.h" (retired)\n'
    f = _fixture_findings(pos, failures)
    expect(any(x.rule == "test-only-module" and
               x.path.endswith("kdtree.h") for x in f),
           "header only its .cc, tests and a comment include flagged",
           failures)
    neg = dict(base)
    neg["src/geo/grid_index.h"] = '#include "common/status.h"\n'
    neg["src/algo/laf.cc"] = '#include "geo/grid_index.h"\n'
    neg["src/svc/engine.h"] = "class Engine {};\n"
    neg["perfbench/bench.h"] = '#include "svc/engine.h"\n'
    neg["src/exp/main.h"] = "int Main();\n"
    neg["bench/bench_suite.cc"] = '#include "exp/main.h"\n'
    neg["src/net/adapter.h"] = "int Adapter();\n"
    neg["examples/serve.cc"] = '#include "net/adapter.h"\n'
    f = _fixture_findings(neg, failures)
    expect(not any(x.rule == "test-only-module" for x in f),
           "headers reached from src/, perfbench/, bench/, examples/ pass",
           failures)

    print("selftest: number-parse")
    for body in ("  return std::strtod(s.c_str(), nullptr);\n",
                 "  return atoi(s.c_str());\n",
                 "  return std::stod(s);\n",
                 "  std::sscanf(s.c_str(), \"%lf\", &v);\n",
                 "  std::istringstream in(s);\n  in >> v;\n",
                 "  std::cin >> v;\n"):
        pos = dict(base)
        pos["src/io/reader.cc"] = (
            "double Read(const std::string& s) {\n" + body + "}\n")
        f = _fixture_findings(pos, failures)
        expect(any(x.rule == "number-parse" for x in f),
               "%s flagged in src/" % body.splitlines()[-1].strip(), failures)
    pos = dict(base)
    pos["src/geo/road.cc"] = (
        "Status ParseStream(std::istream& in) {\n"
        "  std::string token;\n"
        "  while (in >> token) {}\n"
        "}\n")
    f = _fixture_findings(pos, failures)
    expect(any(x.rule == "number-parse" and x.line == 3 for x in f),
           "'>>' from an istream parameter flagged", failures)
    neg = dict(base)
    neg["src/common/line_scanner.cc"] = (
        "bool Parse(const char* s, double* v) {\n"
        "  *v = std::strtod(s, nullptr);\n"
        "  return true;\n"
        "}\n")
    neg["src/io/reader.cc"] = (
        "// strtod and in >> x in a comment are fine\n"
        "std::vector<std::vector<int>> grid;\n"
        "std::uint32_t Hi(std::uint64_t bits, int k) {\n"
        "  std::ostringstream out;\n"
        "  out << (bits >> k);\n"
        "  bits >>= 1;\n"
        "  return static_cast<std::uint32_t>(bits >> 32);\n"
        "}\n"
        "bool Read(const std::string& s, double* v) {\n"
        "  return ParseDouble(s, v);\n"
        "}\n")
    neg["tests/io_test.cc"] = "int Read(const char* s) { return atoi(s); }\n"
    neg["src/common/proc.cc"] = (
        "// ltc-lint: allow(number-parse) /proc pads with tabs\n"
        "int n = std::sscanf(line, \": %llu kB\", &v);\n")
    f = _fixture_findings(neg, failures)
    expect(not any(x.rule == "number-parse" for x in f),
           "the scanner, shifts, template closers, ParseDouble, tests/ and "
           "an allow pass", failures)

    print("selftest: suppression comments")
    sup = dict(base)
    sup["src/svc/engine.cc"] = (
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> claims_;\n"
        "void SerializeTo(std::string* out) {\n"
        "  // ltc-lint: allow(unordered-iteration) order-independent count\n"
        "  for (const auto& [k, v] : claims_) { n += v; }\n"
        "}\n")
    f = _fixture_findings(sup, failures)
    expect(not any(x.rule == "unordered-iteration" for x in f),
           "line suppression honoured", failures)
    sup["src/svc/engine.cc"] = (
        "// ltc-lint: allow-file(unordered-iteration) legacy serializer\n"
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> claims_;\n"
        "void SerializeTo(std::string* out) {\n"
        "  for (const auto& [k, v] : claims_) { n += v; }\n"
        "}\n")
    f = _fixture_findings(sup, failures)
    expect(not any(x.rule == "unordered-iteration" for x in f),
           "file suppression honoured", failures)

    if failures:
        print("ltc_lint selftest: %d FAILED" % len(failures))
        return 1
    print("ltc_lint selftest: all checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: the tool's parent)")
    parser.add_argument("--force-fallback", action="store_true",
                        help="skip libclang even when importable")
    parser.add_argument("--selftest", action="store_true",
                        help="run the lint's own unit checks and exit")
    args = parser.parse_args()

    if args.selftest:
        return selftest()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings, mode = run_checks(root, force_fallback=args.force_fallback)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    if findings:
        for finding in findings:
            print(finding.render(root))
        print("ltc_lint: %d finding(s) [engine: %s]" % (len(findings), mode))
        return 1
    print("ltc_lint: OK — determinism contract holds [engine: %s]" % mode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
