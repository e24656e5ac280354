#!/usr/bin/env python3
"""Documentation lint: keep the docs and the code pointing at each other.

Five checks, all mechanical, all run in CI (see .github/workflows/ci.yml):

1. **Section citations.** Every ``DESIGN.md §N`` / ``DESIGN.md section N``
   citation in sources and docs must name a section heading that actually
   exists in DESIGN.md (``## §N ...``). A renumbered or deleted section
   fails the build instead of leaving dangling references.

2. **Relative markdown links.** Every intra-repo link target in the
   checked markdown files must exist on disk (fragments stripped;
   external http(s) links are out of scope).

3. **Flag tables.** Every command-line flag defined by ``ltc_serve``
   (src/svc/serve_main.cc) must appear in README.md's operator flag
   table, and every flag the bench drivers define (bench_suite,
   bench_stream_throughput) must appear somewhere in README.md — so the
   documented operator surface cannot silently drift from the binaries.

4. **Lint rule tables.** Every rule id in tools/ltc_lint.py's RULE_IDS
   roster must appear in DESIGN.md (the §14 rule table) — a new
   determinism rule cannot land undocumented, and a documented rule
   cannot silently disappear from the lint.

5. **Qualified names.** Every backticked ``layer::Name`` in DESIGN.md or
   README.md, where ``layer`` is a src/ subdirectory, must name an
   identifier in the code under src/<layer>/ or tests/oracles/ — a
   renamed or deleted class cannot linger in the prose.

Usage:
    tools/doc_lint.py [--root REPO_ROOT]
    tools/doc_lint.py --selftest

Exit status 0 when clean, 1 with one line per finding otherwise.
No third-party dependencies.
"""

import argparse
import os
import re
import sys
import tempfile

# Source trees scanned for DESIGN.md citations.
SOURCE_DIRS = ["src", "tests", "bench", "examples", "tools"]
SOURCE_EXTS = (".h", ".cc", ".py")

# Markdown files whose citations and relative links are checked.
MARKDOWN_FILES = ["README.md", "DESIGN.md", "ROADMAP.md", "src/io/README.md"]

# Flag-definition sources and where their flags must be documented.
SERVE_MAIN = "src/svc/serve_main.cc"
BENCH_FLAG_SOURCES = ["src/exp/suite_main.cc", "bench/bench_stream_throughput.cc"]

HEADING_RE = re.compile(r"^#{2,3}\s+§(\d+)", re.M)
CITATION_RE = re.compile(r"DESIGN\.md\s+(?:§|section\s+)(\d+)")
# Matches `Flag<T> FLAG_name("flag_name", ...)`; the string literal may
# wrap to the next line after the opening parenthesis.
FLAG_DEF_RE = re.compile(r'Flag<[^>]+>\s+\w+\(\s*"([A-Za-z0-9_]+)"')
MD_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def design_sections(design_text):
    """Section numbers defined by ``## §N`` / ``### §N`` headings."""
    return {int(m) for m in HEADING_RE.findall(design_text)}


def iter_source_files(root):
    for d in SOURCE_DIRS:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)
    for name in MARKDOWN_FILES:
        path = os.path.join(root, name)
        if os.path.isfile(path):
            yield path


def check_citations(root, sections):
    """Every DESIGN.md §N citation must resolve to a real section."""
    errors = []
    for path in iter_source_files(root):
        text = read(path)
        for lineno, line in enumerate(text.splitlines(), 1):
            for cited in CITATION_RE.findall(line):
                if int(cited) not in sections:
                    rel = os.path.relpath(path, root)
                    errors.append(
                        "%s:%d: cites DESIGN.md §%s but DESIGN.md has no "
                        "such section (have: %s)"
                        % (rel, lineno, cited,
                           ", ".join("§%d" % s for s in sorted(sections)))
                    )
    return errors


def check_markdown_links(root):
    """Relative link targets in the checked markdown files must exist."""
    errors = []
    for name in MARKDOWN_FILES:
        path = os.path.join(root, name)
        if not os.path.isfile(path):
            errors.append("%s: checked markdown file is missing" % name)
            continue
        base = os.path.dirname(path)
        for lineno, line in enumerate(read(path).splitlines(), 1):
            for target in MD_LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                rel_target = target.split("#", 1)[0]
                if not rel_target:
                    continue
                if not os.path.exists(os.path.join(base, rel_target)):
                    errors.append(
                        "%s:%d: link target '%s' does not exist"
                        % (name, lineno, target)
                    )
    return errors


def defined_flags(source_text):
    """Flag names defined via the Flag<T> registry in a C++ source."""
    return sorted(set(FLAG_DEF_RE.findall(source_text)))


def flag_table_section(readme_text):
    """The ltc_serve operator flag table's text (to end of its section)."""
    match = re.search(r"^### ltc_serve operator flags$", readme_text, re.M)
    if match is None:
        return None
    rest = readme_text[match.end():]
    nxt = re.search(r"^#{1,3}\s", rest, re.M)
    return rest[: nxt.start()] if nxt else rest


def check_flags(root):
    """Every binary-defined flag must be documented in README.md."""
    errors = []
    readme = read(os.path.join(root, "README.md"))

    table = flag_table_section(readme)
    if table is None:
        errors.append(
            "README.md: missing '### ltc_serve operator flags' section")
        table = ""
    for flag in defined_flags(read(os.path.join(root, SERVE_MAIN))):
        if "`--%s`" % flag not in table:
            errors.append(
                "README.md: ltc_serve flag --%s (defined in %s) is missing "
                "from the operator flag table" % (flag, SERVE_MAIN)
            )

    for source in BENCH_FLAG_SOURCES:
        for flag in defined_flags(read(os.path.join(root, source))):
            if "--%s" % flag not in readme:
                errors.append(
                    "README.md: bench flag --%s (defined in %s) is not "
                    "documented anywhere in README.md" % (flag, source)
                )
    return errors


LINT_TOOL = os.path.join("tools", "ltc_lint.py")
RULE_IDS_RE = re.compile(r"^RULE_IDS\s*=\s*\(([^)]*)\)", re.M)


def lint_rule_ids(lint_text):
    """Rule ids from ltc_lint.py's RULE_IDS tuple (the canonical roster)."""
    m = RULE_IDS_RE.search(lint_text)
    if m is None:
        return None
    return re.findall(r'"([a-z0-9-]+)"', m.group(1))


def check_lint_rules(root):
    """Every ltc_lint rule id must be documented in DESIGN.md."""
    lint_path = os.path.join(root, LINT_TOOL)
    design_path = os.path.join(root, "DESIGN.md")
    if not os.path.isfile(lint_path) or not os.path.isfile(design_path):
        return []  # absence of the lint itself is caught by CI running it
    rules = lint_rule_ids(read(lint_path))
    if rules is None:
        return ["%s: RULE_IDS tuple not found (doc_lint cross-checks it "
                "against DESIGN.md)" % LINT_TOOL]
    design = read(design_path)
    return [
        "DESIGN.md: ltc_lint rule '%s' (from %s RULE_IDS) is not documented "
        "in the rule table" % (rule, LINT_TOOL)
        for rule in rules if "`%s`" % rule not in design
    ]


QUALIFIED_DOCS = ["DESIGN.md", "README.md"]
CODE_FENCE_RE = re.compile(r"^```.*?^```[^\n]*$", re.M | re.S)
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
QUALIFIED_NAME_RE = re.compile(r"\b([a-z]\w*)::([A-Za-z_]\w*)")
CPP_COMMENT_RE = re.compile(r"/\*.*?\*/|//[^\n]*", re.S)
IDENTIFIER_RE = re.compile(r"[A-Za-z_]\w*")


def code_identifiers(top):
    """Identifiers in the C++ code (comments dropped) under `top`."""
    names = set()
    for dirpath, _, files in os.walk(top):
        for name in files:
            if name.endswith((".h", ".cc")):
                code = CPP_COMMENT_RE.sub(
                    " ", read(os.path.join(dirpath, name)))
                names.update(IDENTIFIER_RE.findall(code))
    return names


def check_qualified_names(root):
    """Backticked layer::Name in the docs must resolve under src/<layer>/
    or tests/oracles/."""
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        return []
    layers = {d for d in os.listdir(src) if os.path.isdir(os.path.join(src, d))}
    oracles = code_identifiers(os.path.join(root, "tests", "oracles"))
    layer_names = {}
    errors = []
    for doc in QUALIFIED_DOCS:
        path = os.path.join(root, doc)
        if not os.path.isfile(path):
            continue
        # Fenced blocks are blanked line for line, so offsets keep their
        # line numbers and a fence's backticks pair with nothing.
        text = CODE_FENCE_RE.sub(lambda m: "\n" * m.group(0).count("\n"),
                                 read(path))
        for span in CODE_SPAN_RE.finditer(text):
            for layer, name in QUALIFIED_NAME_RE.findall(span.group(1)):
                if layer not in layers:
                    continue
                if layer not in layer_names:
                    layer_names[layer] = code_identifiers(
                        os.path.join(src, layer))
                if name not in layer_names[layer] and name not in oracles:
                    errors.append(
                        "%s:%d: `%s::%s` names nothing in src/%s/ or "
                        "tests/oracles/" % (
                            doc, text.count("\n", 0, span.start()) + 1,
                            layer, name, layer))
    return errors


def run_checks(root):
    design_path = os.path.join(root, "DESIGN.md")
    errors = []
    if not os.path.isfile(design_path):
        errors.append("DESIGN.md: missing")
        sections = set()
    else:
        sections = design_sections(read(design_path))
        if not sections:
            errors.append("DESIGN.md: no '## §N' section headings found")
    errors += check_citations(root, sections)
    errors += check_markdown_links(root)
    errors += check_flags(root)
    errors += check_lint_rules(root)
    errors += check_qualified_names(root)
    return errors


# ---------------------------------------------------------------------------
# Selftest: the lint's own unit checks, run against a synthetic repo.


def expect(condition, label, failures):
    if condition:
        print("  PASS %s" % label)
    else:
        print("  FAIL %s" % label)
        failures.append(label)


def selftest():
    failures = []
    with tempfile.TemporaryDirectory(prefix="doc_lint_selftest_") as root:
        def write_file(rel, text):
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path) or root, exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)

        write_file("DESIGN.md", "## §1 One\n\nBody.\n\n### §1.1 Sub\n\n"
                   "## §2 Two\n\nSee DESIGN.md §1.\n")
        write_file("ROADMAP.md", "Nothing here.\n")
        write_file("src/io/README.md", "See DESIGN.md §2.\n")
        write_file(
            "README.md",
            "[design](DESIGN.md) [io](src/io/README.md#anchor)\n"
            "[web](https://example.com/x) [frag](#local)\n"
            "### ltc_serve operator flags\n\n"
            "| Flag | Default |\n|---|---|\n"
            "| `--events` | `\"\"` |\n| `--deadline` | `0` |\n\n"
            "## Next\n\nbench: --figure and --reps.\n",
        )
        write_file(
            "src/svc/serve_main.cc",
            'Flag<std::string> FLAG_events("events", "", "replay");\n'
            'Flag<std::string> FLAG_deadline(\n    "deadline", "0", "x");\n',
        )
        write_file(
            "src/exp/suite_main.cc",
            'Flag<std::string> FLAG_figure("figure", "", "suite");\n'
            'Flag<std::int64_t> FLAG_reps("reps", 3, "reps");\n',
        )
        write_file("bench/bench_stream_throughput.cc", "// no flags yet\n")
        write_file("src/good.h", "// DESIGN.md §1 and DESIGN.md section 2.\n")

        print("selftest: clean synthetic repo")
        expect(run_checks(root) == [], "clean repo lints clean", failures)

        print("selftest: section parsing")
        sections = design_sections(read(os.path.join(root, "DESIGN.md")))
        expect(sections == {1, 2}, "headings parsed (§1, §2)", failures)

        print("selftest: dangling citation is caught")
        write_file("src/bad.h", "// DESIGN.md §9 does not exist.\n")
        errors = run_checks(root)
        expect(any("src/bad.h" in e and "§9" in e for e in errors),
               "dangling §9 citation reported", failures)
        os.remove(os.path.join(root, "src/bad.h"))

        print("selftest: broken markdown link is caught")
        write_file("ROADMAP.md", "[gone](missing_file.md)\n")
        errors = run_checks(root)
        expect(any("missing_file.md" in e for e in errors),
               "broken relative link reported", failures)
        write_file("ROADMAP.md", "Nothing here.\n")

        print("selftest: flag extraction and drift")
        flags = defined_flags(read(os.path.join(root, "src/svc/serve_main.cc")))
        expect(flags == ["deadline", "events"],
               "flag names extracted (wrapped literal included)", failures)
        write_file(
            "src/svc/serve_main.cc",
            'Flag<std::string> FLAG_events("events", "", "replay");\n'
            'Flag<std::string> FLAG_deadline("deadline", "0", "x");\n'
            'Flag<bool> FLAG_new_toggle("new_toggle", false, "undoc");\n',
        )
        errors = run_checks(root)
        expect(any("--new_toggle" in e for e in errors),
               "undocumented ltc_serve flag reported", failures)
        write_file(
            "src/exp/suite_main.cc",
            'Flag<std::string> FLAG_figure("figure", "", "suite");\n'
            'Flag<std::int64_t> FLAG_secret("secret", 3, "undoc");\n',
        )
        errors = run_checks(root)
        expect(any("--secret" in e for e in errors),
               "undocumented bench flag reported", failures)
        write_file(
            "src/exp/suite_main.cc",
            'Flag<std::string> FLAG_figure("figure", "", "suite");\n')

        print("selftest: ltc_lint rule table coverage")
        write_file("tools/ltc_lint.py",
                   'RULE_IDS = (\n    "fake-rule",\n    "other-rule",\n)\n')
        errors = run_checks(root)
        expect(any("'fake-rule'" in e for e in errors)
               and any("'other-rule'" in e for e in errors),
               "undocumented lint rules reported", failures)
        write_file("DESIGN.md", "## §1 One\n\nBody.\n\n### §1.1 Sub\n\n"
                   "## §2 Two\n\nSee DESIGN.md §1.\n\n"
                   "Rules: `fake-rule` and `other-rule`.\n")
        errors = run_checks(root)
        expect(not any("ltc_lint rule" in e for e in errors),
               "documented lint rules pass", failures)
        write_file("tools/ltc_lint.py", "def main():\n    return 0\n")
        errors = run_checks(root)
        expect(any("RULE_IDS tuple not found" in e for e in errors),
               "missing RULE_IDS roster reported", failures)
        write_file("tools/ltc_lint.py", 'RULE_IDS = (\n    "fake-rule",\n)\n')

        print("selftest: qualified names resolve")
        write_file("src/common/random.h",
                   "// class Random was renamed.\nclass Rng {};\n")
        write_file("src/net/client.h", "class IngestClient {};\n")
        write_file("tests/oracles/max_flow.h", "class DinicMaxFlow {};\n")
        write_file("README.md", read(os.path.join(root, "README.md")) +
                   "Uses `common::Rng`, `ltc::net::IngestClient::Send()`,\n"
                   "`common::Rng`/`flow::DinicMaxFlow`, `std::vector` and\n"
                   "`ext::Anything`.\n\n```cpp\ncommon::Gone x;\n```\n")
        errors = run_checks(root)
        expect(not any("names nothing" in e for e in errors),
               "names in src/<layer>/ and tests/oracles/ pass; std::, "
               "non-layers and fenced code are out of scope", failures)
        write_file("DESIGN.md", read(os.path.join(root, "DESIGN.md")) +
                   "\nSee `common::Random` and\n`net::Client` here.\n")
        errors = run_checks(root)
        expect(any(e.startswith("DESIGN.md:") and "`common::Random`" in e
                   for e in errors),
               "a name only a comment mentions is reported", failures)
        expect(any(e.startswith("DESIGN.md:14:") and "`net::Client`" in e
                   for e in errors),
               "a missing name is reported with its line", failures)

    if failures:
        print("doc_lint selftest: %d FAILED" % len(failures))
        return 1
    print("doc_lint selftest: all checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: the tool's parent)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the lint's own unit checks and exit")
    args = parser.parse_args()

    if args.selftest:
        return selftest()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    errors = run_checks(root)
    if errors:
        for error in errors:
            print(error)
        print("doc_lint: %d problem(s)" % len(errors))
        return 1
    print("doc_lint: OK (citations, links, flag tables, lint rules and "
          "qualified names all resolve)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
