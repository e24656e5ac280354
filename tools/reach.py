#!/usr/bin/env python3
"""Reachability check: every function src/ defines is linked by a shipped binary.

src/ ships what the serving system, the benches and the examples run.
Reference code that only tests compare against lives in tests/oracles/,
and a function nothing calls is deleted. This tool makes that mechanical.

It configures two build directories of its own, with the flags given on the
cmake command line (no CMake option exists for them):
  <build-dir>/main       the repo, tests off
  <build-dir>/perfbench  perfbench/CMakeLists.txt
both with -O0 -ffunction-sections -fdata-sections and -Wl,--gc-sections, so
a binary keeps exactly the functions something in it calls. Then it diffs
the defined `ltc::` functions (nm types T, t, W) of every object file
under src/ against `nm --defined-only` of every shipped binary: the
examples, the bench drivers (bench_micro included, so google-benchmark is
required) and perfbench. A symbol no binary holds is a finding unless ALLOW
lists it with a reason.

Blind spots: a virtual is kept by its vtable, so an override nothing calls
is not seen; a header-inline function is only emitted where it is used, so
one nothing uses is not seen either (a by-hand run with
-fkeep-inline-functions finds those, at the price of listing implicit
constructors and lambda bodies too). Anonymous-namespace functions are
compared by name, so two TUs' same-named helpers count as one.

Usage:
    tools/reach.py [--root REPO_ROOT] [--build-dir DIR]
    tools/reach.py --selftest

Exit status 0 when every unlinked symbol is allow-listed and every
allow-list entry still names an unlinked symbol, 1 otherwise.
"""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys

# Unlinked symbols that stay, one reason each (the demangled name exactly as
# `nm -C` prints it). These are test hooks: a test drives or observes the
# shipped code through them, and no shipped binary has a reason to.
ALLOW = {
    "ltc::operator<<(std::basic_ostream<char, std::char_traits<char> >&, "
    "ltc::Status const&)":
        "gtest prints a Status through it in assertion messages",
    "ltc::FaultPoints::Reset()":
        "tests clear every armed fault point between cases",
    "ltc::flow::IncrementalMcmf::TestOnlyCorruptFlow()":
        "the drift-check test corrupts one unit of flow through it",
    "ltc::flow::IncrementalMcmf::Excess(int) const":
        "tests observe a left's unsent supply",
    "ltc::flow::IncrementalMcmf::Deficit(int) const":
        "tests observe a right's open deficit",
    "ltc::flow::IncrementalMcmf::Consumed(int) const":
        "tests observe the units retired lefts delivered to a right",
    "ltc::geo::RoadGraph::ToTicks(double) const":
        "tests convert an edge length the way Build does to build oracles",
}

TEXT_TYPES = frozenset("TtW")
# A function in namespace ltc, mangled: a nested name (any cv- and
# ref-qualifiers) whose first component is `ltc`. This skips std templates
# instantiated on ltc types and lambda bodies, which live and die with
# their enclosing function.
LTC_RE = re.compile(r"_ZN[rVKRO]*3ltc")
CXXFLAGS = "-O0 -ffunction-sections -fdata-sections"
LDFLAGS = "-Wl,--gc-sections"


def parse_nm(listing):
    """The mangled `ltc::` text symbols of one `nm --defined-only` listing."""
    symbols = set()
    for line in listing.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in TEXT_TYPES and \
                LTC_RE.match(parts[2]):
            symbols.add(parts[2])
    return symbols


def demangle(symbols):
    """The demangled names of `symbols`, in order."""
    out = subprocess.run(["c++filt"], input="\n".join(symbols) + "\n",
                         check=True, capture_output=True, text=True).stdout
    return out.splitlines()[:len(symbols)]


def check_allow(allow):
    """Allow-list entries without a reason."""
    return sorted(sym for sym, why in allow.items() if not why.strip())


def diff(library, binaries, allow):
    """(unlinked, findings, stale).

    `library` maps a mangled symbol to the source file defining it;
    `binaries` is the set of mangled symbols any shipped binary holds.
    `unlinked` maps the demangled name of each symbol no binary holds to its
    source file. A finding is an unlinked name not on `allow`; a stale entry
    is on `allow` but linked or gone.
    """
    missing = sorted(s for s in library if s not in binaries)
    unlinked = dict(zip(demangle(missing), (library[s] for s in missing)))
    findings = sorted(s for s in unlinked if s not in allow)
    stale = sorted(s for s in allow if s not in unlinked)
    return unlinked, findings, stale


def nm(path):
    return subprocess.run(["nm", "--defined-only", path], check=True,
                          capture_output=True, text=True).stdout


def is_elf_executable(path):
    if not os.access(path, os.X_OK) or not os.path.isfile(path):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def walk_files(top):
    """Every file under `top`, outside CMake's own CMakeFiles trees."""
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "CMakeFiles")
        for name in sorted(filenames):
            yield os.path.join(dirpath, name)


def build(root, build_dir):
    """Configures and builds both trees; returns their directories."""
    common = ["-DCMAKE_BUILD_TYPE=None", "-DCMAKE_CXX_FLAGS=" + CXXFLAGS,
              "-DCMAKE_EXE_LINKER_FLAGS=" + LDFLAGS]
    jobs = str(min(4, os.cpu_count() or 1))
    main_dir = os.path.join(build_dir, "main")
    perf_dir = os.path.join(build_dir, "perfbench")
    steps = [
        ["cmake", "-S", root, "-B", main_dir, "-DLTC_BUILD_TESTS=OFF"] + common,
        ["cmake", "--build", main_dir, "-j", jobs],
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", perf_dir]
        + common,
        ["cmake", "--build", perf_dir, "-j", jobs],
    ]
    # Relink every binary, so one whose target is gone is not counted.
    for path in shipped_binaries(main_dir, perf_dir):
        os.remove(path)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stdout.write(done.stdout)
            raise RuntimeError("failed: " + " ".join(cmd))
    return main_dir, perf_dir


def library_symbols(main_dir, root):
    """{symbol: source file} over the object files of the src/ libraries.

    The objects come from compile_commands.json, so an object a deleted
    source left in the build directory is not read.
    """
    with open(os.path.join(main_dir, "compile_commands.json")) as f:
        commands = json.load(f)
    src = os.path.join(root, "src") + os.sep
    symbols = {}
    for entry in commands:
        if not entry["file"].startswith(src):
            continue
        args = shlex.split(entry["command"])
        obj = os.path.join(entry["directory"], args[args.index("-o") + 1])
        source = os.path.relpath(entry["file"], root)
        for sym in parse_nm(nm(obj)):
            symbols.setdefault(sym, source)
    if not symbols:
        raise RuntimeError("no ltc:: symbols in the objects of " + src)
    return symbols


def shipped_binaries(main_dir, perf_dir):
    """The examples, the bench drivers and perfbench, as built."""
    paths = [p for sub in ("bench", "examples")
             for p in walk_files(os.path.join(main_dir, sub))
             if is_elf_executable(p)]
    perfbench = os.path.join(perf_dir, "perfbench")
    return paths + [perfbench] if os.path.exists(perfbench) else paths


def report(library, unlinked, findings, stale, binaries):
    print("reach: %d shipped binaries, %d ltc:: text symbols in src/, "
          "%d unlinked (%d allow-listed)"
          % (len(binaries), len(library), len(unlinked),
             len(unlinked) - len(findings)))
    for sym in findings:
        print("%s: %s: no shipped binary links it" % (unlinked[sym], sym))
    for sym in stale:
        print("tools/reach.py: ALLOW entry %r is linked or gone; remove it"
              % sym)
    return 1 if findings or stale else 0


def run(root, build_dir):
    bad = check_allow(ALLOW)
    if bad:
        for sym in bad:
            print("tools/reach.py: ALLOW entry %r has no reason" % sym)
        return 1
    main_dir, perf_dir = build(root, build_dir)
    library = library_symbols(main_dir, root)
    binaries = shipped_binaries(main_dir, perf_dir)
    if "bench_micro" not in {os.path.basename(p) for p in binaries}:
        raise RuntimeError("bench_micro was not built: the check needs "
                           "google-benchmark (libbenchmark-dev)")
    linked = set()
    for path in binaries:
        linked |= parse_nm(nm(path))
    unlinked, findings, stale = diff(library, linked, ALLOW)
    return report(library, unlinked, findings, stale, binaries)


def expect(cond, what, failures):
    print("  %s: %s" % ("ok" if cond else "FAIL", what))
    if not cond:
        failures.append(what)


def selftest():
    failures = []
    lib_listing = (
        "\n"
        "metric.cc.o:\n"
        "0000000000000000 T _ZN3ltc3geo8DistanceERKNS0_5PointE\n"
        "0000000000000000 T _ZN3ltc3geo6UnusedEi\n"
        "0000000000000000 W _ZN3ltc4FlagIlE3GetEv\n"
        "0000000000000000 t _ZN3ltc12_GLOBAL__N_16HelperEv\n"
        "0000000000000000 T _ZNK3ltc3geo9RoadGraph7ToTicksEd\n"
        "0000000000000000 T _ZN3ltc4HookEv\n"
        "0000000000000000 t _ZZN3ltc4HookEvENKUlvE_clEv\n"
        "0000000000000000 D _ZN3ltc3geo6kTableE\n"
        "0000000000000000 W _ZNKSt6vectorIiSaIiEE4sizeEv\n"
        "0000000000000000 W "
        "_ZSt7forwardIN3ltc6StatusEEOT_RNSt16remove_referenceIS2_E4typeE\n")
    bin_listing = (
        "0000000000001000 T _ZN3ltc3geo8DistanceERKNS0_5PointE\n"
        "0000000000001100 t _ZN3ltc12_GLOBAL__N_16HelperEv\n"
        "0000000000001180 T _ZNK3ltc3geo9RoadGraph7ToTicksEd\n"
        "0000000000001200 T main\n")
    print("selftest: nm parsing")
    lib = parse_nm(lib_listing)
    expect(sorted(demangle(sorted(lib))) == sorted([
        "ltc::(anonymous namespace)::Helper()", "ltc::Flag<long>::Get()",
        "ltc::geo::Unused(int)", "ltc::geo::Distance(ltc::geo::Point const&)",
        "ltc::Hook()", "ltc::geo::RoadGraph::ToTicks(double) const"]),
        "T/t/W ltc:: functions kept; data, lambdas and std templates on "
        "ltc types dropped", failures)
    library = {s: "src/geo/metric.cc" for s in lib}
    linked = parse_nm(bin_listing)

    print("selftest: diff")
    allow = {"ltc::Hook()": "a test hook", "ltc::Flag<long>::Get()": "x"}
    unlinked, findings, stale = diff(library, linked, allow)
    expect(findings == ["ltc::geo::Unused(int)"],
           "an unlinked symbol off the allow-list fails", failures)
    expect("ltc::Hook()" in unlinked and "ltc::Hook()" not in findings,
           "an allow-listed unlinked symbol passes", failures)
    expect(report(library, unlinked, findings, stale, ["b"]) == 1,
           "a finding makes the exit status 1", failures)
    allow["ltc::geo::Unused(int)"] = "planted"
    unlinked, findings, stale = diff(library, linked, allow)
    expect(not findings and not stale and
           report(library, unlinked, findings, stale, ["b"]) == 0,
           "everything unlinked allow-listed: exit status 0", failures)
    allow["ltc::geo::Distance(ltc::geo::Point const&)"] = "was a hook"
    allow["ltc::Gone()"] = "deleted since"
    _, findings, stale = diff(library, linked, allow)
    expect(stale == ["ltc::Gone()",
                     "ltc::geo::Distance(ltc::geo::Point const&)"],
           "allow-list entries that are linked or gone are stale", failures)

    print("selftest: allow-list reasons")
    expect(check_allow({"ltc::A()": " ", "ltc::B()": "why"}) == ["ltc::A()"],
           "an entry without a reason is rejected", failures)
    expect(not check_allow(ALLOW), "every shipped ALLOW entry has a reason",
           failures)

    if failures:
        print("selftest: %d failure(s)" % len(failures))
        return 1
    print("selftest: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: the tool's parent)")
    parser.add_argument("--build-dir", default=None,
                        help="where to build (default: ROOT/build-reach)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the tool's own unit checks and exit")
    args = parser.parse_args()

    if args.selftest:
        return selftest()

    root = os.path.abspath(args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    build_dir = os.path.abspath(args.build_dir or
                                os.path.join(root, "build-reach"))
    try:
        return run(root, build_dir)
    except (RuntimeError, subprocess.CalledProcessError) as e:
        print("reach: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
