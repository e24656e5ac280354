#!/usr/bin/env python3
"""Gate bench JSON summaries against checked-in perf baselines.

Usage:
  tools/bench_compare.py --manifest bench/gates.json --job bench-smoke \\
      [--bin-dir build/bench]
      runs every row of bench/gates.json that names this job in
      bench-out/JOB, gates each row's output against each of its
      baselines, and prints one summary. A row fails when its command
      exits non-zero or writes no JSON, or when a gate fails; every row
      still runs.
  tools/bench_compare.py --manifest bench/gates.json --check
      checks the manifest without running a bench (ctest runs this).
  tools/bench_compare.py --current out.json --baseline BENCH_PR2.json \\
      --gate mean_latency:0.25 [--gate events_per_sec:0.9:floor ...]
      one ad-hoc comparison over every figure both files hold.
  tools/bench_compare.py --selftest

A gate is METRIC:TOL[:floor]: the metric's relative drift from the
baseline may not exceed TOL. A trailing ':floor' makes it one-sided, so
only a drop below baseline*(1 - TOL) fails; that is the shape for
machine-dependent throughput, where a faster runner must never fail. A
baseline value of exactly 0 has no relative drift, so that cell compares
the absolute difference against TOL instead.

Every baseline (case, algorithm) cell whose case label the current run
produced must be present in the current run, with every gated metric the
baseline cell carries; a missing one fails. Case labels the run did not
produce (a --cases subset) are exempt. A missing or malformed file, or a
comparison with no shared figure, cell or gated value, fails too.

Accepted file shapes: a single-suite object {"figure": ..., "cases":
[...]}, a wrapper {"suites": [<object>, ...]}, and baselines that keep
their comparable run under "current" (BENCH_PR2.json).
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class GateError(Exception):
    pass


def fail(message):
    raise GateError(message)


def load_json(path, role):
    if not os.path.exists(path):
        fail(f"{role} file is missing: {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot parse {role} file {path}: {error}")


def extract_suites(doc, path):
    """Returns {figure_name: {(label, algo): record}} from any shape."""
    if not isinstance(doc, dict):
        fail(f"{path}: top level is not a JSON object")
    objects = doc.get("suites", [doc])
    if not isinstance(objects, list):
        fail(f"{path}: 'suites' is not a list")
    suites = {}
    for obj in objects:
        if not isinstance(obj, dict) or "figure" not in obj:
            fail(f"{path}: suite entry without a 'figure' field")
        cases = obj.get("current", obj).get("cases")
        if not isinstance(cases, list) or not cases:
            fail(f"{path}: figure {obj['figure']!r} has no cases")
        cells = {}
        for case in cases:
            label = case.get("label")
            algorithms = case.get("algorithms")
            if label is None or not isinstance(algorithms, list) or not algorithms:
                fail(f"{path}: malformed case in figure {obj['figure']!r}")
            for algo in algorithms:
                if "name" not in algo:
                    fail(f"{path}: algorithm record without 'name' "
                         f"in figure {obj['figure']!r}")
                cells[(label, algo["name"])] = algo
        suites[obj["figure"]] = cells
    return suites


def parse_gate(spec):
    """METRIC:TOL[:floor] -> (metric, tolerance, floor_only)."""
    parts = spec.split(":")
    if len(parts) not in (2, 3) or not parts[0]:
        fail(f"bad gate {spec!r}: expected METRIC:TOL[:floor]")
    try:
        tolerance = float(parts[1])
    except ValueError:
        fail(f"bad gate tolerance in {spec!r}")
    if tolerance < 0:
        fail(f"bad gate tolerance in {spec!r}: negative")
    if len(parts) == 3 and parts[2] != "floor":
        fail(f"bad gate mode in {spec!r}: only 'floor' is known")
    return parts[0], tolerance, len(parts) == 3


def compare_cells(baseline, current, gates, figures):
    """Diffs every baseline cell of `figures` whose case label the current
    run produced, for every gate. Returns (rows, failures); a row is
    (figure, label, name, metric, tolerance, base, cur, drift, mode,
    status), mode "rel" or "abs" (zero baseline), status "ok", "DRIFT" or
    "MISSING" (cur and drift None: the current run lacks the cell or the
    metric)."""
    rows = []
    failures = []
    for figure in figures:
        cur_cells = current[figure]
        produced = {label for label, _ in cur_cells}
        for key, base_algo in sorted(baseline[figure].items()):
            if key[0] not in produced:
                continue
            cur_algo = cur_cells.get(key, {})
            for metric, tolerance, floor_only in gates:
                base_value = base_algo.get(metric)
                cur_value = cur_algo.get(metric)
                if base_value is None:
                    continue  # the baseline never recorded this metric here
                mode = "abs" if base_value == 0 else "rel"
                if cur_value is None:
                    drift, status = None, "MISSING"
                else:
                    drift = cur_value - base_value
                    if mode == "rel":
                        drift /= abs(base_value)
                    # A floor gate never fails an improvement.
                    bad = (drift < -tolerance if floor_only
                           else abs(drift) > tolerance)
                    status = "DRIFT" if bad else "ok"
                rows.append((figure, key[0], key[1], metric, tolerance,
                             base_value, cur_value, drift, mode, status))
                if status != "ok":
                    failures.append(rows[-1])
    return rows, failures


def describe(row):
    figure, label, name, metric, tolerance, _, _, drift, mode, status = row
    if status == "MISSING":
        return f"{figure}/{label}/{name} {metric} missing from the current run"
    shown = (f"{drift:+.1%}" if mode == "rel"
             else f"{drift:+.3f} (absolute; zero baseline)")
    return (f"{figure}/{label}/{name} {metric} drifted {shown} "
            f"(tolerance {tolerance:.0%})")


def gate_files(current_path, baseline_path, gates, figure=None):
    """Gates one summary against one baseline, over `figure` or, when None,
    every figure both hold; prints the table and returns the comparison
    count, or raises GateError."""
    current = extract_suites(load_json(current_path, "current"), current_path)
    baseline = extract_suites(load_json(baseline_path, "baseline"),
                              baseline_path)
    if figure is None:
        figures = sorted(set(baseline) & set(current))
        if not figures:
            fail(f"no overlapping figure: baseline has {sorted(baseline)}, "
                 f"current has {sorted(current)}")
    else:
        for suites, path in ((baseline, baseline_path),
                             (current, current_path)):
            if figure not in suites:
                fail(f"{path} has no figure {figure!r}")
        figures = [figure]
    rows, failures = compare_cells(baseline, current, gates, figures)
    if not rows:
        fail(f"no comparable value: baseline {baseline_path} names no case "
             f"the current run produced, or its cells carry none of "
             f"{[m for m, _, _ in gates]}")
    for metric, _, _ in gates:
        if not any(r[3] == metric for r in rows):
            fail(f"gated metric {metric!r} is absent from every compared "
                 f"baseline cell — wrong metric name, or stale baseline?")

    header = (f"{'figure':20} {'case':>8} {'algorithm':12} "
              f"{'metric':26} {'baseline':>12} {'current':>12} {'drift':>8}")
    print(header)
    print("-" * len(header))
    for figure_, label, name, metric, _, base, cur, drift, mode, status \
            in rows:
        shown = ("" if drift is None else f"{drift:+7.1%}" if mode == "rel"
                 else f"{drift:+8.3f}")
        cur_shown = "-" if cur is None else f"{cur:.3f}"
        print(f"{figure_:20} {label:>8} {name:12} {metric:26} "
              f"{base:12.3f} {cur_shown:>12} {shown:>8} {status}")
    if failures:
        fail(f"{len(failures)}/{len(rows)} comparison(s) fail: "
             + "; ".join(describe(r) for r in failures[:5]))
    return len(rows)


def workflow_jobs(root):
    """The --job names the workflows pass to this tool."""
    jobs = set()
    for path in glob.glob(os.path.join(root, ".github", "workflows", "*.yml")):
        with open(path, "r", encoding="utf-8") as f:
            jobs.update(re.findall(r"--job\s+([\w-]+)", f.read()))
    return jobs


def check_manifest(path, root=ROOT, jobs=None):
    """Validates the manifest without running a bench; returns its rows."""
    rows = load_json(path, "manifest").get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: no 'rows' list")
    jobs = workflow_jobs(root) if jobs is None else jobs
    outputs = set()
    for row in rows:
        keys = {"command", "output", "jobs", "baselines", "why"}
        if not isinstance(row, dict) or set(row) != keys:
            fail(f"{path}: a row must hold exactly {sorted(keys)}: {row!r}")
        where = f"{path}: row {row['output']!r}"
        command = row["command"]
        if (not isinstance(command, list) or not command
                or not all(isinstance(a, str) for a in command)):
            fail(f"{where}: 'command' is not a list of strings")
        if not os.path.exists(os.path.join(root, "bench",
                                           command[0] + ".cc")):
            fail(f"{where}: no bench/{command[0]}.cc")
        if any(a.startswith("--json") for a in command):
            fail(f"{where}: the driver adds --json=OUTPUT itself")
        if row["output"] in outputs or not row["output"].endswith(".json"):
            fail(f"{where}: output must be a unique *.json name")
        outputs.add(row["output"])
        for job in row["jobs"]:
            if job not in jobs:
                fail(f"{where}: no workflow runs --job {job} "
                     f"(workflows use {sorted(jobs)})")
        if not row["baselines"] or not row["why"]:
            fail(f"{where}: needs at least one baseline and a 'why'")
        for base in row["baselines"]:
            if set(base) != {"file", "figure", "gates"} or not base["gates"]:
                fail(f"{where}: a baseline holds file, figure and gates")
            cells = extract_suites(
                load_json(os.path.join(root, base["file"]), "baseline"),
                base["file"]).get(base["figure"])
            if cells is None:
                fail(f"{where}: {base['file']} has no figure "
                     f"{base['figure']!r}")
            for metric, _, _ in map(parse_gate, base["gates"]):
                if not any(metric in cell for cell in cells.values()):
                    fail(f"{where}: {base['file']} {base['figure']} has no "
                         f"{metric!r} value")
    for job in jobs:
        if not any(job in row["jobs"] for row in rows):
            fail(f"{path}: a workflow runs --job {job}, but no row names it")
    return rows


def run_job(manifest, job, bin_dir, out_dir, root=ROOT, jobs=None):
    """Runs and gates every row of `job`; returns the failure count."""
    rows = [r for r in check_manifest(manifest, root, jobs)
            if job in r["jobs"]]
    if not rows:
        fail(f"{manifest}: no row names job {job!r}")
    bin_dir = os.path.abspath(bin_dir)
    os.makedirs(out_dir, exist_ok=True)
    summary = []
    for row in rows:
        output = os.path.join(out_dir, row["output"])
        argv = ([os.path.join(bin_dir, row["command"][0])]
                + row["command"][1:] + ["--json=" + row["output"]])
        print(f"== {row['output']}: {' '.join(row['command'])}", flush=True)
        if os.path.exists(output):
            os.remove(output)  # a stale summary must not pass for this run
        started = time.monotonic()
        code = subprocess.call(argv, cwd=out_dir)
        took = f"{time.monotonic() - started:.0f}s"
        if code != 0:
            summary.append((row["output"], "-", f"FAIL: exited {code}", took))
            continue
        if not os.path.exists(output):
            summary.append((row["output"], "-", "FAIL: wrote no JSON", took))
            continue
        for base in row["baselines"]:
            gates = [parse_gate(g) for g in base["gates"]]
            try:
                count = gate_files(output, os.path.join(root, base["file"]),
                                   gates, base["figure"])
                verdict = f"PASS ({count} comparisons)"
            except GateError as error:
                verdict = f"FAIL: {error}"
            print(f"{row['output']} vs {base['file']}: {verdict}", flush=True)
            summary.append((row["output"], base["file"], verdict, took))
    print(f"\nbench_compare: job {job}")
    for output, base, verdict, took in summary:
        print(f"  {output:24} {base:16} {took:>6}  {verdict}")
    return sum(1 for s in summary if s[2].startswith("FAIL"))


def selftest():
    """Unit checks of the comparison core and the manifest driver."""
    rel, floor = [("m", 0.25, False)], [("m", 0.9, True)]

    def suites(value, label="c"):
        return {"fig": {(label, "A"): {"m": value}}}

    def compare(base, cur, gates):
        return compare_cells(base, cur, gates, ["fig"])

    def rejected(fn, *args):
        try:
            fn(*args)
        except GateError:
            return True
        return False

    # Zero baseline: absolute fallback, not a silent skip.
    rows, failures = compare(suites(0.0), suites(0.0), rel)
    assert len(rows) == 1 and not failures and rows[0][8] == "abs", rows
    assert not compare(suites(0.0), suites(0.1), rel)[1]
    assert len(compare(suites(0.0), suites(0.5), rel)[1]) == 1
    # Zero-baseline floor gate: throughput only collapses upward from 0.
    assert not compare(suites(0.0), suites(123.0), floor)[1]
    # Relative: +30% fails a symmetric 25% gate; a floor fails only drops.
    rows, failures = compare(suites(1.0), suites(1.3), rel)
    assert len(failures) == 1 and rows[0][8] == "rel", rows
    assert not compare(suites(1.0), suites(5.0), floor)[1]
    assert len(compare(suites(1.0), suites(0.05), floor)[1]) == 1
    # A produced case that lost a cell, or a cell that lost a gated
    # metric, fails; a case the run did not produce stays exempt.
    base = {"fig": {("c", "A"): {"m": 1.0}, ("c", "B"): {"m": 1.0},
                    ("d", "A"): {"m": 1.0}}}
    rows, failures = compare(base, suites(1.0), rel)
    assert [r[2] for r in failures] == ["B"] and len(rows) == 2, rows
    assert failures[0][9] == "MISSING", failures
    _, failures = compare(suites(1.0), {"fig": {("c", "A"): {}}}, rel)
    assert len(failures) == 1 and failures[0][9] == "MISSING", failures
    assert not compare(base, suites(1.0, "d"), rel)[1]
    # Every gate states its tolerance.
    for spec in ("m", "m:x", "m:0.2:ceil", ":0.2", "m:-1"):
        assert rejected(parse_gate, spec), spec
    assert parse_gate("m:0.9:floor") == ("m", 0.9, True)

    # The driver: a row that exits non-zero, one that writes no JSON and
    # one whose output drifts fail; a matching one passes. A gate the
    # baseline cannot answer fails the manifest check before any run.
    with tempfile.TemporaryDirectory() as root:
        os.makedirs(os.path.join(root, "bench"))
        with open(os.path.join(root, "BASE.json"), "w") as f:
            json.dump({"figure": "fig", "cases": [
                {"label": "c", "algorithms": [{"name": "A", "m": 1.0}]}]}, f)
        fake = os.path.join(root, "bench", "fake")
        with open(fake, "w") as f:
            f.write("#!/bin/sh\n[ \"$1\" = exit ] && exit 3\n"
                    "[ \"$1\" = quiet ] && exit 0\nout=${2#--json=}\n"
                    "echo '{\"figure\": \"fig\", \"cases\": [{\"label\": "
                    "\"c\", \"algorithms\": [{\"name\": \"A\", \"m\": '$1'}"
                    "]}]}' > $out\n")
        os.chmod(fake, 0o755)
        open(fake + ".cc", "w").close()

        def job(arg, gate="m:0.25"):
            manifest = os.path.join(root, "gates.json")
            with open(manifest, "w") as f:
                json.dump({"rows": [{
                    "command": ["fake", arg], "output": "out.json",
                    "jobs": ["j"], "why": "selftest", "baselines": [{
                        "file": "BASE.json", "figure": "fig",
                        "gates": [gate]}]}]}, f)
            return run_job(manifest, "j", os.path.join(root, "bench"),
                           os.path.join(root, "out"), root, {"j"})

        assert job("1.0") == 0
        assert job("1.5") == 1
        assert job("exit") == 1
        assert job("quiet") == 1
        assert rejected(job, "1.0", "m")
        assert rejected(job, "1.0", "nosuch:0.25")
    print("bench_compare: SELFTEST PASS")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--manifest", help="bench/gates.json")
    parser.add_argument("--job", help="run and gate this job's rows")
    parser.add_argument("--check", action="store_true",
                        help="check the manifest without running a bench")
    parser.add_argument("--bin-dir", default=os.path.join("build", "bench"),
                        help="where the bench binaries are")
    parser.add_argument("--current", help="bench JSON summary to gate")
    parser.add_argument("--baseline", help="checked-in BENCH_*.json")
    parser.add_argument("--gate", action="append", default=[],
                        metavar="METRIC:TOL[:floor]",
                        help="repeatable; e.g. --gate events_per_sec:0.9:floor")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in unit checks and exit")
    args = parser.parse_args()

    try:
        if args.selftest:
            selftest()
        elif args.manifest and args.check:
            rows = check_manifest(args.manifest)
            print(f"bench_compare: manifest OK ({len(rows)} rows)")
        elif args.manifest and args.job:
            failed = run_job(args.manifest, args.job, args.bin_dir,
                             os.path.join("bench-out", args.job))
            if failed:
                fail(f"{failed} row/baseline pair(s) of job {args.job} failed")
            print(f"bench_compare: PASS (job {args.job})")
        elif args.current and args.baseline and args.gate:
            count = gate_files(args.current, args.baseline,
                               [parse_gate(g) for g in args.gate])
            print(f"bench_compare: PASS ({count} comparison(s))")
        else:
            fail("give --manifest with --job or --check, or --current, "
                 "--baseline and at least one --gate, or --selftest")
    except GateError as error:
        print(f"bench_compare: FAIL: {error}")
        sys.exit(1)


if __name__ == "__main__":
    main()
