#!/usr/bin/env python3
"""Print the bytes and line count per record key of ltc-snapshot files.

A record's key is the text before its first space ("x rng" counts as "x"),
the way the snapshot tests name records. Bytes include each line's '\\n'.
The framing lines of a snapshot file (the "# ltc-snapshot" header,
"events_applied" and the "crc32" trailer) count under their own keys, so
the totals are the file's size. A file may also be a bare engine state
(ShardedStreamEngine::SerializeTo output).

Usage:
  tools/snapshot_stats.py state/snapshots/snap-4096.snap [more files...]
  tools/snapshot_stats.py --selftest     # unit checks (run by CI)
"""

import argparse
import sys


def record_stats(text):
    """{key: [lines, bytes]} over the '\\n'-terminated lines of `text`."""
    stats = {}
    for line in text.splitlines(keepends=True):
        key = line.rstrip("\n").split(" ", 1)[0]
        entry = stats.setdefault(key, [0, 0])
        entry[0] += 1
        entry[1] += len(line.encode("utf-8"))
    return stats


def render(name, stats):
    """A table of `stats`, largest first, with a total row."""
    total_bytes = sum(b for _, b in stats.values())
    total_lines = sum(n for n, _ in stats.values())
    rows = [f"{name}: {total_bytes} bytes, {total_lines} lines",
            f"  {'key':<12} {'lines':>9} {'bytes':>11} {'share':>7}"]
    for key, (lines, size) in sorted(stats.items(),
                                     key=lambda kv: (-kv[1][1], kv[0])):
        share = size / total_bytes if total_bytes else 0.0
        rows.append(f"  {key:<12} {lines:>9} {size:>11} {share:>7.1%}")
    return "\n".join(rows)


def selftest():
    snapshot = ("# ltc-snapshot v3\n"
                "events_applied 3\n"
                "a 1 2 0.5\n"
                "a 10 2 0.25\n"
                "x rng 1 2 3 4 0 0\n"
                "x remaining_sum 2.5\n"
                "crc32 0123abcd\n")
    stats = record_stats(snapshot)
    checks = [
        (stats["a"] == [2, len("a 1 2 0.5\n") + len("a 10 2 0.25\n")],
         "two 'a' lines with their newlines"),
        (stats["x"][0] == 2, "'x rng' and 'x remaining_sum' count as 'x'"),
        (stats["#"] == [1, len("# ltc-snapshot v3\n")],
         "the header line counts under '#'"),
        (sum(b for _, b in stats.values()) == len(snapshot),
         "the byte total is the file size"),
        (record_stats("") == {}, "an empty file has no records"),
        (record_stats("s 0.5") == {"s": [1, 5]},
         "an unterminated last line still counts"),
    ]
    table = render("t", stats)
    checks.append((table.splitlines()[2].split()[0] == "x",
                   "the largest key is listed first"))
    failed = [what for ok, what in checks if not ok]
    for what in failed:
        print(f"selftest FAILED: {what}", file=sys.stderr)
    if failed:
        return 1
    print(f"selftest OK ({len(checks)} checks)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*", help="snapshot files")
    parser.add_argument("--selftest", action="store_true",
                        help="run the unit checks and exit")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.files:
        parser.error("no snapshot files given")
    for i, path in enumerate(args.files):
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            print(f"snapshot_stats: {path}: {e.strerror}", file=sys.stderr)
            return 1
        if i:
            print()
        print(render(path, record_stats(text)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
