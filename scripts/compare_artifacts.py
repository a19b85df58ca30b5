#!/usr/bin/env python3
"""Check that two artifact directories hold the same results.

The directories must hold the same set of files, searched recursively.
Every report.json must match apart from its `timestamp` and
`runtime_seconds`, which differ between any two runs; every other file
(the CSVs, and aggregate.json of a batch) must be byte-equal.  Exits 0
when they do, else prints every difference, one a line (each key path of
a report, the first differing line of another file), and exits 1.

Example:
    python3 scripts/compare_artifacts.py runs/before runs/after
"""

import argparse
import json
import sys
from pathlib import Path

RUN_DEPENDENT = ("timestamp", "runtime_seconds")


def files_under(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def json_differences(a, b, where: str = ""):
    """Every key path at which two parsed JSON values differ, in order.
    Leaves are compared by type and repr, so 0.0 and -0.0 differ too."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                yield f"{where}/{key}: only in {'A' if key in a else 'B'}"
            else:
                yield from json_differences(a[key], b[key], f"{where}/{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{where}: {len(a)} entries against {len(b)}"
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                yield from json_differences(x, y, f"{where}[{i}]")
    elif (type(a), repr(a)) != (type(b), repr(b)):
        yield f"{where}: {a!r} against {b!r}"


def first_line_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = a.splitlines(keepends=True), b.splitlines(keepends=True)
    for number, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return f"line {number}: {x!r} against {y!r}"
    return f"{len(lines_a)} lines against {len(lines_b)}"


def differences(dir_a: Path, dir_b: Path):
    """Every difference between the two directories, one line each."""
    names_a, names_b = files_under(dir_a), files_under(dir_b)
    if names_a != names_b:
        yield (f"file sets differ: only in A {sorted(names_a - names_b)}, "
               f"only in B {sorted(names_b - names_a)}")
    for name in sorted(names_a & names_b):
        a, b = (dir_a / name).read_bytes(), (dir_b / name).read_bytes()
        if Path(name).name == "report.json":
            reports = [json.loads(text) for text in (a, b)]
            for report in reports:
                for key in RUN_DEPENDENT:
                    report.pop(key, None)
            for difference in json_differences(*reports):
                yield f"{name}: {difference}"
        elif a != b:
            yield f"{name}: {first_line_difference(a, b)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    args = ap.parse_args()
    for directory in (args.dir_a, args.dir_b):
        if not directory.is_dir():
            ap.error(f"{directory} is not a directory")

    found = list(differences(args.dir_a, args.dir_b))
    if found:
        print("\n".join(found))
        sys.exit(1)
    print(f"identical: {len(files_under(args.dir_a))} files")


if __name__ == "__main__":
    main()
