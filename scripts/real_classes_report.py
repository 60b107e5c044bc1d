#!/usr/bin/env python3
"""Print the isotopy classes of smooth pencils in P^n over the reals.

Each class is an odd decomposition of the number of real discriminant roots;
for threefolds (n = 5) the report adds the rationality verdict, the reason,
and the known topological type of the real locus where one is on record.

    python3 scripts/real_classes_report.py          # the table for n = 2..5
    python3 scripts/real_classes_report.py --n 5    # threefolds only
"""

import argparse

from qpencil.classes import enumerate_classes, real_verdict, signature_walk


def report(n: int) -> None:
    classes = enumerate_classes(n)
    print(f"P^{n}: {len(classes)} classes")
    for dec in classes:
        walk = signature_walk(dec, n)
        line = f"  {dec.label():<14} k={dec.k}  walk {walk}"
        if n == 5:
            v = real_verdict(dec)
            verdict = "rational" if v.rational else "NOT rational"
            line += f"  ->  {verdict} ({v.reason})"
            if v.topology:
                line += f", real locus {v.topology}"
        print(line)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=None, help="restrict to one dimension")
    args = ap.parse_args()
    for n in [args.n] if args.n else (2, 3, 4, 5):
        report(n)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
