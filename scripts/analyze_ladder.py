#!/usr/bin/env python3
"""Timings of `analyze` over Q on dense random pencils, one n per line.

For each n the script builds random_pencil(Q, n, Random(5)) and times its
stages in-process: the Kronecker determinant D with its leading minors
(det_s) and the remainder sequence that gives gcd(D(1, t), D'(1, t))
(gcd_s) apart, then smoothness, which takes both again (smooth_s), root
isolation of D(1, t) by Descartes' rule (isolate_s), and the decomposition
read off the index circle (which isolates again and takes every sample
signature).  It prints the largest bit size
of a numerator or denominator among the circle's samples, and the class.
Each time is a single run.

    python3 scripts/analyze_ladder.py --ns 24 32 40
"""

import argparse
import os
import platform
import random
import time

from qpencil import univariate as uv
from qpencil.circle import pencil_decomposition
from qpencil.fields import QQ
from qpencil.matrices import det_poly
from qpencil.pencil import smoothness
from qpencil.samples import random_pencil


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ns", type=int, nargs="+", default=[24, 32, 40], help="dimensions n (default 24 32 40)")
    args = ap.parse_args()

    print(f"{platform.python_implementation()} {platform.python_version()}, {os.cpu_count()} cpus")
    print(f"{'n':>3} {'det_s':>7} {'gcd_s':>8} {'smooth_s':>9} {'isolate_s':>10} {'decomp_s':>9} {'bits':>5}  class")
    for n in args.ns:
        p = random_pencil(QQ, n, random.Random(5))
        t_det, (d, _) = _timed(lambda: det_poly(QQ, (p.g0, p.g1), minors=True))
        t_gcd = _timed(lambda: uv.gcd_with_derivative(QQ, d))[0] if d else 0.0
        t_smooth, rep = _timed(lambda: smoothness(p))
        stages = f"{n:>3} {t_det:7.3f} {t_gcd:8.3f} {t_smooth:9.3f}"
        if not rep.smooth:
            print(f"{stages} {'-':>10} {'-':>9} {'-':>5}  singular")
            continue
        f = rep.discriminant.chart_main()
        t_isolate, roots = _timed(lambda: uv.isolate_real_roots(f))
        t_decomp, dec = _timed(lambda: pencil_decomposition(p, rep))
        bits = max(max(abs(t.numerator).bit_length(), t.denominator.bit_length()) for t in uv.sample_points_between(roots))
        print(f"{stages} {t_isolate:10.4f} {t_decomp:9.4f} {bits:>5}  {dec.parts}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
