"""The four workloads: inputs made from the seed, the op each input drives,
and the independent route that checks each op's verdict.

A workload is a sequence of cycles.  Every cycle holds the same size classes
in the same shares, so each run sees the same mix whatever its length.  An
op is a thunk that calls the library; `checks` turns its result into
``(what, got, expected)`` triples and runs outside the timed region.
"""

from __future__ import annotations

import ast
import io
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable

# Library calls go through module attributes, so that a traced run, which
# replaces those attributes, sees them.
from qpencil import circle, cli, fqgeom, isotropy, pencil as pencil_mod, toric
from qpencil.circle import enumerate_classes
from qpencil.curvecounts import curve_data
from qpencil.fields import QQ, PrimeField
from qpencil.linalg import det
from qpencil.pencil import Pencil, diagonal_pencil, discriminant_cover
from qpencil.samples import random_pencil, random_symmetric
from qpencil.univariate import derivative, resultant

Check = tuple[str, Any, Any]


@dataclass
class Op:
    size_class: str
    label: str
    run: Callable[[], Any]
    checks: Callable[[Any], list[Check]]


class Workload:
    name: str
    tail_percentile: int
    # rough seconds per cycle when the benchmark was added; sizes the traced run only
    nominal_cycle_s: float

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """Cheap ops run once before timing, so lazy set-up is paid in setup_s."""
        return self.cycle(0)[:1]

    def shares(self) -> dict[str, float]:
        ops = self.cycle(0)
        return {c: sum(op.size_class == c for op in ops) / len(ops) for c in dict.fromkeys(op.size_class for op in ops)}


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


def _pencils(field: Any, n: int, count: int, rng: random.Random, smooth: bool = True) -> list[Pencil]:
    return [random_pencil(field, n, rng, smooth=smooth) for _ in range(count)]


# ----------------------------------------------------------------------
# fq-torsor
# ----------------------------------------------------------------------


class FqTorsor(Workload):
    """Smooth n=5 pencils over F_3 and F_5 (`torsor_check`, then
    `count_points`) and the toric census at q = 3 and 5.  Per cycle: five
    smooth and one toric op at q=3, one of each at q=5, so q=3 : q=5 = 3 : 1."""

    name = "fq-torsor"
    tail_percentile = 85
    nominal_cycle_s = 1.4

    def __init__(self, seed: int, tiny: bool) -> None:
        self.tiny = tiny
        counts = {3: 2, 5: 0} if tiny else {3: 80, 5: 16}
        self.pools = {q: _pencils(PrimeField(q), 5, k, _rng(self.name, seed, f"q{q}")) for q, k in counts.items()}
        self._expected_points: dict[int, int] = {}

    def cycle(self, index: int) -> list[Op]:
        if self.tiny:
            return [self._smooth(3, index), self._toric(3)]
        smooth3 = [self._smooth(3, 5 * index + k) for k in range(5)]
        return smooth3 + [self._toric(3), self._smooth(5, index), self._toric(5)]

    def warmup(self) -> list[Op]:
        return [self._smooth(3, 0), self._toric(3)]

    def _smooth(self, q: int, k: int) -> Op:
        pencil = self.pools[q][k % len(self.pools[q])]
        return Op(
            f"q={q}",
            f"smooth q={q} #{k % len(self.pools[q])}",
            lambda: (fqgeom.torsor_check(pencil), fqgeom.count_points(pencil)),
            lambda res: self._smooth_checks(pencil, *res),
        )

    def _smooth_checks(self, pencil: Pencil, rep: Any, points: int) -> list[Check]:
        # #X(F_q) = q^3+q^2+q+1 - q (q+1-N1), N1 = #C(F_q) of the genus-2 cover
        key = id(pencil)
        if key not in self._expected_points:
            q = pencil.field.p
            cover = [int(c) for c in discriminant_cover(pencil).chart_main()]
            n1 = curve_data(cover, q).n1
            self._expected_points[key] = q**3 + q**2 + q + 1 - q * (q + 1 - n1)
        return [
            ("points = q^3+q^2+q+1 - q(q+1-N1)", points, self._expected_points[key]),
            ("lines = |Jac C(F_q)|", rep.line_count, rep.jacobian_order),
        ]

    def _toric(self, q: int) -> Op:
        return Op(
            f"q={q}",
            f"toric q={q}",
            lambda: (toric.toric_line_census(q), toric.toric_singular_points(PrimeField(q))),
            lambda res: [
                ("census total = 12 q^2", res[0].total, 12 * q * q),
                ("census consistent", res[0].consistent, True),
                ("singular points", len(res[1]), 6),
            ],
        )


# ----------------------------------------------------------------------
# q-analyze
# ----------------------------------------------------------------------


def analyze(pencil: Pencil) -> dict[str, Any]:
    """The `qpencil analyze` path over the rationals, through public functions."""
    rep = pencil_mod.smoothness(pencil)
    out: dict[str, Any] = {"smooth": rep.smooth, "discriminant": None, "class": None}
    if not rep.degenerate:
        out["discriminant"] = pencil.discriminant_form().coeffs
    fld = pencil.field
    m = pencil.n + 1
    singular = []
    for i in range(m):
        x = [fld.one if j == i else fld.zero for j in range(m)]
        if fld.is_zero(pencil.eval_form(0, x)) and fld.is_zero(pencil.eval_form(1, x)) and pencil_mod.singular_at(pencil, x):
            singular.append(i)
    out["singular"] = singular
    if rep.smooth:
        dec = circle.pencil_decomposition(pencil)
        out["class"] = dec.parts
        if pencil.n == 5:
            out["rational"] = circle.real_verdict(dec, 5).rational
    return out


def _interpolate(values: list[Fraction]) -> list[Fraction]:
    """Ascending coefficients of the polynomial through (t, values[t]), t = 0.."""
    coeffs: list[Fraction] = []
    basis = [Fraction(1)]  # prod_{j < k} (t - j)
    for k, value in enumerate(values):
        at_k = sum(c * k**i for i, c in enumerate(coeffs))
        scale = (value - at_k) / sum(c * k**i for i, c in enumerate(basis))
        coeffs += [Fraction(0)] * (len(basis) - len(coeffs))
        coeffs = [a + scale * b for a, b in zip(coeffs, basis)]
        basis = [Fraction(0)] + basis
        basis = [b - k * c for b, c in zip(basis, basis[1:] + [Fraction(0)])]
    return coeffs


def _full_degree_chart(coeffs: list[Fraction]) -> list[Fraction]:
    """h(t) = F(l t + 1, t) for the first l >= 0 with F(l, 1) != 0, so h has
    the form's full degree and the same root multiplicities."""
    d = len(coeffs) - 1
    lam = next(l for l in range(d + 2) if sum(c * l ** (d - i) for i, c in enumerate(coeffs)) != 0)
    h = [Fraction(0)] * (d + 1)
    for i, c in enumerate(coeffs):
        # c (l t + 1)^(d-i) t^i
        for k in range(d - i + 1):
            h[i + k] += c * comb(d - i, k) * lam**k
    return h


class QAnalyze(Workload):
    """Random pencils over Q, equal shares of n = 3..7, entries in [-9, 9].

    Inputs are drawn without the library's smoothness filter, which would
    put a discriminant per input into set-up.  Random integer pencils are
    smooth with probability close to 1, and each verdict is checked either way.
    A pool holds enough pencils that a run at this library's speed when the
    benchmark was added repeats none."""

    name = "q-analyze"
    tail_percentile = 90
    nominal_cycle_s = 0.6
    sizes = (3, 4, 5, 6, 7)

    def __init__(self, seed: int, tiny: bool) -> None:
        sizes = (3, 4) if tiny else self.sizes
        per = 2 if tiny else 40
        self.pools = {n: _pencils(QQ, n, per, _rng(self.name, seed, f"n{n}"), smooth=False) for n in sizes}
        self._oracle: dict[int, tuple] = {}

    def cycle(self, index: int) -> list[Op]:
        return [self._op(n, index % len(pool)) for n, pool in self.pools.items()]

    def _op(self, n: int, k: int) -> Op:
        pencil = self.pools[n][k]
        return Op(f"n={n}", f"n={n} #{k}", lambda: analyze(pencil), lambda res: self._checks(pencil, res))

    def _checks(self, pencil: Pencil, res: dict[str, Any]) -> list[Check]:
        key = id(pencil)
        if key not in self._oracle:
            self._oracle[key] = self.oracle(pencil)
        disc, smooth, classes = self._oracle[key]
        return [
            ("discriminant = interpolated det(G0 + t G1)", list(res["discriminant"] or []), disc),
            ("smooth = resultant(h, h') != 0", res["smooth"], smooth),
            ("no singular coordinate point when smooth", res["singular"], [] if smooth else res["singular"]),
            ("a class of enumerate_classes(n) exactly when smooth", res["class"] in classes, smooth),
        ]

    @staticmethod
    def oracle(pencil: Pencil) -> tuple[list[Fraction], bool, set]:
        g0, g1 = pencil.g0.to_lists(), pencil.g1.to_lists()
        values = [
            det(QQ, [[a + t * b for a, b in zip(r0, r1)] for r0, r1 in zip(g0, g1)])
            for t in range(pencil.n + 2)
        ]
        disc = _interpolate(values)
        h = _full_degree_chart(disc)
        smooth = resultant(QQ, h, derivative(QQ, h)) != 0
        classes = {dec.parts for dec in enumerate_classes(pencil.n)}
        return disc, smooth, classes


def max_n_ladder(first: int, cap: int, budget_s: float) -> tuple[int, str]:
    """Run `analyze` on diagonal_pencil(QQ, n) for n = first.. cap; return the
    top rung that passes and why the ladder stopped.  Oracle: smooth, with
    discriminant prod_{i=0}^{n} (s0 + i s1)."""

    class RungTimeout(Exception):
        pass

    def alarm(signum: int, frame: Any) -> None:
        raise RungTimeout

    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        for n in range(first, cap + 1):
            expected = [Fraction(1)]  # ascending in s1: prod (1 + i s1)
            for i in range(n + 1):
                expected = [a + i * b for a, b in zip(expected + [0], [0] + expected)]
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            try:
                res = analyze(diagonal_pencil(QQ, n))
            except RungTimeout:
                return n - 1, f"n={n}: over the {budget_s:g} s rung budget"
            except Exception as exc:  # a raised rung ends the ladder; report it
                return n - 1, f"n={n}: raised {type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            took = time.perf_counter() - start
            if not res["smooth"] or list(res["discriminant"] or []) != expected:
                return n - 1, (
                    f"n={n}: wrong verdict smooth={str(res['smooth']).lower()}, "
                    f"discriminant={'null' if res['discriminant'] is None else 'wrong'}; "
                    f"oracle: smooth, discriminant prod(s0 + i s1) ({took:.3f} s)"
                )
        return cap, f"reached the cap n={cap}"
    finally:
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# amer-audit
# ----------------------------------------------------------------------


F3 = PrimeField(3)


def brute_common_zeros(f: Any, g: Any) -> int:
    """Common zeros of two forms over P^(m-1)(F_3), in plain Python."""
    m = f.size
    a = [[int(x) for x in row] for row in f.to_lists()]
    b = [[int(x) for x in row] for row in g.to_lists()]
    count = 0
    for code in range(3**m):
        x = [(code // 3**i) % 3 for i in range(m)]
        nonzero = [c for c in x if c]
        if not nonzero or nonzero[-1] != 1:  # one representative per point
            continue
        qa = sum(x[i] * a[i][j] * x[j] for i in range(m) for j in range(m))
        qb = sum(x[i] * b[i][j] * x[j] for i in range(m) for j in range(m))
        count += qa % 3 == 0 and qb % 3 == 0
    return count


class AmerAudit(Workload):
    """Criterion 11's draw of form pairs over F_3, stratified: each cycle has
    one pair of every class (m, d), m in {2, 3, 4}, d in {0..3}."""

    name = "amer-audit"
    tail_percentile = 95
    nominal_cycle_s = 0.5

    def __init__(self, seed: int, tiny: bool) -> None:
        ms, ds, per = ((2, 3), (0, 1), 2) if tiny else ((2, 3, 4), (0, 1, 2, 3), 48)
        self.pools: dict[tuple[int, int], list] = {}
        for m in ms:
            for d in ds:
                rng = _rng(self.name, seed, f"m{m}d{d}")
                self.pools[m, d] = [(random_symmetric(F3, m, rng), random_symmetric(F3, m, rng)) for _ in range(per)]

    def cycle(self, index: int) -> list[Op]:
        return [self._op(m, d, index % len(pool)) for (m, d), pool in self.pools.items()]

    def _op(self, m: int, d: int, k: int) -> Op:
        f, g = self.pools[m, d][k]
        return Op(
            f"m={m},d={d}",
            f"m={m},d={d} #{k}",
            lambda: isotropy.amer_harness(f, g, d, F3),
            lambda rep: [
                ("common zeros = brute-force count", rep.common_zero_count, brute_common_zeros(f, g)),
                ("report consistent", rep.consistent, True),
            ],
        )


# ----------------------------------------------------------------------
# cli-goldens
# ----------------------------------------------------------------------


def golden_cases(root: Path) -> list[tuple[str, list[str]]]:
    """GOLDEN_CASES of tests/test_cli.py, read without importing the tests."""
    tree = ast.parse((root / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "GOLDEN_CASES" for t in node.targets):
            return [(name, list(argv)) for name, argv in ast.literal_eval(node.value)]
    raise RuntimeError("tests/test_cli.py defines no GOLDEN_CASES")


def child_env(root: Path) -> dict[str, str]:
    """The environment of every child interpreter: this checkout's sources
    first on the path and QPENCIL_THREADS unset."""
    env = dict(os.environ)
    env.pop("QPENCIL_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


class CliGoldens(Workload):
    """The CLI golden cases, each in a fresh `python -m qpencil.cli ... --json`
    subprocess from the checkout root; the seed shuffles each cycle.  With
    ``in_process`` the same cases go through `cli.run` instead (traced runs)."""

    name = "cli-goldens"
    tail_percentile = 80
    nominal_cycle_s = 0.3  # in process; a subprocess cycle takes about 7 s

    def __init__(self, seed: int, tiny: bool, root: Path, in_process: bool = False) -> None:
        self.root = root
        self.cases = golden_cases(root)[: 2 if tiny else None]
        self.golden = {name: (root / "tests" / "golden" / f"{name}.json").read_bytes() for name, _ in self.cases}
        self.rng = _rng(self.name, seed, "order")
        self.env = child_env(root)
        self.in_process = in_process
        self._cycles: list[list[int]] = []

    def cycle(self, index: int) -> list[Op]:
        while len(self._cycles) <= index:
            order = list(range(len(self.cases)))
            self.rng.shuffle(order)
            self._cycles.append(order)
        return [self._op(*self.cases[i]) for i in self._cycles[index]]

    def warmup(self) -> list[Op]:
        return [self._op(*self.cases[0])]

    def _op(self, name: str, argv: list[str]) -> Op:
        run = self._in_process(argv) if self.in_process else self._subprocess(argv)
        return Op(
            argv[0],
            name,
            run,
            lambda res: [("exit code", res[0], 0), ("stdout = tests/golden/" + name + ".json", res[1], self.golden[name])],
        )

    def _subprocess(self, argv: list[str]) -> Callable[[], tuple[int, bytes]]:
        def run() -> tuple[int, bytes]:
            done = subprocess.run(
                [sys.executable, "-m", "qpencil.cli", *argv],
                cwd=self.root,
                env=self.env,
                stdout=subprocess.PIPE,
                timeout=120,
                check=False,
            )
            return done.returncode, done.stdout

        return run

    def _in_process(self, argv: list[str]) -> Callable[[], tuple[int, bytes]]:
        def run() -> tuple[int, bytes]:
            out, err = io.StringIO(), io.StringIO()
            code, _ = cli.run(argv, out=out, err=err)
            return code, out.getvalue().encode("utf-8")

        return run


WORKLOADS = ("fq-torsor", "q-analyze", "amer-audit", "cli-goldens")


def build(name: str, seed: int, tiny: bool, root: Path, in_process: bool) -> Workload:
    if name == "fq-torsor":
        return FqTorsor(seed, tiny)
    if name == "q-analyze":
        return QAnalyze(seed, tiny)
    if name == "amer-audit":
        return AmerAudit(seed, tiny)
    if name == "cli-goldens":
        return CliGoldens(seed, tiny, root, in_process)
    raise ValueError(f"unknown workload {name!r}")
