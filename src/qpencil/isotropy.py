"""Isotropy of quadratic forms over ℝ and small prime fields, and an
exhaustive audit of the equivalence

    f + t·g isotropic over F_q(t)  <=>  f and g share a projective zero,

checked degree by degree on polynomial vectors x(t).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Sequence

import numpy as np

from .errors import InternalCheckError, PrecondError
from .fields import PrimeField
from .fqgeom import _common_zeros, _gram_array
from .linalg import rank
from .matrices import SymMatrix, inertia

AMER_SEARCH_LIMIT = 5 * 10**7
_CHUNK = 1 << 17


class _RealField:
    """Marker for deciding isotropy over ℝ; the input must have exact
    rational entries, the verdict is read off the inertia."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "REALS"


REALS = _RealField()


def isotropic(form: SymMatrix, field: Any) -> bool:
    """Does the quadratic form have a nontrivial zero over the given field?

    Over ℝ (pass ``REALS``; entries must be rational) this is inertia
    arithmetic: anything except a definite form of full rank is isotropic.
    Over a prime field, a form of rank < size has a kernel vector, a
    nondegenerate form in >= 3 variables is always isotropic, and what
    remains is small enough to scan.
    """
    if field is REALS:
        pos, neg, zero = inertia(form)
        return zero > 0 or (pos > 0 and neg > 0)
    if isinstance(field, PrimeField):
        m = form.size
        r = rank(field, form.to_lists())
        if r < m:
            return True
        if r >= 3:
            # every nondegenerate form in >= 3 variables over a finite field
            # is isotropic; the scan-based audit lives in the test suite
            return True
        return isotropic_witness(form, field) is not None
    raise PrecondError("isotropy is decided over REALS or a prime field")


def isotropic_witness(form: SymMatrix, field: PrimeField) -> tuple[int, ...] | None:
    """Exhaustive search for a nontrivial zero of the form over F_q.

    Independent of the rank shortcuts in :func:`isotropic`, so it doubles as
    their audit on small inputs.
    """
    m = form.size
    q = field.p
    if q**m > 10**6:
        raise PrecondError(f"scan of {q}^{m} vectors is out of bounds")
    g = form.to_lists()
    for vec in product(range(q), repeat=m):
        if not any(vec):
            continue
        total = 0
        for i in range(m):
            if vec[i] == 0:
                continue
            for j in range(m):
                total += vec[i] * g[i][j] * vec[j]
        if total % q == 0:
            return vec
    return None


@dataclass(frozen=True)
class AmerReport:
    """Witness data from one run of the polynomial-solution harness.

    ``solution`` lists the coefficient vectors a_0..a_D of x(t) = Σ a_k t^k
    with (f + t·g)(x(t)) = 0 identically, when one exists."""

    q: int
    nvars: int
    degree_bound: int
    common_zero: tuple[int, ...] | None
    common_zero_count: int
    solution: tuple[tuple[int, ...], ...] | None
    candidates: int

    @property
    def consistent(self) -> bool:
        return (self.common_zero is None) == (self.solution is None)


def _affine_zero_vectors(gram: np.ndarray, q: int, m: int) -> np.ndarray:
    grid = np.indices((q,) * m).reshape(m, -1).T % q
    vals = np.einsum("nk,kl,nl->n", grid, gram, grid) % q
    return np.ascontiguousarray(grid[vals == 0])


def _vandermonde_inverse(points: Sequence[int], field: PrimeField) -> np.ndarray:
    k = len(points)
    rows = [[pow(a, j, field.p) for j in range(k)] for a in points]
    from .linalg import invert

    inv = invert(field, [[field.from_int(x) for x in row] for row in rows])
    return np.array([[int(c) for c in row] for row in inv], dtype=np.int64)


def amer_harness(f: SymMatrix, g: SymMatrix, degree_bound: int, field: PrimeField) -> AmerReport:
    """Exhaustively confront common zeros of (f, g) with polynomial solutions
    of (f + t·g)(x(t)) = 0 of degree <= degree_bound.

    Candidates x(t) are parametrized by their values at the field points
    (each value forced into the zero set of the corresponding specialization
    f + a·g) plus, when degree_bound >= q, a top correction c·(t^q - t) whose
    vector must kill the leading coefficient, i.e. g(c) = 0.  Survivors of
    the pruning are verified coefficient by coefficient; a found solution is
    re-verified in exact arithmetic.  Both implications of the equivalence
    are asserted; a violation in either direction is an internal error.
    """
    if not isinstance(field, PrimeField):
        raise PrecondError("the harness runs over prime fields")
    q = field.p
    m = f.size
    if g.size != m:
        raise PrecondError("forms must have the same number of variables")
    if q > 5:
        raise PrecondError("the harness is sized for q <= 5")
    if m > 5:
        raise PrecondError("the harness is sized for <= 5 variables")
    if not (0 <= degree_bound <= 3):
        raise PrecondError("degree bound must be between 0 and 3")

    gf, gg = _gram_array(f, q), _gram_array(g, q)

    # (a) projective common zeros
    zero_pts = _common_zeros(q, m, [gf, gg])
    common: tuple[int, ...] | None = None
    if len(zero_pts):
        common = tuple(int(c) for c in zero_pts[0])

    # (b) polynomial solutions by value parametrization
    npoints = min(degree_bound + 1, q)
    points = list(range(npoints))
    ncorr = max(0, degree_bound + 1 - q)
    value_sets = []
    for a in points:
        spec = (gf + a * gg) % q
        value_sets.append(_affine_zero_vectors(spec, q, m))
    corr_set = _affine_zero_vectors(gg, q, m) if ncorr else np.zeros((1, m), dtype=np.int64)

    total = int(np.prod([len(vs) for vs in value_sets], dtype=np.int64)) * len(corr_set)
    if total > AMER_SEARCH_LIMIT:
        raise PrecondError(f"{total} candidates exceed the search budget")

    vinv = _vandermonde_inverse(points, field)  # npoints x npoints
    ncoef = degree_bound + 1
    sizes = [len(vs) for vs in value_sets] + [len(corr_set)]

    solution: tuple[tuple[int, ...], ...] | None = None
    start = 0
    while start < total and solution is None:
        stop = min(start + _CHUNK, total)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = []
        rest = idx
        for size in reversed(sizes):
            digits.append(rest % size)
            rest = rest // size
        digits.reverse()
        values = np.stack(
            [value_sets[i][digits[i]] for i in range(npoints)], axis=1
        )  # (N, npoints, m)
        coeffs = np.zeros((len(idx), ncoef, m), dtype=np.int64)
        interp = np.einsum("kj,njv->nkv", vinv, values) % q
        coeffs[:, :npoints, :] = interp
        if ncorr:
            corr = corr_set[digits[-1]]  # (N, m)
            # x(t) += (t^q - t) * c
            coeffs[:, q, :] = (coeffs[:, q, :] + corr) % q
            coeffs[:, 1, :] = (coeffs[:, 1, :] - corr) % q
        bf = np.einsum("nkv,vw,nlw->nkl", coeffs, gf, coeffs) % q
        bg = np.einsum("nkv,vw,nlw->nkl", coeffs, gg, coeffs) % q
        good = np.ones(len(idx), dtype=bool)
        for s in range(2 * degree_bound + 2):
            acc = np.zeros(len(idx), dtype=np.int64)
            for k in range(ncoef):
                l = s - k
                if 0 <= l < ncoef:
                    acc += bf[:, k, l]
                l = s - 1 - k
                if 0 <= l < ncoef:
                    acc += bg[:, k, l]
            good &= acc % q == 0
        good &= coeffs.any(axis=(1, 2))
        hits = np.flatnonzero(good)
        if len(hits):
            sol = coeffs[hits[0]]
            solution = tuple(tuple(int(c) for c in row) for row in sol)
        start = stop

    if solution is not None:
        _verify_polynomial_solution(f, g, solution, field)

    report = AmerReport(
        q=q,
        nvars=m,
        degree_bound=degree_bound,
        common_zero=common,
        common_zero_count=len(zero_pts),
        solution=solution,
        candidates=total,
    )
    if common is not None and solution is None:
        raise InternalCheckError(
            "a common zero is itself a constant solution, but the search found none"
        )
    if solution is not None and common is None:
        raise InternalCheckError(
            "polynomial solution without a common zero: the equivalence is violated"
        )
    return report


def _verify_polynomial_solution(
    f: SymMatrix,
    g: SymMatrix,
    coeffs: Sequence[Sequence[int]],
    field: PrimeField,
) -> None:
    """Exact-arithmetic replay of (f + t·g)(x(t)) = 0 for one candidate."""
    from .univariate import add, is_zero_poly, mul, scale

    m = f.size
    xs = [[field.from_int(coeffs[k][i]) for k in range(len(coeffs))] for i in range(m)]
    total: list = [field.zero]
    tshift = [field.zero, field.one]
    for i in range(m):
        for j in range(m):
            prod = mul(field, xs[i], xs[j])
            fpart = scale(field, f[i, j], prod)
            gpart = mul(field, tshift, scale(field, g[i, j], prod))
            total = add(field, total, add(field, fpart, gpart))
    if not is_zero_poly(field, total):
        raise InternalCheckError("candidate solution fails exact re-verification")
