"""An exhaustive audit, over small prime fields, of Amer's equivalence

    f + t·g isotropic over F_q(t)  <=>  f and g share a projective zero,

checked degree by degree on polynomial vectors x(t).
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Sequence

from .errors import InternalCheckError, PrecondError, check, within
from .fields import PrimeField
from .fqgeom import _gram_array, _quadric_values
from .matrices import SymMatrix
from .records import record

if TYPE_CHECKING:
    import numpy as np

# candidates of one Amer search: full searches that found no solution
# (q = 5, m = 4, d = 3, 4.8e7 candidates) took 6.0-6.6 s (2-core Intel
# Xeon, CPython 3.11.7)
AMER_SEARCH_LIMIT = 5 * 10**7
_FIRST_CHUNK = 64
# A chunk's arrays hold a few entries per candidate and table, so the cap
# bounds the harness's working memory (under 1 MB at 4096, whatever the
# pair); a full search runs no slower than with larger chunks.
_CHUNK = 1 << 12


@record
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
    """The zeros of the form in F_q^m, in lexicographic order (zero first)."""
    import numpy as np

    grid = np.indices((q,) * m, dtype=np.int64).reshape(m, -1).T
    return grid[_quadric_values(grid, gram, q) == 0]


@functools.lru_cache(maxsize=16)
def _vandermonde_inverse(npoints: int, p: int) -> np.ndarray:
    """Inverse mod p of the Vandermonde matrix of the points 0..npoints-1,
    read-only because every caller shares it."""
    import numpy as np

    from .linalg import invert

    rows = [[pow(a, j, p) for j in range(npoints)] for a in range(npoints)]
    inv = np.array(invert(PrimeField(p), rows), dtype=np.int64)
    inv.setflags(write=False)
    return inv


def _coefficient_tables(
    sets: Sequence[np.ndarray], gf: np.ndarray, gg: np.ndarray, mix: np.ndarray
) -> list[tuple[int, int, np.ndarray]]:
    """Lookup tables for the coefficients of (f + t·g)(x(t)) over candidates.

    A candidate picks w_j = sets[j][i_j] and has x(t) = sum_k a_k t^k with
    a = mix · w.  The t^s coefficient is then a sum over pairs j <= k of
    multiples of w_j^T F w_k and w_j^T G w_k.  One table per pair j < k
    holds these terms for all (i_j, i_k) at row i_j · len(sets[k]) + i_k,
    one column per s, not reduced mod q; the j = k terms are folded into a
    neighbouring pair's table, so the coefficients of a candidate are the sum
    of one row from each table.  With q <= 5, m <= 5 and degree <= 3 every
    entry is an integer below 10^6 and a row sum below 10^7, so the float
    products are exact and int32 holds the sums.
    """
    import numpy as np

    nsets, ncoef = len(sets), mix.shape[0]
    # conv[s, j, k]: the t^s coefficient of (basis poly j)·(basis poly k)
    degree = np.add.outer(np.arange(ncoef), np.arange(ncoef)).ravel()
    products = (mix[:, None, :, None] * mix[None, :, None, :]).reshape(ncoef * ncoef, -1)
    conv = ((np.arange(2 * ncoef)[:, None] == degree) @ products).reshape(2 * ncoef, nsets, nsets)
    # weights[j, k] takes (w_j^T F w_k, w_j^T G w_k) to the coefficients: t·g
    # raises the degree by one, and a pair j < k also stands for (k, j)
    weights = np.stack([conv, np.roll(conv, 1, axis=0)]).transpose(2, 3, 0, 1).astype(float)
    weights *= 2 - np.eye(nsets)[:, :, None, None]
    every = np.concatenate(sets)
    images = np.stack([every @ gf, every @ gg]).astype(float)
    starts = np.cumsum([0] + [len(vs) for vs in sets])
    images = [images[:, starts[j] : starts[j + 1]] for j in range(nsets)]
    tables = {}
    for j in range(nsets):
        for k in range(j + 1, nsets):
            tables[j, k] = (images[j] @ sets[k].T).transpose(1, 2, 0) @ weights[j, k]
    for j in range(nsets):
        diag = (images[j] * sets[j]).sum(axis=2).T @ weights[j, j]
        if j + 1 < nsets:
            tables[j, j + 1] += diag[:, None, :]
        else:
            tables[j - 1, j] += diag[None, :, :]
    return [(j, k, t.reshape(-1, 2 * ncoef).astype(np.int32)) for (j, k), t in tables.items()]


def amer_harness(f: SymMatrix, g: SymMatrix, degree_bound: int, field: PrimeField) -> AmerReport:
    """Exhaustively confront common zeros of (f, g) with polynomial solutions
    of (f + t·g)(x(t)) = 0 of degree <= degree_bound.

    Candidates x(t) are parametrized by their values at the field points
    (each value forced into the zero set of the corresponding specialization
    f + a·g) plus, when degree_bound >= q, a top correction c·(t^q - t) whose
    vector must kill the leading coefficient, i.e. g(c) = 0.  The
    coefficients of (f + t·g)(x(t)) for a candidate are the sum of one row
    from each lookup table of `_coefficient_tables`; a found solution is
    re-verified in exact arithmetic.  Both implications of the equivalence
    are asserted; a violation in either direction is an internal error.

    Candidates are visited in one fixed mixed-radix order and evaluated in
    consecutive chunks of 64, 128, 256, ... candidates, doubling up to
    ``_CHUNK``; the search stops at the first chunk holding a solution.  The
    reported solution is the first one in candidate order, so it does not
    depend on the chunk schedule, which only bounds the work spent past it.
    """
    import numpy as np

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
    npoints = min(degree_bound + 1, q)
    ncoef = degree_bound + 1
    sets = [_affine_zero_vectors((gf + a * gg) % q, q, m) for a in range(npoints)]

    # (a) projective common zeros: the zeros of f whose first nonzero
    # coordinate is 1 and that g kills, sorted stably by the index of that
    # coordinate into `projective_points` order
    f_zeros = sets[0]
    lead = (f_zeros != 0).argmax(axis=1)
    keep = f_zeros[np.arange(len(lead)), lead] == 1  # drops the zero vector too
    keep[keep] = _quadric_values(f_zeros[keep], gg, q) == 0
    zero_pts = f_zeros[keep][np.argsort(lead[keep], kind="stable")]
    common: tuple[int, ...] | None = None
    if len(zero_pts):
        common = tuple(int(c) for c in zero_pts[0])

    # (b) polynomial solutions by value parametrization: a candidate picks one
    # vector w_j from each set, and x(t) = sum_k a_k t^k with a = mix · w
    mix = np.zeros((ncoef, npoints + 1), dtype=np.int64)
    mix[:npoints, :npoints] = _vandermonde_inverse(npoints, q)
    if degree_bound >= q:  # x(t) += (t^q - t) * c with g(c) = 0
        sets.append(_affine_zero_vectors(gg, q, m))
        mix[q, npoints] += 1
        mix[1, npoints] -= 1
    if len(sets) == 1:  # a one-vector set {0}, so that the one set has a partner
        sets.append(np.zeros((1, m), dtype=np.int64))
    mix = mix[:, : len(sets)] % q
    sizes = [len(vs) for vs in sets]
    total = math.prod(sizes)
    within("candidates of the Amer search", total, AMER_SEARCH_LIMIT=AMER_SEARCH_LIMIT)

    terms = _coefficient_tables(sets, gf, gg, mix)
    solution: tuple[tuple[int, ...], ...] | None = None
    start, chunk = 0, _FIRST_CHUNK
    while start < total and solution is None:
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = []
        rest = idx
        for size in reversed(sizes):
            digits.append(rest % size)
            rest = rest // size
        digits.reverse()
        h = sum(np.take(table, digits[j] * sizes[k] + digits[k], axis=0) for j, k, table in terms) % q
        # index 0 picks the zero vector of every set, i.e. x(t) = 0
        hits = np.flatnonzero(~h.any(axis=1) & (idx != 0))
        if len(hits):
            w = np.array([vs[d[hits[0]]] for vs, d in zip(sets, digits)])
            solution = tuple(tuple(int(c) for c in row) for row in (mix @ w) % q)
        start, chunk = stop, min(2 * chunk, _CHUNK)

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
    # a common zero is itself a constant solution, and a solution gives a common zero
    check(
        "Amer's equivalence: a common zero iff a polynomial solution",
        common_zero=common is not None,
        polynomial_solution=solution is not None,
        where={"zero": common, "solution": solution},
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
        raise InternalCheckError("(f + t·g)(x(t)) = 0", residual=total, solution=coeffs)
