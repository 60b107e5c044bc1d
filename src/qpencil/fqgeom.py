"""Projective geometry of a pencil of quadrics over prime fields.

Point counts and singular points come from the q + 1 members a G0 + b G1 of
the pencil, [a:b] in P^1(F_q): a character sum over the members gives
#X(F_q), and the singular points lie in the kernels of the singular members,
so only the F_q-roots of the discriminant need linear algebra (and for the
count in an even number of variables only its multiple roots).  Both routes
take such a member as int rows mod p and reduce it with `linalg.rref` alone:
its pivot columns give its rank and, through `linalg.det`, the
principal minor that fixes its character sum, and `linalg.nullspace` gives
its kernel.  X meets a kernel of dimension at most 2 in the zeros of one
binary quadratic, solved without a scan.  Lines come from the common zeros
of the quadrics, found without a scan of P^n(F_q): a member of the pencil
without the w^2 term of the last coordinate w is linear in w, so over each
point y of P^(n-1)(F_q) it fixes w, or leaves every w when it vanishes on
the whole fiber.  Points are canonical representatives, scaled so that the
first nonzero coordinate is 1.  Lines are read off pairs of common zeros,
each as the reduced row echelon basis (u, v) of its span, a pair of int
tuples.  The scans are vectorized with numpy, imported on first use, and
results come out in a fixed order.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .curvecounts import _genus2_cover
from .errors import InternalCheckError, PrecondError, check, within
from .fields import legendre, sqrt_mod
from .linalg import dependent, det, nullspace, rref
from .matrices import SymMatrix
from .pencil import Pencil, _discriminant_or_none, _require_prime
from .records import record

if TYPE_CHECKING:
    import numpy as np

# the canonical y of P^(n-1)(F_q) plus q per flat fiber (see _common_zeros),
# at about 6e6 per second: a scan of P^2(F_31607) with every fiber flat
# (1.0e9 points) took 159 s, and one of P^2(F_10007) (1.0e8) 17 s
# (2-core Intel Xeon, CPython 3.11.7)
POINT_SCAN_LIMIT = 10**9
# pairs of common zeros the line finder tests: random pencils with n = 7
# over F_7 (4.8e7 pairs) and n = 8 over F_5 (6.4e7) took 1.6 s and 3.3 s,
# so about 5 s at the bound (2-core Intel Xeon, CPython 3.11.7)
PAIR_TEST_LIMIT = 10**8
# q + 1 members of the pencil, each one Horner evaluation of D and one
# Legendre symbol: count_points on a smooth n = 5 pencil over F_999983 took
# 2.1-2.3 s (2-core Intel Xeon, 8 GB, CPython 3.11.7)
MEMBER_LIMIT = 10**6
# (q + 1) m^3 for a pencil whose D vanishes identically, where each of the
# q + 1 members of size m is reduced: at the bound for m = 6 (p = 18503),
# count_points took 1.1-1.3 s and singular_points 0.9-1.0 s on rank-4
# members (2-core Intel Xeon, 8 GB, CPython 3.11.7)
ELIMINATION_LIMIT = 4 * 10**6
# the largest value nvars^2 (p - 1)^3 of a form in a scan, for which float64
# division by p is exact (`_divisible`); a bound of exactness, not of time
EXACT_FLOAT_LIMIT = 2**53 - 1
_CHUNK = 1 << 19


def projective_point_count(q: int, dim: int) -> int:
    return (q ** (dim + 1) - 1) // (q - 1)


def projective_points(p: int, nvars: int) -> np.ndarray:
    """All points of P^(nvars-1)(F_p), first nonzero coordinate 1, as an
    (N, nvars) int64 array: by the index of that coordinate, then
    lexicographically."""
    import numpy as np

    count = projective_point_count(p, nvars - 1)
    within(f"points of P^{nvars - 1}(F_{p})", count, POINT_SCAN_LIMIT=POINT_SCAN_LIMIT)
    return _points_at(p, nvars, np.arange(count, dtype=np.int64), nvars)


def _points_at(p: int, nvars: int, index: np.ndarray, width: int) -> np.ndarray:
    """The rows at the positions `index` of `projective_points(p, nvars)`,
    padded with zero columns to `width`.

    The block of lead l holds p^(nvars-1-l) points, and a point's offset in
    its block, written in base p, is its tail after the lead; the digits at
    and before the lead are zero because the offset is below p^(nvars-1-l).
    """
    import numpy as np

    starts = np.cumsum([0] + [p ** (nvars - 1 - lead) for lead in range(nvars - 1)], dtype=np.int64)
    lead = np.searchsorted(starts, index, side="right") - 1
    rest = index - starts[lead]
    pts = np.zeros((len(index), width), dtype=np.int64)
    for col in range(nvars - 1, 0, -1):
        rest, pts[:, col] = np.divmod(rest, p)
    pts[np.arange(len(index)), lead] = 1
    return pts


@functools.lru_cache(maxsize=4)
def _point_slice(p: int, nvars: int, start: int, stop: int, width: int) -> np.ndarray:
    """Rows start..stop-1 of `projective_points(p, nvars)` padded to `width`.
    Cached, because a census scans the same grid for pencil after pencil
    (a slice holds at most 8 _CHUNK bytes), and read-only, because every
    caller shares it."""
    import numpy as np

    ys = _points_at(p, nvars, np.arange(start, stop, dtype=np.int64), width)
    ys.setflags(write=False)
    return ys


def _gram_array(g: SymMatrix, p: int) -> np.ndarray:
    import numpy as np

    return np.array(g.entries, dtype=np.int64) % p


def _quadric_values(pts: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """x^T G x mod p for each row x of `pts`."""
    return ((pts @ g) * pts).sum(axis=1) % p


def _common_zeros(p: int, nvars: int, grams: Sequence[np.ndarray]) -> np.ndarray:
    """The points of `projective_points(p, nvars)` on which both quadrics
    with the Gram matrices `grams` = (G_0, G_1) vanish, in that order.

    With n = nvars - 1, every point but e_n = (0, ..., 0, 1) is x = (y, w)
    for a canonical y in P^(n-1)(F_p), and each form is
    Q_i(y, w) = alpha_i(y) + beta_i(y) w + gamma_i w^2, with
    gamma_i = G_i[n][n], beta_i = 2 sum_{j<n} G_i[j][n] y_j and
    alpha_i = y^T G_i[:n, :n] y.  The member M = gamma_1 Q_0 - gamma_0 Q_1
    has no w^2 term; when gamma_0 = gamma_1 = 0 it is Q_0, or Q_1 if only
    Q_1 has a w term.  Over y the only candidate is w = -alpha_M/beta_M when
    beta_M != 0, every w is one when beta_M = alpha_M = 0 (a flat fiber), and
    there is none otherwise.  Every candidate is tested on both forms, and
    e_n is a common zero exactly when gamma_0 = gamma_1 = 0.

    The y are generated in slices whose arrays hold at most `_CHUNK` entries,
    and only the zeros are kept.  POINT_SCAN_LIMIT bounds the points
    visited, |P^(n-1)| plus p per flat fiber: the y are counted before the
    scan, every fiber when M = 0 (all are flat), and otherwise the flat
    fibers of each slice before they are expanded.  Every value
    alpha + beta w + gamma w^2 is at most nvars^2 (p - 1)^3, which
    EXACT_FLOAT_LIMIT keeps below 2^53 for `_divisible`.
    """
    import numpy as np

    n = nvars - 1
    base = projective_point_count(p, n - 1)
    scan = f"points a scan of P^{n}(F_{p}) visits"
    within(f"{scan}, the canonical y of P^{n - 1}", base, POINT_SCAN_LIMIT=POINT_SCAN_LIMIT)
    within(
        f"the value bound nvars^2 (p - 1)^3 of a scan of P^{n}(F_{p})",
        nvars**2 * (p - 1) ** 3,
        EXACT_FLOAT_LIMIT=EXACT_FLOAT_LIMIT,
    )
    g0, g1 = grams
    if g0[n, n] or g1[n, n]:
        m = (int(g1[n, n]) * g0 - int(g0[n, n]) * g1) % p
    else:
        m = g1 if g1[:n, n].any() and not g0[:n, n].any() else g0
    visited, m_vanishes = base, not m.any()
    if m_vanishes:
        within(f"{scan}, every fiber flat since M = 0", base * (p + 1), POINT_SCAN_LIMIT=POINT_SCAN_LIMIT)
    forms = np.array([m, g0, g1])
    k, gammas = len(forms), forms[1:, n, n].copy()
    # y @ coeffs is y^T G_i for each form i with column n doubled: for y with
    # last coordinate 0, its product with y is alpha_i, and column n is beta_i
    forms[:, :n, n] *= 2
    coeffs = forms.transpose(1, 0, 2).reshape(nvars, k * nvars)

    found = [np.zeros((0, nvars), dtype=np.int64)]
    rows = max(1, _CHUNK // (k * nvars))
    for start in range(0, base, rows):
        ys = _point_slice(p, n, start, min(start + rows, base), nvars)
        r = (ys @ coeffs).reshape(len(ys), k, nvars)
        alpha, beta = np.einsum("ckj,cj->ck", r, ys), r[:, :, n]
        am, bm = alpha[:, 0] % p, beta[:, 0] % p
        flat = (bm == 0) & (am == 0)
        if not m_vanishes:
            visited += p * int(flat.sum())
            within(f"{scan} with the flat fibers", visited, POINT_SCAN_LIMIT=POINT_SCAN_LIMIT)
        # candidates: w = -alpha_M / beta_M over a solved y, every w over a
        # flat one, in y order and then by w
        w = -am * _inverses(bm, p) % p
        ends = np.cumsum(np.where(flat, p, bm != 0))
        total, step = int(ends[-1]), _CHUNK // k
        for c0 in range(0, total, step):
            cand = np.arange(c0, min(c0 + step, total), dtype=np.int64)
            row = np.searchsorted(ends, cand, side="right")
            wc = np.where(flat[row], cand - ends[row] + p, w[row])
            values = alpha[row, 1:] + (beta[row, 1:] + gammas * wc[:, None]) * wc[:, None]
            hit = _divisible(values, p).all(axis=1)
            zeros = ys[row[hit]]
            zeros[:, n] = wc[hit]
            found.append(zeros)
    if not gammas.any():
        found.append(np.eye(1, nvars, n, dtype=np.int64))
    return np.concatenate(found)


def _divisible(v: np.ndarray, p: int) -> np.ndarray:
    """p | v entrywise, for integers v below 2^53, exact in float64: when
    p | v, v (1/p) rounds to v/p, and no multiple of p equals v otherwise.
    Faster than v % p == 0, because integer division is slow."""
    import numpy as np

    return v == p * np.rint(v * (1 / p))


def _inverses(v: np.ndarray, p: int) -> np.ndarray:
    """v^(p-2) mod p entrywise, by repeated squaring: the inverse of a
    nonzero v, and 0 for v = 0."""
    out, e = v, p - 3
    while e > 0:
        if e & 1:
            out = out * v % p
        e >>= 1
        if e:
            v = v * v % p
    return out


def points_on_pencil(pencil: Pencil) -> np.ndarray:
    """Canonical representatives of the F_p points of the base locus."""
    p = _require_prime(pencil)
    return _common_zeros(p, pencil.n + 1, [_gram_array(g, p) for g in (pencil.g0, pencil.g1)])


# ----------------------------------------------------------------------
# points and singular points from the members of the pencil
# ----------------------------------------------------------------------


def count_points(pencil: Pencil) -> int:
    """#X(F_q) from the q + 1 members M = a G0 + b G1, [a:b] in P^1(F_q).

    With m = n + 1 variables and an additive character psi, summing
    psi(a Q0(x) + b Q1(x)) over x in F_q^m and (a, b) in F_q^2 gives
    q^2 N_aff = q^m + (q - 1) sum_M S(M), N_aff = #{x : Q0(x) = Q1(x) = 0}
    (Weil; Lidl-Niederreiter, *Finite Fields*, 6.2).  A member of rank r
    whose congruence diagonalization has nonzero pivots of product delta has
    S(M) = q^(m - r/2) chi((-1)^(r/2) delta) for even r (q^m for r = 0) and
    S(M) = 0 for odd r.  A member off the roots of D = det(s0 G0 + s1 G1)
    has r = m and delta = D(a, b).  Then #X = (N_aff - 1)/(q - 1).

    Only the members at roots of D can have another rank, and for even m
    only those at multiple roots are reduced.  If a G0 + b G1 has corank k,
    then in a basis whose first k vectors span its kernel the first k
    columns of s0 G0 + s1 G1 vanish at [a:b], so each is divisible by the
    linear form b s0 - a s1, and D by its k-th power.  So at a simple root
    (D'(1, t) != 0 at [1:t], c_(m-1) != 0 at [0:1]) the corank is 1 and
    r = m - 1, odd for even m, and S(M) = 0 with no reduction.  For odd m
    every root is reduced, and when D vanishes identically, every member is.

    A reduced member's r is the number of pivot columns P of its reduced
    row echelon form, and delta is the principal minor det M[P, P]
    (`linalg.det`, 1 for r = 0), up to a nonzero square.  The r columns P of
    the symmetric M are independent, so its rows P are too, and span its
    row space: M = C^T M[P, :] for some C, hence M[:, P] = C^T M[P, P], and
    M[P, P] has rank r.  So span(e_P) is a complement of ker M, M restricted
    to it is nondegenerate with Gram M[P, P], and diagonalizing M is
    diagonalizing M[P, P], whose pivots multiply to its determinant times a
    nonzero square.
    """
    p = _require_prime(pencil)
    field, m = pencil.field, pencil.n + 1
    sign = (-1) ** (m // 2)
    chi_sum = rank_deficient = 0
    for a, b, d, simple in _member_values(pencil):
        if d:
            if m % 2 == 0:
                chi_sum += legendre(sign * d, p)
            continue
        if simple and m % 2 == 0:
            continue
        rows = _member_rows(pencil, a, b)
        pivots = rref(field, rows)[1]
        r = len(pivots)
        if r % 2:
            continue
        minor = det(field, [[rows[i][j] for j in pivots] for i in pivots])
        check(
            "the member is nondegenerate on its pivot columns",
            nondegenerate=bool(minor), expected=True, where={"member": (a, b), "pivots": pivots},
        )
        rank_deficient += p ** (m - r // 2) * legendre((-1) ** (r // 2) * minor, p)
    total = p**m + (p - 1) * (p ** (m // 2) * chi_sum + rank_deficient)
    n_aff, rem = divmod(total, p * p)
    if rem:
        raise InternalCheckError("q^2 N_aff = q^m + (q - 1) sum S(M)", right_side=total, q_squared=p * p, remainder=rem)
    points, rem = divmod(n_aff - 1, p - 1)
    if rem:
        raise InternalCheckError("#X = (N_aff - 1)/(q - 1)", n_aff=n_aff, q=p, remainder=rem)
    return points


def singular_points(pencil: Pencil) -> list[tuple[int, ...]]:
    """Points of the base locus where the 2x(n+1) Jacobian drops rank.

    The Jacobian rows are 2 G0 x and 2 G1 x, dependent exactly when
    (a G0 + b G1) x = 0 for some [a:b], which is then a root of
    D = det(s0 G0 + s1 G1) (Reid, *The complete intersection of two or more
    quadrics*, ch. 2).  So Sing(X)(F_q) is the union, over the F_q-roots of
    D (every member when D vanishes identically), of P(ker M)(F_q) on X.

    One form decides each kernel: M = a G0 + b G1 vanishes on ker M, so
    a Q0 + b Q1 does too, and X meets P(ker M) in the zeros of R = Q0 when
    b != 0 and of R = Q1 when b = 0.  A kernel of dimension 1 is one point,
    tested on R; one of dimension 2 is a line, on which R is a binary
    quadratic solved in plain Python (`_line_zeros`); only a kernel of
    dimension 3 or more is scanned with numpy (`_kernel_zeros`).  X meets
    P(ker M) in the same points whichever member's form decides it, so a
    kernel shared by several members (every member when D vanishes
    identically) is decided once, keyed by its reduced row echelon basis.
    The points come out in `projective_points` order: by the index of the
    first nonzero coordinate, then by the point.
    """
    _require_prime(pencil)
    field = pencil.field
    found: set[tuple[int, ...]] = set()
    decided: set[tuple[tuple[int, ...], ...]] = set()
    for a, b, d, _ in _member_values(pencil):
        if d:
            continue
        basis = rref(field, nullspace(field, _member_rows(pencil, a, b)))[0]
        kernel = tuple(map(tuple, basis))
        if kernel in decided:
            continue
        decided.add(kernel)
        which = 0 if b else 1
        if len(basis) == 1:
            if not pencil.eval_form(which, basis[0]):
                found.add(tuple(basis[0]))
        elif len(basis) == 2:
            found.update(_line_zeros(pencil, which, *basis))
        else:
            found.update(_kernel_zeros(pencil, basis))
    return sorted(found, key=lambda x: (next(i for i, c in enumerate(x) if c), x))


def _member_values(pencil: Pencil) -> Iterator[tuple[int, int, int, bool]]:
    """(a, b, D(a, b) mod p, whether [a:b] is a simple root of D) for
    [a:b] = [1:0], ..., [1:p-1], then [0:1], with D = det(s0 G0 + s1 G1)
    taken once and evaluated by Horner.  A root [1:t] is simple when
    D'(1, t) != 0, evaluated at the roots only, and [0:1] when c_(m-1) != 0;
    no root of an identically zero D is simple.  The one place the member
    budget is enforced: the p + 1 members count against MEMBER_LIMIT before
    D is taken and, when D vanishes identically, so that every member is
    reduced, (p + 1) m^3 against ELIMINATION_LIMIT."""
    p, m = pencil.field.p, pencil.n + 1
    within(f"members of a pencil over F_{p}", p + 1, MEMBER_LIMIT=MEMBER_LIMIT)
    disc = _discriminant_or_none(pencil)
    if disc is None:
        within(
            f"(p + 1) m^3 to reduce every member in {m} variables over F_{p}, since D = 0",
            (p + 1) * m**3,
            ELIMINATION_LIMIT=ELIMINATION_LIMIT,
        )
    coeffs = (0,) if disc is None else disc.coeffs
    descending = coeffs[::-1]  # D(1, t) = sum_i c_i t^i
    slopes = [i * c for i, c in enumerate(coeffs)][:0:-1]  # D'(1, t), descending
    for t in range(p):
        v = 0
        for c in descending:
            v = (v * t + c) % p
        if v:
            yield 1, t, v, False
            continue
        dv = 0
        for c in slopes:
            dv = (dv * t + c) % p
        yield 1, t, 0, dv != 0
    yield 0, 1, coeffs[-1], not coeffs[-1] and len(coeffs) > 1 and coeffs[-2] != 0


def _member_rows(pencil: Pencil, a: int, b: int) -> list[list[int]]:
    """The Gram matrix of the member a G0 + b G1, as int rows mod p."""
    p = pencil.field.p
    return [[(a * x + b * y) % p for x, y in zip(r0, r1)] for r0, r1 in zip(pencil.g0.entries, pencil.g1.entries)]


def _line_zeros(pencil: Pencil, which: int, u: list[int], v: list[int]) -> list[tuple[int, ...]]:
    """The zeros of the form R = Q_which on the line with reduced row echelon
    rows u, v.  Its canonical points are u + t v, t in F_p, and v, and
    R(u + t v) = gamma t^2 + 2 beta t + alpha with alpha = R(u),
    beta = B_R(u, v) and gamma = R(v).  For gamma != 0 the roots are
    t = (-beta +- sqrt(beta^2 - alpha gamma)) / gamma; for gamma = 0, v is a
    zero and the equation is linear in t, or holds for every t when
    alpha = beta = 0.  The roots take O(log p) multiplications mod p."""
    p = pencil.field.p
    alpha, gamma = pencil.eval_form(which, u), pencil.eval_form(which, v)
    beta = pencil.eval_bilinear(which, u, v)
    ts: Iterable[int]
    if gamma:
        disc = (beta * beta - alpha * gamma) % p
        if legendre(disc, p) < 0:
            ts = ()
        else:
            s, inv = sqrt_mod(disc, p), pow(gamma, p - 2, p)
            ts = {(-beta + s) * inv % p, (-beta - s) * inv % p}
    elif beta:
        ts = (-alpha * pow(2 * beta, p - 2, p) % p,)
    else:
        ts = () if alpha else range(p)
    zeros = [tuple((x + t * y) % p for x, y in zip(u, v)) for t in ts]
    if not gamma:
        zeros.append(tuple(v))
    return zeros


def _kernel_zeros(pencil: Pencil, basis: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """The points of P(span basis)(F_p) on both quadrics: the common zeros c
    of the restricted forms B G B^T, mapped to c B.  `basis` is in reduced
    row echelon form, so c B is canonical when c is, and each kernel scan is
    bounded by POINT_SCAN_LIMIT."""
    import numpy as np

    p = pencil.field.p
    b = np.array(basis, dtype=np.int64)
    grams = [b @ _gram_array(g, p) % p @ b.T % p for g in (pencil.g0, pencil.g1)]
    return map(tuple, (_common_zeros(p, len(basis), grams) @ b % p).tolist())


# ----------------------------------------------------------------------
# lines
# ----------------------------------------------------------------------


def enumerate_lines(pencil: Pencil) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The F_p lines on the base locus of a pencil (a complete intersection),
    each as the reduced row echelon basis (u, v) of its span.

    Rejects pencils whose two forms do not cut out a codimension-2 scheme
    (one form a multiple of the other, or zero).  Since char != 2,
    Q(ax + by) = a^2 Q(x) + 2ab x^T G y + b^2 Q(y), so two distinct common
    zeros x, y span a line on the base locus exactly when x^T G0 y and
    x^T G1 y vanish.  Both rows of a line's RREF basis are canonical points,
    so each line is found once, as the pair (x, y) with lead(x) < lead(y)
    and x[lead(y)] = 0, where lead is the index of the first nonzero
    coordinate.  PAIR_TEST_LIMIT bounds the pairs tested, counted from the
    leads before the test.  Lines come out sorted by pivot columns, then by
    rows.
    """
    import numpy as np

    p = _require_prime(pencil)
    if dependent(pencil.field, sum(pencil.g0.entries, ()), sum(pencil.g1.entries, ())):
        raise PrecondError("not a complete intersection: the two forms are proportional")
    gram_arrays = [_gram_array(g, p) for g in (pencil.g0, pencil.g1)]
    pts = _common_zeros(p, pencil.n + 1, gram_arrays)
    lead = (pts != 0).argmax(axis=1)
    per_lead = np.bincount(lead, minlength=pencil.n + 1)
    pairs = int((per_lead * (len(pts) - np.cumsum(per_lead))).sum())  # |lead l| * |lead > l|
    within(f"candidate pairs of {len(pts)} common zeros", pairs, PAIR_TEST_LIMIT=PAIR_TEST_LIMIT)
    # x^T G y is below nvars (p - 1)^2, which _common_zeros keeps under 2^53;
    # the first form is tested on blocks of pairs, never one N x N array, and
    # the second on the pairs that pass it
    image0, image1 = (pts @ g % p for g in gram_arrays)
    step = max(1, _CHUNK // max(len(pts), 1))
    firsts, seconds = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for start in range(0, len(pts), step):
        stop = min(start + step, len(pts))
        later = np.searchsorted(lead, lead[start], side="right")  # pts are sorted by lead
        mask = (lead[None, later:] > lead[start:stop, None]) & (pts[start:stop][:, lead[later:]] == 0)
        mask &= _divisible(image0[start:stop] @ pts[later:].T, p)
        a, b = np.nonzero(mask)
        a, b = a + start, b + later
        keep = _divisible(np.einsum("ij,ij->i", image1[a], pts[b]), p)
        firsts.append(a[keep])
        seconds.append(b[keep])
    a, b = np.concatenate(firsts), np.concatenate(seconds)
    # pts are in projective_points order, so indices order the rows within a lead
    order = np.lexsort((b, a, lead[b], lead[a]))
    return list(zip(map(tuple, pts[a[order]].tolist()), map(tuple, pts[b[order]].tolist())))


@record
class TorsorReport:
    """Two independent computations of one cardinality: lines on the base
    locus by exhaustive enumeration, and the order of the Jacobian of the
    genus-2 cover y² = signed discriminant sextic from point counts."""

    q: int
    line_count: int
    jacobian_order: int
    curve_counts: tuple[int, int]
    lpoly: tuple[int, int, int, int, int]

    @property
    def consistent(self) -> bool:
        return self.line_count == self.jacobian_order


def torsor_check(pencil: Pencil) -> TorsorReport:
    """Assert #lines(X)(F_q) == |Jac(C)(F_q)| and report both sides.

    The surface of lines on a smooth threefold base locus X is a torsor
    under the Jacobian of the hyperelliptic curve C: y² = signed
    discriminant, and torsors over finite fields are trivial, so the two
    cardinalities must agree.  Lines are enumerated one by one; the Jacobian
    order comes from the zeta function of C, so the routes are independent.
    """
    data = _genus2_cover(pencil, "the torsor comparison")
    lines = enumerate_lines(pencil)
    check("line count = |Jac C(F_q)|", line_count=len(lines), jacobian_order=data.jacobian_order)
    return TorsorReport(
        q=data.q,
        line_count=len(lines),
        jacobian_order=data.jacobian_order,
        curve_counts=(data.n1, data.n2),
        lpoly=data.lpoly,
    )
