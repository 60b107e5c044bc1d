"""The t-line audit of Amer's equivalence over small prime fields."""

import random
import tracemalloc
from itertools import product

import pytest

from qpencil import isotropy
from qpencil.errors import InternalCheckError, PrecondError
from qpencil.fields import PrimeField
from qpencil.fqgeom import _gram_array, _quadric_values, projective_points
from qpencil.linalg import invert
from qpencil.isotropy import amer_harness
from qpencil.matrices import SymMatrix
from qpencil.samples import random_symmetric

F3 = PrimeField(3)


# -- the polynomial-line audit ----------------------------------------------


def test_amer_harness_on_seeded_pairs():
    rng = random.Random(20240917)
    for _ in range(30):
        q = rng.choice([3, 5])
        field = PrimeField(q)
        m = rng.choice([2, 3, 4])
        d = rng.randrange(4)
        f = random_symmetric(field, m, rng)
        g = random_symmetric(field, m, rng)
        try:
            rep = amer_harness(f, g, d, field)
        except PrecondError:
            continue  # candidate budget exceeded; the guard is doing its job
        assert rep.consistent
        assert rep.q == q and rep.nvars == m and rep.degree_bound == d
        if rep.solution is not None:
            assert len(rep.solution) == d + 1


def _first_polynomial_solution(f, g, d, q):
    """Plain-Python reference for the harness's search.

    Candidates are the tuples (x(0), ..., x(n-1), c) with n = min(d + 1, q),
    each x(a) an affine zero of f + a·g, and c an affine zero of g when
    d >= q (else c = 0), in lexicographic order with x(0) the most
    significant digit.  The candidate's x(t) interpolates the values on the
    nodes 0..n-1 and adds c·(t^q - t).  The first one whose x(t) is nonzero
    and satisfies (f + t·g)(x(t)) = 0 is returned as coefficient rows
    a_0..a_d."""
    m = f.size
    n = min(d + 1, q)
    fr = [[int(c) for c in row] for row in f.to_lists()]
    gr = [[int(c) for c in row] for row in g.to_lists()]

    def value(rows, x):
        return sum(x[i] * rows[i][j] * x[j] for i in range(m) for j in range(m))

    def polymul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] = (out[i + j] + u * v) % q
        return out

    # Lagrange basis on the nodes 0..n-1
    basis = []
    for a in range(n):
        poly, denom = [1], 1
        for b in range(n):
            if b != a:
                poly = polymul(poly, [-b % q, 1])
                denom = denom * (a - b) % q
        inv = pow(denom, q - 2, q)
        basis.append([c * inv % q for c in poly])

    zero_sets = [
        [x for x in product(range(q), repeat=m) if (value(fr, x) + a * value(gr, x)) % q == 0]
        for a in range(n)
    ]
    corrections = [x for x in product(range(q), repeat=m) if value(gr, x) % q == 0] if d >= q else [(0,) * m]
    for *values, corr in product(*zero_sets, corrections):
        coeffs = [
            [sum(values[a][i] * basis[a][k] for a in range(n)) % q if k < n else 0 for i in range(m)]
            for k in range(d + 1)
        ]
        if d >= q:
            coeffs[q] = [(u + v) % q for u, v in zip(coeffs[q], corr)]
            coeffs[1] = [(u - v) % q for u, v in zip(coeffs[1], corr)]
        if not any(any(row) for row in coeffs):
            continue
        total = [0] * (2 * d + 2)
        for i in range(m):
            for j in range(m):
                xij = polymul([coeffs[k][i] for k in range(d + 1)], [coeffs[k][j] for k in range(d + 1)])
                for e, c in enumerate(xij):
                    total[e] += c * fr[i][j]
                    total[e + 1] += c * gr[i][j]
        if all(c % q == 0 for c in total):
            return tuple(tuple(row) for row in coeffs)
    return None


def test_amer_harness_returns_the_first_solution_in_candidate_order():
    rng = random.Random(4)
    outcomes = set()
    for q, ms, ds in ((3, (1, 2, 3), (0, 1, 2, 3)), (5, (1, 2), (0, 1, 2, 3))):
        field = PrimeField(q)
        for m, d in product(ms, ds):
            for _ in range(4):
                f = random_symmetric(field, m, rng)
                g = random_symmetric(field, m, rng)
                expected = _first_polynomial_solution(f, g, d, q)
                assert amer_harness(f, g, d, field).solution == expected
                outcomes.add(expected is None)
    assert outcomes == {True, False}


def _criterion_11_pairs():
    rng = random.Random(20240917)
    pairs = []
    for _ in range(200):
        m = rng.choice([2, 3, 4])
        d = rng.randrange(4)
        pairs.append((random_symmetric(F3, m, rng), random_symmetric(F3, m, rng), d))
    return pairs


def test_chunk_schedule_does_not_change_the_report(monkeypatch):
    # criterion 11's pairs; they include m=4, d=3 pairs with no common zero,
    # which run the search to the end through many chunks
    pairs = _criterion_11_pairs()
    default = [amer_harness(f, g, d, F3) for f, g, d in pairs]
    assert any(r.nvars == 4 and r.degree_bound == 3 and r.common_zero is None for r in default)
    monkeypatch.setattr(isotropy, "_FIRST_CHUNK", 1)
    monkeypatch.setattr(isotropy, "_CHUNK", 8)
    assert [amer_harness(f, g, d, F3) for f, g, d in pairs] == default


def test_full_search_memory_is_bounded_by_the_chunk_cap():
    # a pair with no common zero runs all of its candidates; the chunk cap
    # keeps its numpy arrays under 2 MiB however many candidates there are
    f, g = next(
        (f, g)
        for f, g, d in _criterion_11_pairs()
        if f.size == 4 and d == 3 and amer_harness(f, g, d, F3).common_zero is None
    )
    tracemalloc.start()
    try:
        rep = amer_harness(f, g, 3, F3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.solution is None and rep.candidates > 10 * isotropy._CHUNK
    assert peak < 2 * 2**20


def test_amer_common_zeros_are_the_projective_scan_in_its_order():
    """The harness reads the projective common zeros off the affine zeros of
    f; the count and the first zero must be those of a scan of
    P^(m-1)(F_q), whose order puts the smallest lead first."""
    rng = random.Random(11)
    cases = [(f, g, d, F3) for f, g, d in _criterion_11_pairs()]
    for m in (2, 3, 4, 5):
        for q in (3, 5):
            field = PrimeField(q)
            cases += [(random_symmetric(field, m, rng), random_symmetric(field, m, rng), 0, field) for _ in range(5)]
    leads = 0
    for f, g, d, field in cases:
        q = field.p
        pts = projective_points(q, f.size)
        on_both = (_quadric_values(pts, _gram_array(f, q), q) == 0) & (_quadric_values(pts, _gram_array(g, q), q) == 0)
        zeros = [tuple(int(c) for c in x) for x in pts[on_both]]
        rep = amer_harness(f, g, d, field)
        assert rep.common_zero_count == len(zeros)
        assert rep.common_zero == (zeros[0] if zeros else None)
        leads += len({x.index(1) for x in zeros}) > 1
    assert leads >= 20


def test_amer_harness_finds_the_planted_zero():
    # f = x0 x1, g = x0 x2 share the zero (0, 1, 1) -> expect a polynomial
    # solution on the line too
    half = F3.inv(F3.from_int(2))
    f = SymMatrix.from_rows([[0, half, 0], [half, 0, 0], [0, 0, 0]])
    g = SymMatrix.from_rows([[0, 0, half], [0, 0, 0], [half, 0, 0]])
    rep = amer_harness(f, g, 1, F3)
    assert rep.common_zero is not None
    assert rep.solution is not None
    assert rep.consistent


def test_a_tampered_solution_fails_the_exact_replay(monkeypatch):
    """The replay of (f + t·g)(x(t)) = 0 catches a solution with one
    coefficient changed, naming the nonzero residual and the solution."""
    half = F3.inv(F3.from_int(2))
    f = SymMatrix.from_rows([[0, half, 0], [half, 0, 0], [0, 0, 0]])  # x0 x1
    g = SymMatrix.from_rows([[0, 0, half], [0, 0, 0], [half, 0, 0]])  # x0 x2
    assert amer_harness(f, g, 1, F3).solution == ((0, 0, 0), (0, 0, 1))  # x(t) = (0, 0, t)
    replay = isotropy._verify_polynomial_solution

    def tamper(f, g, coeffs, field):  # x(t) = (1, 0, t), so (f + t·g)(x(t)) = t^2
        replay(f, g, ((1, 0, 0),) + coeffs[1:], field)

    monkeypatch.setattr(isotropy, "_verify_polynomial_solution", tamper)
    with pytest.raises(InternalCheckError) as err:
        amer_harness(f, g, 1, F3)
    assert err.value.identity == "(f + t·g)(x(t)) = 0"
    assert str(err.value) == "(f + t·g)(x(t)) = 0: residual = [0, 0, 1], solution = ((1, 0, 0), (0, 0, 1))"


def test_amer_harness_guards():
    f = SymMatrix.diagonal(F3, [1, 1])
    with pytest.raises(PrecondError, match="q <= 5"):
        amer_harness(
            SymMatrix.diagonal(PrimeField(7), [1, 1]),
            SymMatrix.diagonal(PrimeField(7), [1, 2]),
            1,
            PrimeField(7),
        )
    with pytest.raises(PrecondError, match="variables"):
        amer_harness(
            SymMatrix.diagonal(F3, [1] * 6), SymMatrix.diagonal(F3, [1] * 6), 1, F3
        )
    with pytest.raises(PrecondError, match="degree bound"):
        amer_harness(f, SymMatrix.diagonal(F3, [1, 2]), 4, F3)
    with pytest.raises(PrecondError, match="degree bound"):
        amer_harness(f, SymMatrix.diagonal(F3, [1, 2]), -1, F3)
    with pytest.raises(PrecondError, match="same number"):
        amer_harness(f, SymMatrix.diagonal(F3, [1, 1, 1]), 1, F3)


@pytest.mark.parametrize("q", [3, 5])
def test_cached_vandermonde_inverse_is_exact_and_read_only(q):
    field = PrimeField(q)
    for k in range(1, q + 1):
        cached = isotropy._vandermonde_inverse(k, q)
        fresh = invert(field, [[pow(a, j, q) for j in range(k)] for a in range(k)])
        assert cached.tolist() == fresh
        assert isotropy._vandermonde_inverse(k, q) is cached
        with pytest.raises(ValueError):
            cached[0, 0] = 1
