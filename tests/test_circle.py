"""Index circles, odd decompositions, and real rationality verdicts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qpencil import circle as circle_mod, io, univariate as uv
from qpencil.circle import IndexCircle, decomposition, index_circle, pencil_decomposition
from qpencil.classes import (
    OddDecomposition,
    canonical_parts,
    enumerate_classes,
    real_line_exists,
    real_verdict,
    signature_walk,
)
from qpencil.errors import InternalCheckError, PrecondError
from qpencil.fields import QQ
from qpencil.matrices import SymMatrix, _scaled_to_integers, signature_pair
from qpencil.pencil import (
    Pencil,
    SmoothnessReport,
    diagonal_pencil,
    pencil_congruent,
    pencil_recombined,
    smoothness,
)
from qpencil.samples import random_pencil

from conftest import INPUTS
from sturm_oracle import cauchy_isolation, share_a_root, sturm_chain, sturm_isolation


def _block_pencil():
    """A threefold pencil of class (2): two rotation blocks keep four of the
    discriminant roots off the real circle."""
    g0 = [
        [1, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ]
    g1 = [
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 2, 0, 0],
        [0, 0, 2, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 2],
    ]
    q = lambda rows: [[Fraction(e) for e in row] for row in rows]
    return Pencil.from_gram(QQ, q(g0), q(g1))


# -- canonical forms ----------------------------------------------------


@given(st.lists(st.integers(1, 4), min_size=1, max_size=7).filter(lambda xs: len(xs) % 2))
def test_canonical_parts_is_a_cyclic_dihedral_invariant(xs):
    parts = tuple(xs)
    canon = canonical_parts(parts)
    assert canonical_parts(canon) == canon  # idempotent
    assert canonical_parts(tuple(reversed(parts))) == canon
    for r in range(len(parts)):
        assert canonical_parts(parts[r:] + parts[:r]) == canon
    # the canonical word is itself one of the rotations
    rotations = {parts[r:] + parts[:r] for r in range(len(parts))}
    rotations |= {tuple(reversed(w)) for w in rotations}
    assert canon in rotations
    assert all(canon >= w for w in rotations)


def test_decomposition_guards():
    with pytest.raises(PrecondError, match="odd"):
        OddDecomposition((1, 1))
    with pytest.raises(PrecondError, match="positive"):
        OddDecomposition((2, 0, 1))
    with pytest.raises(PrecondError, match="canonical"):
        OddDecomposition((1, 1, 2))
    assert OddDecomposition((0,)).k == 0
    assert OddDecomposition((2, 1, 1)).label() == "(2,1,1)"


# -- class enumeration ---------------------------------------------------


@pytest.mark.parametrize("n, count", [(2, 3), (3, 4), (4, 7), (5, 9)])
def test_class_counts(n, count):
    assert len(enumerate_classes(n)) == count


def test_threefold_classes():
    got = {dec.parts for dec in enumerate_classes(5)}
    assert got == {
        (0,),
        (2,),
        (2, 1, 1),
        (4,),
        (2, 2, 2),
        (4, 1, 1),
        (2, 1, 1, 1, 1),
        (3, 2, 1),
        (6,),
    }


def test_enumerate_classes_rejects_points_and_less():
    with pytest.raises(PrecondError):
        enumerate_classes(1)


# -- walks ---------------------------------------------------------------


def test_signature_walk_of_the_generic_small_class():
    assert signature_walk(OddDecomposition((2,)), 5) == [2, 3, 4, 3]


def test_signature_walk_of_the_jump_free_class():
    assert signature_walk(OddDecomposition((0,)), 5) == [3]
    with pytest.raises(PrecondError, match="does not occur"):
        signature_walk(OddDecomposition((0,)), 4)


def test_signature_walk_parity_guard():
    with pytest.raises(PrecondError, match="does not occur"):
        signature_walk(OddDecomposition((2,)), 4)
    with pytest.raises(PrecondError, match="does not occur"):
        signature_walk(OddDecomposition((4, 1, 1)), 3)


def test_walks_are_closed_and_antipodal():
    for n in (2, 3, 4, 5):
        for dec in enumerate_classes(n):
            walk = signature_walk(dec, n)
            if dec.parts == (0,):
                assert walk == [(n + 1) // 2]
                continue
            assert len(walk) == 2 * dec.k
            k = dec.k
            for i, x in enumerate(walk):
                assert walk[(i + k) % (2 * k)] == n + 1 - x


# -- the index circle of concrete pencils ---------------------------------


def test_index_circle_of_a_definite_pencil():
    p = diagonal_pencil(QQ, 5)
    circle = index_circle(p)
    assert circle.n == 5
    assert circle.root_count == 6
    assert decomposition(circle).parts == (6,)
    # walking past all six roots sweeps every index exactly as the label says
    assert sorted(sig[0] for sig in circle.arc_signatures) == sorted([0, 1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1])


def test_index_circle_of_the_block_pencil():
    p = _block_pencil()
    circle = index_circle(p)
    assert circle.root_count == 2
    assert pencil_decomposition(p).parts == (2,)


def test_antipodal_identities_hold_externally():
    for p in (diagonal_pencil(QQ, 5), diagonal_pencil(QQ, 4), _block_pencil()):
        circle = index_circle(p)
        arcs = circle.arc_signatures
        signs = circle.jump_signs
        k = circle.root_count
        for i in range(len(arcs)):
            assert arcs[(i + k) % (2 * k)] == (arcs[i][1], arcs[i][0])
            assert signs[(i + k) % (2 * k)] == -signs[i]
            assert arcs[i][0] + arcs[i][1] == circle.n + 1


def test_index_circle_guards():
    from qpencil.fields import PrimeField
    from qpencil.pencil import toric_pencil

    with pytest.raises(PrecondError, match="rational"):
        index_circle(diagonal_pencil(PrimeField(5), 3))
    with pytest.raises(PrecondError, match="singular"):
        index_circle(toric_pencil(QQ))


def _faulty_signatures(monkeypatch, wrong):
    """Make circle.signature_pair return wrong(g, call number, true value);
    the true values are recorded in the returned list."""
    real, truth = circle_mod.signature_pair, []

    def fake(g):
        truth.append(real(g))
        return wrong(g, len(truth) - 1, truth[-1])

    monkeypatch.setattr(circle_mod, "signature_pair", fake)
    return truth


def test_antipodal_sample_check_names_the_sample_and_both_signatures(monkeypatch):
    p = _block_pencil()
    t0 = uv.sample_points_between(uv.isolate_real_roots(p.discriminant_form().chart_main()))[0]
    # the (1, t) samples take Jacobi's rule, so the first elimination is the
    # member (-1, -t0)
    truth = _faulty_signatures(monkeypatch, lambda g, call, sig: (sig[0] + 1, sig[1] - 1) if call == 0 else sig)
    with pytest.raises(InternalCheckError, match="antipodal signatures at a sample") as err:
        index_circle(p)
    pos, neg = truth[0]
    msg = str(err.value)
    assert f"t = {t0}, plus = {(neg, pos)}, minus = {(pos + 1, neg - 1)}, expected = {(pos, neg)}" in msg


def test_arc_check_through_the_pole_names_all_three_signatures(monkeypatch):
    p = _block_pencil()  # det(G1) != 0, so the arc through (0, 1) is checked
    z1 = _scaled_to_integers([p.g0.entries, p.g1.entries])[0][1]  # the member (0, 1)
    truth = _faulty_signatures(monkeypatch, lambda g, call, sig: (sig[1], sig[0]) if g == z1 else sig)
    with pytest.raises(InternalCheckError, match=r"arc through \(0, 1\)") as err:
        index_circle(p)
    north, msg = truth[-1], str(err.value)
    assert north[0] != north[1] and f"north = {(north[1], north[0])}" in msg and f"plus = {north}" in msg


def test_antipodal_arc_check_names_the_arc_and_both_signatures(monkeypatch):
    p = diagonal_pencil(QQ, 5)
    circle = index_circle(p)
    (a, b), k = circle.arc_signatures[0], circle.root_count
    # every signature off by (+1, +1), on both routes (Jacobi's rule at the
    # (1, t) samples, elimination elsewhere): each antipodal pair still
    # swaps, but no pair sums to n + 1 = 6
    off = lambda sig: (sig[0] + 1, sig[1] + 1)
    jacobi = circle_mod._jacobi_signature
    monkeypatch.setattr(circle_mod, "_jacobi_signature", lambda minors, t: off(jacobi(minors, t)))
    _faulty_signatures(monkeypatch, lambda g, call, sig: off(sig))
    with pytest.raises(InternalCheckError, match=r"antipodal positive indices sum to n \+ 1: n = 5, arc = 0,") as err:
        index_circle(p)
    msg = str(err.value)
    assert f"signature = {(a + 1, b + 1)}" in msg and f"antipode_signature = {(b + 1, a + 1)}" in msg
    assert f"antipode = {k}," in msg


def test_jump_free_circle_checks_name_both_routes(monkeypatch):
    """Two rotation blocks give D = (t^2 + 1)(t^2 + 4), with no real root and
    det G1 != 0: a jump-free circle in P^3 with the one sample t = 0, where
    Δ_1 = t vanishes, so (1, 0), (-1, 0) and (0, 1) are all eliminated, in
    that order."""
    g0 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
    g1 = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    p = Pencil.from_gram(QQ, *[[[Fraction(e) for e in row] for row in g] for g in (g0, g1)])
    circle = index_circle(p)
    assert circle.jump_points == () and circle.arc_signatures == ((2, 2),)
    assert circle_mod._jacobi_signature(smoothness(p).minors, Fraction(0)) is None
    _faulty_signatures(monkeypatch, lambda g, call, sig: (3, 1) if call == 2 else sig)
    with pytest.raises(InternalCheckError, match=r"constant circle: sig\(1, 0\) = sig\(0, 1\): plus = \(2, 2\), north = \(3, 1\)"):
        index_circle(p)
    monkeypatch.undo()
    # antipodal pairs that agree with the pole, yet are not balanced
    _faulty_signatures(monkeypatch, lambda g, call, sig: (1, 3) if call == 1 else (3, 1))
    with pytest.raises(InternalCheckError, match="jump-free circle is antipodally balanced: positive = 3, negative = 1"):
        index_circle(p)


def _samples(rep):
    return uv.sample_points_between(uv.isolate_real_roots(rep.discriminant.chart_main()))


def _plus_elimination(p, t):
    """Signature of the member (1, t) by symmetric elimination."""
    z0, z1 = _scaled_to_integers([p.g0.entries, p.g1.entries])[0]
    return signature_pair([[t.denominator * a + t.numerator * b for a, b in zip(r0, r1)] for r0, r1 in zip(z0, z1)])


def _battery_pencil(rng, n, kind):
    """A random pencil over Q with entries in [-9, 9]: dense, diagonal,
    dense with a zero (0, 0) entry in Q0 and, half the time, in Q1 too
    ("corner"), or dense with a zero last row and column in Q0
    ("singular")."""
    grams = []
    for _ in range(2):
        g = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
        for i in range(n + 1):
            for j in range(i, n + 1):
                if kind != "diagonal" or i == j:
                    g[i][j] = g[j][i] = Fraction(rng.randint(-9, 9))
        grams.append(g)
    if kind == "corner":
        grams[0][0][0] = Fraction(0)
        if rng.random() < 0.5:
            grams[1][0][0] = Fraction(0)  # Δ_1 ≡ 0: the elimination swaps rows
    if kind == "singular":
        for i in range(n + 1):
            grams[0][i][n] = grams[0][n][i] = Fraction(0)  # det G0 = 0: D(1, t) has the root t = 0
    return Pencil.from_gram(QQ, *grams)


def test_jacobi_signatures_equal_elimination_on_a_seeded_battery():
    """At every (1, t) sample of smooth random pencils with n <= 24, Jacobi's
    rule on the smoothness report's minors gives the elimination's
    signature.  The battery reaches both fallbacks: a minor vanishing at a
    sample (Δ_1 = c·t at the sample 0, among others), and a row swap, which
    leaves the report without minors."""
    rng = random.Random(2024)
    agree = vanish = swapped = 0
    for n in list(range(2, 13)) + [16, 20, 24]:
        for kind in ("dense", "diagonal", "corner"):
            for _ in range(3 if n <= 12 else 1):
                p = _battery_pencil(rng, n, kind)
                rep = smoothness(p)
                if not rep.smooth:
                    continue
                for t in _samples(rep):
                    if rep.minors is None:
                        swapped += 1
                        continue
                    assert len(rep.minors) == n + 1
                    jacobi = circle_mod._jacobi_signature(rep.minors, t)
                    if jacobi is None:
                        vanish += 1
                        continue
                    assert jacobi == _plus_elimination(p, t), (n, kind, t)
                    agree += 1
    assert agree > 300 and vanish > 0 and swapped > 0, (agree, vanish, swapped)


def _bits(samples):
    return max(max(abs(t.numerator).bit_length(), t.denominator.bit_length()) for t in samples)


def test_dyadic_isolation_gives_the_class_of_the_cauchy_route(monkeypatch):
    """On smooth random pencils with n <= 12, dense, diagonal, with a zero
    (0, 0) entry that forces a row swap, and with det G0 = 0, the class
    equals the one read at the samples of the Cauchy-bound oracle: both
    routes isolate the same roots, in the same order.  Every sample of the
    power-of-two route is dyadic, a/2^j; the oracle's are not, and take
    more bits."""
    rng = random.Random(26)
    cases = []
    for n in range(2, 13):
        for kind in ("dense", "diagonal", "corner", "singular"):
            for _ in range(3):
                p = _battery_pencil(rng, n, kind)
                rep = smoothness(p)
                if rep.smooth:
                    cases.append((p, rep, kind))
    got = [pencil_decomposition(p, rep) for p, rep, _ in cases]
    dyadic, oracle = [], []
    for p, rep, _ in cases:
        f = rep.discriminant.chart_main()
        new, old = uv.isolate_real_roots(f), cauchy_isolation(f)
        assert len(new) == len(old) and all(max(a, c) <= min(b, d) for (a, b), (c, d) in zip(new, old)), (new, old)
        dyadic += uv.sample_points_between(new)
        oracle += uv.sample_points_between(old)
    monkeypatch.setattr(uv, "isolate_real_roots", cauchy_isolation)
    assert [pencil_decomposition(p, rep) for p, rep, _ in cases] == got
    kinds = {kind for _, _, kind in cases}
    assert len(cases) > 80 and kinds == {"dense", "diagonal", "corner", "singular"}, (len(cases), kinds)
    assert any(rep.minors is None for _, rep, _ in cases)
    assert all(t.denominator & (t.denominator - 1) == 0 for t in dyadic)
    assert not all(t.denominator & (t.denominator - 1) == 0 for t in oracle)
    assert _bits(dyadic) < _bits(oracle), (_bits(dyadic), _bits(oracle))


def _planted_pencil(rng, n, kind):
    """A diagonal pencil a_i x_i^2, b_i x_i^2 with D(1, t) = prod (a_i + b_i t),
    under m random elementary changes of coordinates x_i <- x_i + c x_j
    (which keep D): roots -a_i/b_i on a coarse dyadic grid, which bisection
    meets at midpoints ("dyadic"), or with one root planted twice
    ("double")."""
    m = n + 1
    b = [2 ** rng.randint(0, 2) for _ in range(m)]
    a = [rng.randint(-8, 8) for _ in range(m)]
    if kind == "double":
        a[1], b[1] = 3 * a[0], 3 * b[0]
    grams = [[[x[i] if i == j else 0 for j in range(m)] for i in range(m)] for x in (a, b)]
    for _ in range(m):
        i, j = rng.sample(range(m), 2)
        c = rng.choice([-1, 1])
        for g in grams:
            for row in g:
                row[i] += c * row[j]
            g[i] = [x + c * y for x, y in zip(g[i], g[j])]
    return Pencil.from_gram(QQ, *[[[Fraction(x) for x in row] for row in g] for g in grams])


def _oracle_gcd_degree(c):
    """deg gcd(c, c') from the last member of the oracle's Sturm chain."""
    return len(sturm_chain(c)[-1]) - 1 if len(c) > 1 else 0


def test_descartes_isolation_agrees_with_the_sturm_oracle_on_a_seeded_battery(monkeypatch):
    """On 510 seeded pencils over Q with n = 3..24 (dense, diagonal, with a
    zero (0, 0) entry, with det G0 = 0 so that t = 0 is a root, with dyadic
    roots met at midpoints, and with a root planted twice), the smoothness
    verdict and certificate equal those read off the Sturm oracle's chains;
    on the smooth ones Descartes isolation finds as many roots as Sturm
    isolation from the same power-of-two bound, each of its intervals
    meeting the oracle's interval of the same rank in exactly one root, and
    the class is the one read at the oracle's samples."""
    rng = random.Random(33)
    kinds = ("dense", "diagonal", "corner", "singular", "dyadic", "double")
    cases = []
    for n in range(3, 25):
        for trial in range(40 if n <= 8 else 30 if n <= 14 else 9):
            kind = kinds[trial % len(kinds)]
            cases.append(_planted_pencil(rng, n, kind) if kind in ("dyadic", "double") else _battery_pencil(rng, n, kind))
    seen = {"smooth": 0, "singular": 0, "at_zero": 0, "midpoint": 0, "roots": 0}
    smooth, oracle = [], {}
    for p in cases:
        rep = smoothness(p)
        disc = rep.discriminant
        if disc is None:  # a zero diagonal entry in both Grams
            assert not rep.smooth and rep.certificate["degenerate"]
            continue
        a, b = disc.chart_main(), disc.chart_other()
        chain = sturm_chain(a)
        main = len(chain[-1]) - 1
        other = 0 if main == 0 and len(a) >= disc.degree else _oracle_gcd_degree(b)
        assert rep.certificate == {
            "degree": p.n + 1, "degenerate": False, "gcd_deg_chart_main": main, "gcd_deg_chart_other": other,
        }
        assert rep.smooth == (main == other == 0)
        if not rep.smooth:
            seen["singular"] += 1
            continue
        new = uv.isolate_real_roots(a)
        old = oracle[tuple(a)] = sturm_isolation(chain, uv.root_bound(chain[0]))
        assert len(new) == len(old) and all(share_a_root(chain, x, y) for x, y in zip(new, old)), (new, old)
        seen["smooth"] += 1
        seen["roots"] += len(new)
        seen["at_zero"] += (Fraction(0), Fraction(0)) in new
        seen["midpoint"] += sum(lo == hi != 0 for lo, hi in new)
        smooth.append((p, rep))
    got = [pencil_decomposition(p, rep) for p, rep in smooth]
    monkeypatch.setattr(uv, "isolate_real_roots", lambda f: oracle[tuple(f)])
    assert [pencil_decomposition(p, rep) for p, rep in smooth] == got
    assert len(cases) >= 500 and all(count >= 90 for count in seen.values()), (len(cases), seen)


def test_index_circle_samples_are_small_at_n_24(monkeypatch):
    """Every sample the index circle of random_pencil(Q, 24, Random(5))
    evaluates has a numerator and a denominator below 2^16; from the Cauchy
    bound they take more than 100 bits."""
    p = random_pencil(QQ, 24, random.Random(5))
    rep = smoothness(p)
    seen = []
    between = uv.sample_points_between

    def recorded(roots):
        samples = between(roots)
        seen.extend(samples)
        return samples

    monkeypatch.setattr(uv, "sample_points_between", recorded)
    index_circle(p, rep)
    assert seen and all(abs(t.numerator) < 2**16 and t.denominator < 2**16 for t in seen), seen
    assert _bits(between(cauchy_isolation(rep.discriminant.chart_main()))) > 100


def test_a_planted_wrong_minor_is_caught_against_elimination():
    """Negating Δ_2 moves the Jacobi signature of (1, t) wherever Δ_1 and
    Δ_3 share a sign; the antipodal check against the eliminated (-1, -t)
    names both sides."""
    p = diagonal_pencil(QQ, 5)  # Δ_k = (1 + t)(1 + 2t)...(1 + (k-1)t)
    rep = smoothness(p)
    minors = list(rep.minors)
    minors[1] = [-c for c in minors[1]]
    wrong = SmoothnessReport(
        rep.smooth, rep.discriminant, rep.chart_main_gcd, rep.chart_other_gcd, minors=tuple(minors)
    )
    t0 = _samples(rep)[0]  # below every root, where Δ_1, Δ_3 > 0 > Δ_2
    plus = circle_mod._jacobi_signature(wrong.minors, t0)
    minus = _plus_elimination(p, t0)[::-1]
    assert plus != minus[::-1]
    with pytest.raises(InternalCheckError, match="antipodal signatures at a sample") as err:
        index_circle(p, wrong)
    msg = str(err.value)
    assert f"t = {t0}" in msg and f"plus = {plus}" in msg and f"minus = {minus}" in msg


def test_analyze_diagonal_eliminates_only_off_the_jacobi_route(monkeypatch):
    """On inputs/diagonal.json, elimination runs once per (-1, -t) sample,
    plus once for the north member (0, 1) when det G1 != 0, plus once per
    (1, t) sample where a minor vanishes; here det G1 = 0 and no minor
    vanishes at a sample, so that is one call for each of the 6 samples."""
    p, _ = io.load_pencil(str(INPUTS / "diagonal.json"))
    rep = smoothness(p)
    samples = _samples(rep)
    north = not QQ.is_zero(rep.discriminant.coeffs[-1])
    fallbacks = sum(circle_mod._jacobi_signature(rep.minors, t) is None for t in samples)
    calls = []
    real = circle_mod.signature_pair
    monkeypatch.setattr(circle_mod, "signature_pair", lambda g: calls.append(g) or real(g))
    index_circle(p, rep)
    assert len(calls) == len(samples) + north + fallbacks == 6


def test_index_circle_takes_no_remainder_sequence(monkeypatch):
    """Given the smoothness report, the index circle takes no remainder
    sequence: Descartes isolation needs no gcd, so the circles match those
    computed before `gcd_with_derivative`, `gcd_poly` and `_prem` were made
    to raise."""
    rng = random.Random(20)
    pencils = [_battery_pencil(rng, n, kind) for n in range(2, 9) for kind in ("dense", "diagonal", "corner")]
    cases = [(p, rep) for p, rep in ((p, smoothness(p)) for p in pencils) if rep.smooth]
    expected = [index_circle(p, rep) for p, rep in cases]

    def refuse(*args):
        raise AssertionError("a remainder sequence was taken again")

    for name in ("gcd_with_derivative", "gcd_poly", "_prem"):
        monkeypatch.setattr(uv, name, refuse)
    assert [index_circle(p, rep) for p, rep in cases] == expected
    assert len(cases) > 15 and any(circle.root_count > 1 for circle in expected)


def test_class_is_a_pencil_invariant():
    """Recombining the spanning forms or changing coordinates moves the
    jump points around the circle but never the decomposition."""
    p = _block_pencil()
    base = pencil_decomposition(p).parts
    for a, b, c, d in [(1, 1, 0, 1), (2, 1, 1, 1), (0, 1, -1, 0), (1, 0, 0, -1), (3, -2, 1, 4)]:
        q = pencil_recombined(
            p, Fraction(a), Fraction(b), Fraction(c), Fraction(d)
        )
        assert pencil_decomposition(q).parts == base
    m = [
        [1, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 2],
        [0, 2, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ]
    assert pencil_decomposition(pencil_congruent(p, m)).parts == base


# -- verdicts -------------------------------------------------------------

RATIONAL_CLASSES = {(0,), (2,), (2, 1, 1), (2, 2, 2), (2, 1, 1, 1, 1)}


def test_real_rationality_table():
    for dec in enumerate_classes(5):
        v = real_verdict(dec)
        assert v.rational == (dec.parts in RATIONAL_CLASSES)
        assert v.rational == v.has_line
        assert v.has_line == real_line_exists(dec, 5)
        if v.has_line:
            assert v.has_points


def test_nonrational_topologies():
    tops = {dec.parts: real_verdict(dec).topology for dec in enumerate_classes(5)}
    assert tops[(4,)] == "S³"
    assert tops[(4, 1, 1)] == "S³ ⊔ S³"
    assert tops[(3, 2, 1)] == "S¹ × S²"
    assert tops[(6,)] == "∅"
    assert tops[(2,)] is None  # rational classes carry no listed type


def test_empty_real_locus_only_for_the_definite_class():
    for dec in enumerate_classes(5):
        v = real_verdict(dec)
        assert v.has_points == (dec.parts != (6,))
        if dec.parts == (6,):
            assert v.reason == "real locus is empty"


def test_real_line_window():
    # the window [m+1, m+3] in P^5 is [2, 4]
    assert real_line_exists(OddDecomposition((2,)), 5)
    assert not real_line_exists(OddDecomposition((4,)), 5)
    walk = signature_walk(OddDecomposition((4,)), 5)
    assert any(x > 4 or x < 2 for x in walk)


def test_verdict_needs_threefolds():
    with pytest.raises(PrecondError):
        real_verdict(OddDecomposition((2,)), 4)


def test_verdicts_of_concrete_pencils():
    assert not real_verdict(pencil_decomposition(diagonal_pencil(QQ, 5))).rational
    assert real_verdict(pencil_decomposition(_block_pencil())).rational
