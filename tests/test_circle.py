"""Index circles, odd decompositions, and real rationality verdicts."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qpencil import circle as circle_mod, univariate as uv
from qpencil.circle import (
    IndexCircle,
    OddDecomposition,
    canonical_parts,
    decomposition,
    enumerate_classes,
    index_circle,
    pencil_decomposition,
    real_line_exists,
    real_verdict,
    signature_walk,
)
from qpencil.errors import InternalCheckError, PrecondError
from qpencil.fields import QQ
from qpencil.matrices import _integer_grams
from qpencil.pencil import Pencil, diagonal_pencil, pencil_congruent, pencil_recombined


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
    assert sorted(circle.positive_walk()) == sorted([0, 1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1])


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
    # the first call is the member (1, t0)
    truth = _faulty_signatures(monkeypatch, lambda g, call, sig: (sig[0] + 1, sig[1] - 1) if call == 0 else sig)
    with pytest.raises(InternalCheckError, match="antipodal signatures disagree") as err:
        index_circle(p)
    pos, neg = truth[0]
    msg = str(err.value)
    assert f"t = {t0}" in msg and str((pos + 1, neg - 1)) in msg and str((neg, pos)) in msg


def test_arc_check_through_the_pole_names_all_three_signatures(monkeypatch):
    p = _block_pencil()  # det(G1) != 0, so the arc through (0, 1) is checked
    z1 = _integer_grams(p.g0.entries, p.g1.entries)[1]  # the member (0, 1)
    truth = _faulty_signatures(monkeypatch, lambda g, call, sig: (sig[1], sig[0]) if g == z1 else sig)
    with pytest.raises(InternalCheckError, match=r"arc through \(0,1\) is inconsistent") as err:
        index_circle(p)
    north, msg = truth[-1], str(err.value)
    assert north[0] != north[1] and str((north[1], north[0])) in msg and str(north) in msg


def test_antipodal_arc_check_names_the_arc_and_both_signatures(monkeypatch):
    p = diagonal_pencil(QQ, 5)
    circle = index_circle(p)
    (a, b), k = circle.arc_signatures[0], circle.root_count
    # every signature off by (+1, +1): each antipodal pair still swaps, but
    # no pair sums to n + 1 = 6
    _faulty_signatures(monkeypatch, lambda g, call, sig: (sig[0] + 1, sig[1] + 1))
    with pytest.raises(InternalCheckError, match="antipodal arc identity fails at arc 0") as err:
        index_circle(p)
    msg = str(err.value)
    assert str((a + 1, b + 1)) in msg and str((b + 1, a + 1)) in msg and f"arc {k}" in msg


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
