"""Lattice symmetry groups and the Klein-four rationality obstruction."""

import itertools
import random

import pytest

from qpencil.errors import PrecondError
from qpencil.latticegroups import (
    GEN_A,
    GEN_B,
    GEN_C,
    IDENTITY,
    element_order,
    group_closure,
    isomorphism_tag,
    klein_subgroups,
    lattice_symmetry_group,
    mat_from,
    mdet,
    minv,
    mmul,
    obstruction_subgroup,
    relations_audit,
    torus_rationality,
)


def test_generator_relations():
    assert relations_audit()
    assert element_order(GEN_A) == 4
    assert element_order(GEN_B) == 2
    assert element_order(GEN_C) == 2
    assert element_order(IDENTITY) == 1


def test_mmul_is_the_row_by_column_product():
    """The unrolled product agrees with the sum over k of x[i][k] y[k][j]."""
    rng = random.Random(25)
    for _ in range(200):
        x, y = (tuple(tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3)) for _ in range(2))
        expected = tuple(tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3)) for i in range(3))
        assert mmul(x, y) == expected


def test_full_group_structure():
    g = lattice_symmetry_group()
    assert g.order == 48
    assert isomorphism_tag(g) == "sym4 x cyclic2"
    assert GEN_C in g
    # the center contains the inversion
    for x in g.elements:
        assert mmul(x, GEN_C) == mmul(GEN_C, x)


def test_permutation_factor():
    g = group_closure([GEN_A, GEN_B])
    assert g.order == 24
    assert isomorphism_tag(g) == "sym4"
    assert GEN_C not in g


def test_group_closure_guards():
    unipotent = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(PrecondError, match="CLOSURE_GUARD"):
        group_closure([unipotent])
    with pytest.raises(PrecondError, match="invertible"):
        group_closure([[[2, 0, 0], [0, 1, 0], [0, 0, 1]]])


def test_obstruction_subgroup_is_the_distinguished_klein():
    u = obstruction_subgroup()
    assert u.order == 4
    assert isomorphism_tag(u) == "klein"
    traces = sorted(x[0][0] + x[1][1] + x[2][2] for x in u.elements)
    assert traces == [-1, -1, -1, 3]
    assert GEN_C not in u
    perm = set(group_closure([GEN_A, GEN_B]).elements)
    assert any(x not in perm for x in u.elements)


def test_klein_census_of_the_full_group():
    g = lattice_symmetry_group()
    kleins = klein_subgroups(g)
    assert len(kleins) == 25
    # partition into conjugacy classes
    classes = []
    rest = [frozenset(k) for k in kleins]
    while rest:
        k = rest.pop()
        cls = {k}
        orbit = {
            frozenset(mmul(mmul(h, x), minv(h)) for x in k) for h in g.elements
        }
        cls |= {o for o in orbit if o in rest or o == k}
        rest = [r for r in rest if r not in orbit]
        classes.append(cls)
    assert len(classes) == 7
    target = frozenset(obstruction_subgroup().elements)
    hits = [cls for cls in classes if target in cls]
    assert len(hits) == 1
    # the obstruction class is singled out by its lattice character: every
    # involution has trace -1 and the inversion is absent
    for k in hits[0]:
        for x in k:
            tr = x[0][0] + x[1][1] + x[2][2]
            assert tr == (3 if x == IDENTITY else -1)
        assert GEN_C not in k


def test_verdict_table():
    full = torus_rationality([GEN_A, GEN_B, GEN_C])
    assert not full.rational
    assert full.order == 48
    assert full.witness_subgroup is not None
    assert full.conjugator is not None

    perm = torus_rationality([GEN_A, GEN_B])
    assert perm.rational
    assert perm.tag == "sym4"
    assert perm.klein_count == 4
    assert perm.unmatched_klein  # has Kleins, none conjugate to the obstruction

    u1 = torus_rationality(list(obstruction_subgroup().generators))
    assert not u1.rational
    assert u1.order == 4 and u1.tag == "klein"
    assert u1.klein_count == 1

    inv = torus_rationality([GEN_C])
    assert inv.rational
    assert inv.order == 2 and inv.tag == "cyclic2"
    assert inv.klein_count == 0
    assert not inv.unmatched_klein


def test_witness_conjugation_is_exact():
    v = torus_rationality([GEN_A, GEN_B, GEN_C])
    h = v.conjugator
    target = frozenset(obstruction_subgroup().elements)
    image = frozenset(mmul(mmul(h, x), minv(h)) for x in v.witness_subgroup)
    assert image == target


def test_verdicts_are_conjugation_invariant():
    full = lattice_symmetry_group()
    rng = random.Random(17)
    gen_sets = [
        [GEN_A, GEN_B, GEN_C],
        [GEN_A, GEN_B],
        list(obstruction_subgroup().generators),
        [GEN_C],
    ]
    for gens in gen_sets:
        base = torus_rationality(gens)
        for _ in range(6):
            h = rng.choice(full.elements)
            hinv = minv(h)
            conj = [mmul(mmul(h, mat_from_tuple(g)), hinv) for g in gens]
            v = torus_rationality(conj)
            assert v.rational == base.rational
            assert v.order == base.order
            assert v.tag == base.tag


def mat_from_tuple(g):
    from qpencil.latticegroups import mat_from

    return mat_from(g)


def test_every_cyclic_subgroup_is_rational():
    # no single matrix generates a Klein four-group
    full = lattice_symmetry_group()
    for x in full.elements:
        v = torus_rationality([x])
        assert v.rational
        assert v.klein_count == 0


def test_every_subgroup_of_the_permutation_factor_is_rational():
    """The obstruction never embeds in the permutation factor, so every
    subgroup (all are generated by at most two elements) must come out
    rational."""
    perm = group_closure([GEN_A, GEN_B])
    subgroups = set()
    singles = list(perm.elements)
    for x in singles:
        subgroups.add(group_closure([x]).elements)
    for x, y in itertools.combinations(singles, 2):
        subgroups.add(group_closure([x, y]).elements)
    assert len(subgroups) == 30  # the subgroup lattice of a symmetric group on 4 letters
    for elements in subgroups:
        w = torus_rationality(list(elements))
        assert w.rational


def test_non_ambient_generators_are_rejected():
    # an integer involution of determinant -1 that is no lattice symmetry
    with pytest.raises(PrecondError, match="lattice symmetry"):
        torus_rationality([[[1, 0, 0], [0, 1, 0], [0, 0, -1]]])


@pytest.mark.parametrize(
    "rows, reason",
    [
        ([[1.9, 0, 0], [0, 1, 0], [0, 0, 1]], "expected an integer, got 1.9"),
        ([[1, 0, 0], [0, True, 0], [0, 0, 1]], "expected an integer, got True"),
        ([[1, 0, 0], [0, 1, 0]], "3x3"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1, 0]], "3x3"),
        ([[1, 0, 0], [0, 1, 0], 5], "3x3"),
        (5, "3x3"),
    ],
    ids=["float", "bool", "two-rows", "long-row", "scalar-row", "scalar"],
)
def test_mat_from_refuses_other_shapes_and_non_integers(rows, reason):
    """Floats were truncated and bools taken as 0/1 by int(), so the first
    two rows gave the identity; a scalar row raised TypeError."""
    with pytest.raises(PrecondError, match=reason):
        mat_from(rows)
    with pytest.raises(PrecondError, match=r"^generators\[1\]: .*" + reason):
        torus_rationality([GEN_A, rows])


def test_isomorphism_tags():
    assert isomorphism_tag(group_closure([IDENTITY])) == "trivial"
    assert isomorphism_tag(group_closure([GEN_C])) == "cyclic2"
    assert isomorphism_tag(group_closure([GEN_A])) == "cyclic4"
    assert isomorphism_tag(group_closure([mmul(GEN_A, GEN_C)])) == "cyclic4"
    assert mdet(GEN_A) == -1 and mdet(GEN_B) == -1 and mdet(GEN_C) == -1
