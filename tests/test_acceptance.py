"""Acceptance gate: one test per shipped guarantee, each with its time budget.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion (add ``-s`` to also see the PASS summaries with timings).  Every
numeric oracle here is hard-coded on the test side on purpose; the library
must *recompute* the other side of each equality.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from qpencil.bundlecalc import (
    bundle_parameter_counts,
    hpt_check,
    poly_from_grid,
    secant_degrees,
    secant_multiplicity,
)
from qpencil.circle import index_circle
from qpencil.classes import (
    OddDecomposition,
    canonical_parts,
    enumerate_classes,
    real_line_exists,
    real_verdict,
)
from qpencil.curvecounts import curve_data, weil_check
from qpencil.errors import PrecondError
from qpencil.fields import QQ, PrimeField
from qpencil.fqgeom import torsor_check
from qpencil.isotropy import amer_harness
from qpencil.latticegroups import (
    GEN_A,
    GEN_B,
    GEN_C,
    lattice_symmetry_group,
    obstruction_subgroup,
    relations_audit,
    torus_rationality,
)
from qpencil.matrices import SymMatrix, congruent, inertia
from qpencil.pencil import Pencil, diagonal_pencil, discriminant_cover, toric_pencil
from qpencil.projections import double_projection, project_from_line, round_trip
from qpencil.samples import (
    random_pencil,
    random_pencil_through_line,
    random_point_on_pencil,
    random_symmetric,
)
from qpencil.toric import line_scheme_components, toric_line_census, toric_singular_points

F3 = PrimeField(3)
F5 = PrimeField(5)
F11 = PrimeField(11)


@contextmanager
def budget(criterion: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"PASS {criterion} ({elapsed:.2f}s, budget {seconds:.0f}s)")
    assert elapsed < seconds, f"{criterion} exceeded its {seconds}s budget: {elapsed:.2f}s"


def test_criterion_01_isotopy_class_counts():
    with budget("criterion 01: isotopy class counts 3/4/7/9", 1):
        for n, expected in ((2, 3), (3, 4), (4, 7), (5, 9)):
            assert len(enumerate_classes(n)) == expected
        assert {d.parts for d in enumerate_classes(5)} == {
            (0,), (2,), (2, 1, 1), (4,), (2, 2, 2),
            (4, 1, 1), (2, 1, 1, 1, 1), (3, 2, 1), (6,),
        }
        assert {d.parts for d in enumerate_classes(2)} == {(1,), (3,), (1, 1, 1)}


def test_criterion_02_nine_class_verdict_table():
    with budget("criterion 02: verdict table with topological types", 1):
        rational = {(0,), (2,), (2, 1, 1), (2, 2, 2), (2, 1, 1, 1, 1)}
        tops = {(4,): "S³", (4, 1, 1): "S³ ⊔ S³", (3, 2, 1): "S¹ × S²"}
        for dec in enumerate_classes(5):
            v = real_verdict(dec)
            assert real_line_exists(dec, 5) == (dec.parts in rational)
            assert v.rational == (dec.parts in rational)
            if dec.parts in tops:
                assert v.topology == tops[dec.parts]
            if dec.parts == (6,):
                assert not v.has_points


def test_criterion_03_torsor_identity():
    rng = random.Random(20240917)
    for q, field, instances in ((3, F3, 5), (5, F5, 3)):
        for i in range(instances):
            with budget(f"criterion 03: torsor identity F_{q} #{i + 1}", 60):
                p = random_pencil(field, 5, rng)
                rep = torsor_check(p)
                assert rep.line_count == rep.jacobian_order
                assert rep.consistent


def test_criterion_04_toric_example():
    with budget("criterion 04: toric singularities, discriminant, census", 60):
        for field in (QQ, F3, F5):
            assert len(toric_singular_points(field)) == 6
        from qpencil.pencil import BinaryForm

        disc = toric_pencil(QQ).discriminant_form()
        reference = BinaryForm(QQ, tuple(Fraction(c) for c in (0, 0, -1, 2, -1, 0, 0)))
        assert disc.proportional_to(reference)  # -s0^2 (s1-s0)^2 s1^2
        census = toric_line_census(3)
        assert census.total == 108  # the inclusion-exclusion oracle for q = 3
        assert census.consistent
        assert line_scheme_components().total_degree == 32  # 8*1 + 4*6


def test_criterion_05_projection_round_trip():
    with budget("criterion 05: 3 line projections, 20/20 round trips each", 5):
        line_rows = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]
        for seed in (11, 23, 31):
            rng = random.Random(seed)
            p = random_pencil_through_line(F11, 5, rng)
            proj = project_from_line(p, line_rows)
            (l00, l01), (l10, l11) = proj.linear_forms
            assert proj.curve_equations[0] == l00 * l11 - l01 * l10
            from qpencil.fqgeom import points_on_pencil

            checked = 0
            for row in points_on_pencil(p):
                verdict = round_trip(proj, [int(c) for c in row])
                if verdict is None:
                    continue
                assert verdict
                checked += 1
                if checked == 20:
                    break
            assert checked == 20


def test_criterion_06_secant_table():
    with budget("criterion 06: secant table and m = d - 2", 1):
        assert secant_degrees(3, 0) == (1, 1)
        assert secant_degrees(4, 1) == (2, 0)
        assert secant_degrees(5, 2) == (4, 1)
        for d, g in ((3, 0), (4, 1), (5, 2)):
            assert secant_multiplicity(d, g) == d - 2


def test_criterion_07_double_projection_consistency():
    rng = random.Random(20240917)
    found = 0
    attempts = 0
    while found < 3:
        attempts += 1
        assert attempts < 60, "could not find three usable (pencil, point) pairs"
        p = random_pencil(F11, 5, rng)
        pt = random_point_on_pencil(p, rng)
        start = time.perf_counter()
        try:
            dp = double_projection(p, pt)
        except PrecondError:
            continue  # singular point or degenerate elimination; redraw
        elapsed = time.perf_counter() - start
        assert dp.identity_checked
        assert dp.counts_checked  # equal (N1, N2) along both sextics
        assert dp.curve_counts is not None
        found += 1
        print(f"PASS criterion 07: double projection #{found} ({elapsed:.2f}s, budget 30s)")
        assert elapsed < 30


def test_criterion_08_bundle_parameter_counts():
    with budget("criterion 08: quadric-bundle dimension bookkeeping", 1):
        c1 = bundle_parameter_counts(1)
        assert (c1.family, c1.generic, c1.degeneracy_bidegree) == (39, 42, (6, 6))
        c0 = bundle_parameter_counts(0)
        assert (c0.family, c0.generic, c0.degeneracy_bidegree) == (14, 14, (2, 6))


def test_criterion_09_hpt_specialization():
    with budget("criterion 09: specialization determinant and tangency", 5):
        tangent = hpt_check(poly_from_grid([[0, 0, 1], [0, -1, 0], [1, 0, 0]]))
        assert tangent.det_bidegree == (6, 6)
        assert tangent.all_tangent
        refuted = hpt_check(poly_from_grid([[1, 1, 1], [0, 1, 0], [1, 0, 1]]))
        assert refuted.det_bidegree == (6, 6)
        assert not refuted.all_tangent


def test_criterion_10_torus_rationality():
    with budget("criterion 10: torus verdicts and relations audit", 5):
        assert relations_audit()
        assert lattice_symmetry_group().order == 48
        assert not torus_rationality([GEN_A, GEN_B, GEN_C]).rational
        assert torus_rationality([GEN_A, GEN_B]).rational
        assert not torus_rationality(list(obstruction_subgroup().generators)).rational
        assert torus_rationality([GEN_C]).rational


def test_criterion_11_amer_harness_200_pairs():
    with budget("criterion 11: 200 form pairs, zero biconditional violations", 120):
        rng = random.Random(20240917)
        violations = 0
        for _ in range(200):
            m = rng.choice([2, 3, 4])
            d = rng.randrange(4)
            f = random_symmetric(F3, m, rng)
            g = random_symmetric(F3, m, rng)
            rep = amer_harness(f, g, d, F3)
            if not rep.consistent:
                violations += 1
        assert violations == 0


def test_criterion_12_property_suites():
    with budget("criterion 12: congruence, Weil, antipodal, canonical", 120):
        # Sylvester-congruence invariance, 100 trials
        rng = random.Random(20240917)
        from qpencil.linalg import det as det_f

        for _ in range(100):
            size = rng.choice([2, 3, 4, 5])
            g = random_symmetric(QQ, size, rng)
            while True:
                m = [
                    [Fraction(rng.randint(-4, 4)) for _ in range(size)]
                    for _ in range(size)
                ]
                if det_f(QQ, m) != 0:
                    break
            assert inertia(congruent(QQ, g, m)) == inertia(g)

        # Weil bounds on every Jacobian order computed here
        for field, n_curves in ((F3, 3), (F5, 2), (F11, 2)):
            crng = random.Random(field.p)
            for _ in range(n_curves):
                p = random_pencil(field, 5, crng)
                cover = discriminant_cover(p)
                data = curve_data([int(c) for c in cover.chart_main()], field.p)
                weil_check(data.lpoly, field.p)

        # antipodal identity on every index circle computed here
        pencils = [diagonal_pencil(QQ, n) for n in (2, 3, 4, 5)]
        g0 = [
            [1, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
            [0, 0, 0, -1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1],
        ]
        g1 = [
            [0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, 2, 0, 0],
            [0, 0, 2, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 2],
        ]
        pencils.append(
            Pencil.from_gram(
                QQ,
                [[Fraction(e) for e in row] for row in g0],
                [[Fraction(e) for e in row] for row in g1],
            )
        )
        for p in pencils:
            circle = index_circle(p)
            arcs, signs, k = circle.arc_signatures, circle.jump_signs, circle.root_count
            for i in range(len(arcs)):
                assert arcs[(i + k) % (2 * k)] == (arcs[i][1], arcs[i][0])
                assert signs[(i + k) % (2 * k)] == -signs[i]

        # canonicalization idempotence: exhaustive over odd words of sum <= 6
        words = []
        for total in range(1, 7):
            for length in range(1, total + 1, 2):
                for cuts in itertools.combinations(range(1, total), length - 1):
                    bounds = (0,) + cuts + (total,)
                    words.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
        assert words
        for w in words:
            canon = canonical_parts(w)
            assert canonical_parts(canon) == canon
            assert canonical_parts(tuple(reversed(w))) == canon
            for r in range(len(w)):
                assert canonical_parts(w[r:] + w[:r]) == canon
            OddDecomposition(canon)  # canonical words construct cleanly
