"""Command-line front end.

One subcommand per analysis; every run emits a Report (JSON with ``--json``,
indented text otherwise).  Exit codes: 0 success, 2 bad input or violated
precondition, 3 internal consistency failure (an identity the library
re-derives came out wrong — treat as a regression, not a usage error).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TYPE_CHECKING, Any, Callable, Sequence, TextIO

from . import io
from .errors import BudgetError, InternalCheckError, PrecondError
from .fields import PrimeField, parse_at

if TYPE_CHECKING:
    from .pencil import Pencil, SmoothnessReport


def _over_q(pencil: Pencil, q: int | None) -> Pencil:
    if q is None:
        if isinstance(pencil.field, PrimeField):
            return pencil
        raise PrecondError("--q is required for a pencil over the rationals")
    from .pencil import reduce_pencil

    return reduce_pencil(pencil, q)


def _parse_vector(pencil: Pencil, raw: Any, flag: str) -> list[Any]:
    m = pencil.n + 1
    if not isinstance(raw, list) or len(raw) != m:
        raise PrecondError(f"{flag}: expected a list of {m} coordinates")
    return [parse_at(pencil.field, c, f"{flag}[{k}]") for k, c in enumerate(raw)]


# -- subcommand handlers --------------------------------------------------
# each returns (payload of library values, input-file sha256 or None); `run`
# has io.jsonable convert the payload.  Each imports the library modules it
# runs when it runs, so a process loads only what its subcommand needs.


def _cmd_analyze(args: argparse.Namespace) -> tuple[dict, str | None]:
    from .pencil import smoothness

    pencil, digest = io.load_pencil(args.file)
    rep = smoothness(pencil)
    payload: dict[str, Any] = {
        "field": pencil.field,
        "n": pencil.n,
        "smooth": rep.smooth,
        "smoothness_certificate": rep.certificate,
    }
    if rep.degenerate:
        payload["discriminant"] = None
    else:
        disc = rep.discriminant
        payload["discriminant"] = {
            "degree": disc.degree,
            "coefficients": disc.coeffs,
            "convention": "coefficient i multiplies s0^(degree-i) s1^i",
        }
    payload["singular_points"] = _singular_scan(pencil, rep)
    if pencil.field.characteristic == 0 and rep.smooth:
        from .circle import pencil_decomposition
        from .classes import real_verdict

        dec = pencil_decomposition(pencil, rep)
        payload["isotopy_class"] = {"parts": dec.parts, "label": dec.label()}
        if pencil.n == 5:
            v = real_verdict(dec, 5)
            payload["real_verdict"] = {
                "has_points": v.has_points,
                "has_line": v.has_line,
                "rational": v.rational,
                "reason": v.reason,
                "topology": v.topology,
                "walk": v.walk,
            }
    return payload, digest


def _singular_scan(pencil: Pencil, rep: SmoothnessReport) -> dict:
    if rep.smooth:  # D squarefree of full degree: Sing(X) is empty over any field
        return {"exhaustive": True, "count": 0, "points": []}
    if isinstance(pencil.field, PrimeField):
        from .fqgeom import singular_points

        try:
            pts = singular_points(pencil)
        except BudgetError as exc:  # the rest of the report stands without the scan
            return {"exhaustive": False, "skipped": exc.bound}
        return {"exhaustive": True, "count": len(pts), "points": pts}
    from .pencil import singular_at

    fld = pencil.field
    m = pencil.n + 1
    found = []
    for i in range(m):
        x = [fld.one if j == i else fld.zero for j in range(m)]
        if fld.is_zero(pencil.eval_form(0, x)) and fld.is_zero(pencil.eval_form(1, x)):
            if singular_at(pencil, x):
                found.append(x)
    return {
        "exhaustive": False,
        "count": len(found),
        "points": found,
        "note": "coordinate points only; exhaustive scans need a finite field",
    }


def _cmd_lines(args: argparse.Namespace) -> tuple[dict, str | None]:
    from .fqgeom import count_points, enumerate_lines

    pencil, digest = io.load_pencil(args.file)
    pencil = _over_q(pencil, args.q)
    lines = enumerate_lines(pencil)
    payload: dict[str, Any] = {
        "q": pencil.field.p,
        "count": len(lines),
        "points_on_base_locus": count_points(pencil),
    }
    payload["lines"] = sorted(lines) if len(lines) <= 64 else None
    return payload, digest


def _cmd_zeta(args: argparse.Namespace) -> tuple[dict, str | None]:
    from .curvecounts import _genus2_cover

    pencil, digest = io.load_pencil(args.file)
    data = _genus2_cover(_over_q(pencil, args.q), "the zeta report")
    return {
        "q": data.q,
        "curve": "y^2 = c(t), the double cover branched over the degenerate members",
        "model_note": "c is the signed determinant -det(G0 + t G1); the sign is the rank-6 discriminant normalization",
        "cover_coefficients_ascending": data.f,
        "n1": data.n1,
        "n2": data.n2,
        "lpoly_ascending": data.lpoly,
        "jacobian_order": data.jacobian_order,
    }, digest


def _cmd_torsor(args: argparse.Namespace) -> tuple[dict, str | None]:
    from .fqgeom import torsor_check

    pencil, digest = io.load_pencil(args.file)
    pencil = _over_q(pencil, args.q)
    rep = torsor_check(pencil)
    return {
        "q": rep.q,
        "line_count": rep.line_count,
        "jacobian_order": rep.jacobian_order,
        "curve_counts": rep.curve_counts,
        "lpoly_ascending": rep.lpoly,
        "consistent": rep.consistent,
    }, digest


def _cmd_project_line(args: argparse.Namespace) -> tuple[dict, str | None]:
    from .projections import project_from_line, round_trip

    pencil, digest = io.load_pencil(args.file)
    raw = io.decode(args.line, "--line")
    if not isinstance(raw, list) or len(raw) != 2:
        raise PrecondError("--line: expected two spanning points [[...], [...]]")
    rows = [_parse_vector(pencil, r, f"--line[{k}]") for k, r in enumerate(raw)]
    proj = project_from_line(pencil, rows)
    payload: dict[str, Any] = {
        "field": pencil.field,
        "n": pencil.n,
        "line": rows,
        "curve_equations": proj.curve_equations,
        "beta": proj.beta.components,
        "beta_inverse": proj.beta_inverse.components,
    }
    if isinstance(pencil.field, PrimeField):
        from .errors import check
        from .fqgeom import points_on_pencil

        checked = 0
        for pt in points_on_pencil(pencil):
            point = [int(c) for c in pt]
            ok = round_trip(proj, point)
            if ok is None:
                continue
            check("beta^-1(beta(x)) = x on the base locus", round_trip=ok, expected=True, where={"point": point})
            checked += 1
            if checked == 20:
                break
        payload["round_trip"] = {"checked": checked, "identity": True}
    return payload, digest


def _cmd_double_project(args: argparse.Namespace) -> tuple[dict, str | None]:
    from .projections import double_projection

    pencil, digest = io.load_pencil(args.file)
    point = _parse_vector(pencil, io.decode(args.point, "--point"), "--point")
    dp = double_projection(pencil, point)
    return {
        "field": pencil.field,
        "point": point,
        "degeneracy_coefficients_ascending": dp.degeneracy.chart_main(),
        "twist_factor": dp.twist_factor,
        "identity": "det A(t) = -det(M)^2 * F(t, -1)",
        "identity_checked": dp.identity_checked,
        "counts_checked": dp.counts_checked,
        "curve_counts": dp.curve_counts,
    }, digest


def _cmd_toric(args: argparse.Namespace) -> tuple[dict, str | None]:
    from .toric import (
        component_count_identity,
        dp6_point_count,
        line_scheme_components,
        toric_line_census,
        toric_singular_points,
    )

    q = args.q
    census = toric_line_census(q)
    sing = toric_singular_points(PrimeField(q))
    comp = line_scheme_components()
    by_components, by_strata = component_count_identity(q)
    return {
        "q": q,
        "singular_points": len(sing),
        "line_total": census.total,
        "planar_lines": census.planar,
        "nonplanar_lines": census.nonplanar,
        "per_plane": {"x" + "x".join(map(str, k)): v for k, v in sorted(census.per_plane.items())},
        "predicted": {
            "total": census.predicted_total,
            "planar": census.predicted_planar,
            "nonplanar": census.predicted_nonplanar,
            "per_plane": census.predicted_per_plane,
        },
        "census_consistent": census.consistent,
        "dp6_points": dp6_point_count(q),
        "line_scheme_point_identity": {
            "by_components": by_components,
            "by_strata": by_strata,
            "equal": by_components == by_strata,
        },
        "component_degrees": {
            "planes": [comp.plane_components, comp.plane_degree],
            "dp6": [comp.dp6_components, comp.dp6_degree],
            "total_degree": comp.total_degree,
        },
    }, None


def _cmd_torus(args: argparse.Namespace) -> tuple[dict, str | None]:
    from .latticegroups import torus_rationality

    doc, digest = io.load_json(args.generators)
    if not isinstance(doc, list) or not doc:
        raise PrecondError("generators: expected a nonempty JSON list of 3x3 integer matrices")
    v = torus_rationality(doc)
    witness = None if v.witness_subgroup is None else {"subgroup": v.witness_subgroup, "conjugator": v.conjugator}
    return {
        "order": v.order,
        "structure": v.tag,
        "rational": v.rational,
        "klein_subgroup_count": v.klein_count,
        "unmatched_klein": v.unmatched_klein,
        "witness": witness,
    }, digest


def _cmd_amer(args: argparse.Namespace) -> tuple[dict, str | None]:
    from .isotropy import amer_harness

    pencil, digest = io.load_pencil(args.file)
    pencil = _over_q(pencil, args.q)
    rep = amer_harness(pencil.g0, pencil.g1, args.deg, pencil.field)
    return {
        "q": rep.q,
        "nvars": rep.nvars,
        "degree_bound": rep.degree_bound,
        "common_zero": rep.common_zero,
        "common_zero_count": rep.common_zero_count,
        "solution": rep.solution,
        "candidates": rep.candidates,
        "consistent": rep.consistent,
    }, digest


def _cmd_hpt(args: argparse.Namespace) -> tuple[dict, str | None]:
    from .bundlecalc import hpt_check, poly_from_grid

    doc, digest = io.load_json(args.g)
    g = poly_from_grid(doc)
    rep = hpt_check(g)
    return {
        "g": g,
        "det_bidegree": rep.det_bidegree,
        "factors": rep.factors,
        "factored_class_sum": rep.factored_class_sum,
        "configuration_class_sum": rep.configuration_class_sum,
        "fibers": [
            {
                "fiber": f.fiber,
                "restriction": f.restriction,
                "discriminant": f.discriminant,
                "restriction_zero": f.restriction_zero,
                "tangent": f.tangent,
            }
            for f in rep.fibers
        ],
        "all_tangent": rep.all_tangent,
    }, digest


def _cmd_classes(args: argparse.Namespace) -> tuple[dict, str | None]:
    from .classes import enumerate_classes, real_line_exists, real_verdict

    n = args.n
    decs = enumerate_classes(n)
    rows = []
    for dec in decs:
        row: dict[str, Any] = {
            "parts": dec.parts,
            "label": dec.label(),
            "k": dec.k,
            "real_line": real_line_exists(dec, n),
        }
        if n == 5:
            v = real_verdict(dec, 5)
            row["has_points"] = v.has_points
            row["rational"] = v.rational
            row["topology"] = v.topology
        rows.append(row)
    return {"n": n, "count": len(rows), "classes": rows}, None


_HANDLERS: dict[str, Callable[[argparse.Namespace], tuple[dict, str | None]]] = {
    "analyze": _cmd_analyze,
    "lines": _cmd_lines,
    "zeta": _cmd_zeta,
    "torsor": _cmd_torsor,
    "project-line": _cmd_project_line,
    "double-project": _cmd_double_project,
    "toric": _cmd_toric,
    "torus": _cmd_torus,
    "amer": _cmd_amer,
    "hpt": _cmd_hpt,
    "classes": _cmd_classes,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qpencil",
        description="Exact analysis of pencils of quadrics and their base loci.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True, metavar="SUBCOMMAND")

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        return p

    p = add("analyze", "discriminant, smoothness, singular points; over Q also the isotopy class")
    p.add_argument("file", help="pencil file (JSON)")

    p = add("lines", "enumerate the lines on the base locus over F_q")
    p.add_argument("file", help="pencil file (JSON)")
    p.add_argument("--q", type=int, help="prime modulus (required for a rational pencil)")

    p = add("zeta", "point counts and L-polynomial of the double cover of the pencil line")
    p.add_argument("file", help="pencil file (JSON)")
    p.add_argument("--q", type=int, help="prime modulus (required for a rational pencil)")

    p = add("torsor", "compare the line count with the Jacobian order of the cover")
    p.add_argument("file", help="pencil file (JSON)")
    p.add_argument("--q", type=int, help="prime modulus (required for a rational pencil)")

    p = add("project-line", "projection away from a line on the base locus")
    p.add_argument("file", help="pencil file (JSON)")
    p.add_argument("--line", required=True, help="JSON: two spanning points, e.g. '[[1,0,...],[0,1,...]]'")

    p = add("double-project", "double projection from a point; degeneracy sextic and its twist identity")
    p.add_argument("file", help="pencil file (JSON)")
    p.add_argument("--point", required=True, help="JSON: one point on the base locus")

    p = add("toric", "census of the torus-invariant example over F_q")
    p.add_argument("--q", type=int, required=True, help="prime modulus")

    p = add("torus", "rationality of the 3-torus with the given integral symmetry group")
    p.add_argument("--generators", required=True, help="JSON file: list of 3x3 integer matrices")

    p = add("amer", "polynomial-solution harness for the pencil's two forms over F_q")
    p.add_argument("file", help="pencil file (JSON)")
    p.add_argument("--q", type=int, help="prime modulus (required for a rational pencil)")
    p.add_argument("--deg", type=int, required=True, help="degree bound D for x(t)")

    p = add("hpt", "specialization-matrix determinant and fiber tangency for a (2,2) curve")
    p.add_argument("--g", required=True, help="JSON file: 3x3 coefficient grid of the (2,2) form")

    p = add("classes", "enumerate the isotopy classes of smooth pencils in P^n(R)")
    p.add_argument("--n", type=int, required=True, help="projective dimension, 2 <= n <= classes.MAX_CLASSES_N")

    return ap


def run(argv: Sequence[str], out: TextIO | None = None, err: TextIO | None = None) -> tuple[int, io.Report | None]:
    """Parse argv, run the subcommand, emit its report.  Returns (exit code, report)."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    args = build_parser().parse_args(list(argv))
    started = time.perf_counter()
    try:
        payload, digest = _HANDLERS[args.cmd](args)
        payload = io.jsonable(payload)
    except PrecondError as exc:
        print(f"error: {exc}", file=err)
        return 2, None
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=err)
        return 3, None
    report = io.Report(
        command=("qpencil", *argv),
        input_sha256=digest,
        payload=payload,
        timing=None if args.json else time.perf_counter() - started,
    )
    out.write(report.to_json() if args.json else report.to_text())
    return 0, report


def main(argv: Sequence[str] | None = None) -> int:
    """The entry point of the `qpencil` script and of `python -m qpencil.cli`.

    numpy's OpenBLAS starts a thread per core when numpy is imported, which
    costs a one-shot process tens of milliseconds of CPU, and no qpencil
    matrix product is large enough to use a second thread; so one thread
    is the default here, where a caller's own setting is kept, and not at
    import, which library users share."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code, _ = run(sys.argv[1:] if argv is None else argv)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
