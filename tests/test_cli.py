"""End-to-end CLI tests: exit codes, report envelopes, and golden outputs.

Golden files live in tests/golden and hold the exact JSON bytes of one CLI
invocation each.  Regenerate after an intentional output change with

    QPENCIL_UPDATE_GOLDENS=1 python3 -m pytest tests/test_cli.py

and review the diff before committing.
"""

import io as _io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from qpencil import cli
from qpencil import pencil as pencil_mod
from qpencil.classes import MAX_CLASSES_N, enumerate_classes
from qpencil.errors import InternalCheckError, PrecondError
from qpencil.io import MAX_N, Report
from qpencil.matrices import det_poly

from conftest import GOLDEN, REPO

GOLDEN_CASES = [
    ("analyze-toric", ["analyze", "inputs/toric.json", "--json"]),
    ("analyze-diagonal", ["analyze", "inputs/diagonal.json", "--json"]),
    ("analyze-smooth-f3", ["analyze", "inputs/smooth_f3.json", "--json"]),
    ("lines-smooth-f3", ["lines", "inputs/smooth_f3.json", "--json"]),
    ("lines-toric-q3", ["lines", "inputs/toric.json", "--q", "3", "--json"]),
    ("zeta-smooth-f3", ["zeta", "inputs/smooth_f3.json", "--json"]),
    ("torsor-smooth-f3", ["torsor", "inputs/smooth_f3.json", "--json"]),
    (
        "project-line-smooth-f3",
        [
            "project-line",
            "inputs/smooth_f3.json",
            "--line",
            "[[1,0,0,1,0,1],[0,1,1,1,1,1]]",
            "--json",
        ],
    ),
    (
        "double-project-smooth-f3",
        ["double-project", "inputs/smooth_f3.json", "--point", "[1,0,0,2,2,1]", "--json"],
    ),
    ("toric-q3", ["toric", "--q", "3", "--json"]),
    ("torus-u1", ["torus", "--generators", "inputs/u1.json", "--json"]),
    ("torus-full", ["torus", "--generators", "inputs/full_group.json", "--json"]),
    ("torus-perm", ["torus", "--generators", "inputs/perm_group.json", "--json"]),
    ("amer-f3", ["amer", "inputs/amer_f3.json", "--deg", "2", "--json"]),
    ("hpt-tangent", ["hpt", "--g", "inputs/g_tangent.json", "--json"]),
    ("hpt-nontangent", ["hpt", "--g", "inputs/g_nontangent.json", "--json"]),
    ("classes-n5", ["classes", "--n", "5", "--json"]),
    ("classes-n3", ["classes", "--n", "3", "--json"]),
]


def _run(argv):
    out, err = _io.StringIO(), _io.StringIO()
    code, report = cli.run(argv, out=out, err=err)
    return code, report, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name, argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(name, argv, monkeypatch):
    monkeypatch.chdir(REPO)
    code, report, out, err = _run(argv)
    assert code == 0, err
    assert err == ""
    path = GOLDEN / f"{name}.json"
    if os.environ.get("QPENCIL_UPDATE_GOLDENS"):
        GOLDEN.mkdir(exist_ok=True)
        path.write_text(out)
    assert path.exists(), (
        f"missing golden {path.name}; regenerate with QPENCIL_UPDATE_GOLDENS=1"
    )
    assert out == path.read_text()
    # the emitted JSON round-trips and matches the report object
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["command"] == ["qpencil", *argv]
    assert doc["timing"] is None
    assert isinstance(report, Report)


def test_json_output_is_stable_across_runs(monkeypatch):
    monkeypatch.chdir(REPO)
    for argv in (
        ["analyze", "inputs/toric.json", "--json"],
        ["lines", "inputs/smooth_f3.json", "--json"],
    ):
        _, _, first, _ = _run(argv)
        _, _, second, _ = _run(argv)
        assert first == second, argv


def test_human_output(monkeypatch):
    monkeypatch.chdir(REPO)
    code, report, out, err = _run(["toric", "--q", "3"])
    assert code == 0
    assert "qpencil toric: ok" in out
    assert "line_total: 108" in out
    assert "elapsed:" in out
    assert report.timing is not None


def test_analyze_human_verdict(monkeypatch):
    monkeypatch.chdir(REPO)
    code, _, out, _ = _run(["analyze", "inputs/diagonal.json"])
    assert code == 0
    assert "smooth: true" in out
    assert '"(6)"' in out  # the isotopy class label


def test_rational_analyze_takes_one_determinant(monkeypatch):
    """The smoothness report of an analyze also feeds the index circle, so
    the discriminant is computed once."""
    monkeypatch.chdir(REPO)
    calls = []

    def counted(field, coeffs, **kwargs):
        calls.append(coeffs[0].size)
        return det_poly(field, coeffs, **kwargs)

    monkeypatch.setattr(pencil_mod, "det_poly", counted)
    code, _, _, err = _run(["analyze", "inputs/diagonal.json", "--json"])
    assert code == 0, err
    assert calls == [6]


def test_rational_analyze_takes_one_remainder_sequence(monkeypatch):
    """Over the rationals the smoothness report takes gcd(D(1, t), D'(1, t))
    from one primitive pseudo-remainder sequence, and root isolation by
    Descartes' rule takes none, so an analyze runs one remainder sequence
    of D and its derivative."""
    from qpencil import univariate as uv

    monkeypatch.chdir(REPO)
    calls = []
    for name in ("gcd_with_derivative", "gcd_poly"):
        real = getattr(uv, name)
        monkeypatch.setattr(uv, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    code, _, _, err = _run(["analyze", "inputs/diagonal.json", "--json"])
    assert code == 0, err
    assert calls == ["gcd_with_derivative"]


def _swapped_halves(halves):
    return lambda b: halves(b)[::-1]


def _halves_dropping_a_step(halves):
    """de Casteljau's rule with the last sum of every round left out."""

    def faulty(b):
        d = len(b) - 1
        left, right, row = [b[0] << d], [b[-1] << d], list(b)
        for j in range(d - 1, -1, -1):
            for i in range(j):
                row[i] += row[i + 1]
            left.append(row[0] << j)
            right.append(row[j] << j)
        return left, right[::-1]

    return faulty


@pytest.mark.parametrize("fault", [_swapped_halves, _halves_dropping_a_step], ids=["swapped", "dropped"])
def test_a_planted_isolation_fault_fails_the_sign_change_check(monkeypatch, fault):
    """A bisection that swaps the two halves of a node, or drops a step of
    the subdivision, keeps an interval across which D(1, t) does not change
    sign: the check names both signs and analyze exits 3."""
    from qpencil import univariate as uv

    monkeypatch.chdir(REPO)
    monkeypatch.setattr(uv, "_halves", fault(uv._halves))
    code, report, out, err = _run(["analyze", "inputs/diagonal.json"])
    assert code == 3 and report is None and out == ""
    assert "internal check failed: f changes sign across an isolating interval: sign_product = 1, expected = -1" in err
    assert "sign_at_lo = -1, sign_at_hi = -1" in err


def test_missing_file_is_a_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    code, report, out, err = _run(["analyze", str(tmp_path / "nope.json")])
    assert code == 2
    assert report is None
    assert "error:" in err and "cannot read" in err
    assert out == ""


def test_malformed_json_names_the_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field":\n!')
    code, _, _, err = _run(["analyze", str(bad)])
    assert code == 2
    assert "line 2, column 1" in err


def test_duplicate_term_is_reported_with_position(tmp_path):
    doc = {
        "field": {"kind": "prime", "p": 5},
        "n": 2,
        "q0": [[0, 0, 1], [0, 0, 2]],
        "q1": [[1, 1, 1]],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, _, _, err = _run(["analyze", str(path)])
    assert code == 2
    assert "q0[1]: duplicate term (0, 0)" in err


@pytest.mark.parametrize("coeff", ["1e1000000", "1.5", "1_0"])
def test_coefficient_outside_the_grammar_exits_2(tmp_path, coeff):
    doc = {"field": {"kind": "rationals"}, "n": 2, "q0": [[0, 0, coeff]], "q1": [[1, 1, 1]]}
    path = tmp_path / "coeff.json"
    path.write_text(json.dumps(doc))
    code, _, _, err = _run(["analyze", str(path)])
    assert code == 2
    assert "q0[0]: cannot parse coefficient" in err


def test_rational_pencil_needs_q_for_counting(monkeypatch):
    monkeypatch.chdir(REPO)
    code, _, _, err = _run(["lines", "inputs/toric.json"])
    assert code == 2
    assert "--q is required" in err


def test_internal_check_failures_exit_3(monkeypatch):
    def boom(args):
        raise InternalCheckError("planted failure")

    monkeypatch.setitem(cli._HANDLERS, "classes", boom)
    code, report, out, err = _run(["classes", "--n", "5"])
    assert code == 3
    assert report is None
    assert "internal check failed: planted failure" in err


def test_a_payload_value_with_no_writer_rule_exits_3(monkeypatch):
    """A payload value that `io.jsonable` has no rule for is a program error:
    exit 3 naming its type, not a traceback from the writer."""
    monkeypatch.setitem(cli._HANDLERS, "classes", lambda args: ({"x": object()}, None))
    for argv in (["classes", "--n", "5"], ["classes", "--n", "5", "--json"]):
        code, report, out, err = _run(argv)
        assert code == 3 and report is None and out == ""
        assert "internal check failed: every report value has a writer rule: type = object" in err


def test_torus_cli_rejects_float_matrices(tmp_path):
    path = tmp_path / "gens.json"
    path.write_text("[[[1.0, 0, 0], [0, 1, 0], [0, 0, 1]]]")
    code, _, _, err = _run(["torus", "--generators", str(path)])
    assert code == 2
    assert "integer" in err


BIG = "1" * 5000  # over the interpreter's 4300-digit int conversion limit
TOO_LONG = f"an integer literal has more than {sys.get_int_max_str_digits()} digits"
POINT = ["double-project", "inputs/smooth_f3.json", "--point"]
LINE = ["project-line", "inputs/smooth_f3.json", "--line"]

# name: (argv, text the stderr line must hold); for hpt and torus the last
# argument is the text of the JSON file that the flag names
BAD_VALUES = {
    "point-float": (POINT + ["[1.0,0,0,2,2,1]"], "--point[0]: coefficient 1.0 must be exact"),
    "point-bool": (POINT + ["[1,0,0,true,2,1]"], "--point[3]: not a coefficient"),
    "point-5000-digits": (POINT + [f"[{BIG},0,0,2,2,1]"], f"--point: {TOO_LONG}"),
    "point-wrong-length": (POINT + ["[1,0,0,2,2]"], "--point: expected a list of 6"),
    "line-5000-digits": (LINE + [f"[[{BIG},0,0,1,0,1],[0,1,1,1,1,1]]"], f"--line: {TOO_LONG}"),
    "line-not-json": (LINE + ["[[1,0,0,1,0,1],"], "--line: line 1, column 16"),
    "g-ragged": (["hpt", "--g", "[[1, 2, 3], [1, 2, 3], 5]"], "grid: expected a 3x3"),
    "g-float": (["hpt", "--g", "[[1, 2, 3], [1, 2.5, 3], [1, 2, 3]]"], "grid[1][1]: coefficient 2.5 must be exact"),
    "g-bool": (["hpt", "--g", "[[1, 2, 3], [1, 2, 3], [1, 2, true]]"], "grid[2][2]: not a coefficient"),
    "torus-bool": (["torus", "--generators", "[[[1, 0, 0], [0, true, 0], [0, 0, 1]]]"], "generators[0]: matrix entry"),
    "torus-float": (["torus", "--generators", "[[[1.9, 0, 0], [0, 1, 0], [0, 0, 1]]]"], "generators[0]: matrix entry"),
    "torus-two-rows": (["torus", "--generators", "[[[1, 0, 0], [0, 1, 0]]]"], "generators[0]: lattice matrices are 3x3"),
}


@pytest.mark.parametrize("name", BAD_VALUES)
def test_bad_inline_and_file_values_exit_2_naming_the_argument(monkeypatch, tmp_path, name):
    """Each bad value is refused with exit 2 by the reader that owns it
    (`io.decode` for the JSON, `fields` for the values, the library entry
    point for the shape).  `cli.run` catches only PrecondError and
    InternalCheckError, so any other exception, such as the ValueError of an
    oversized inline integer, escapes it and fails the case."""
    monkeypatch.chdir(REPO)
    argv, named = BAD_VALUES[name]
    if argv[0] in ("hpt", "torus"):
        path = tmp_path / "value.json"
        path.write_text(argv[-1])
        argv = [*argv[:-1], str(path)]
    code, report, out, err = _run(argv)
    assert code == 2 and report is None and out == ""
    assert err.startswith("error: ") and named in err, err
    assert "set_int_max_str_digits" not in err  # the bound is stated, not the interpreter's advice


def test_oversized_inline_integer_exits_2_without_a_traceback():
    """The 5000-digit coordinate ended in an uncaught ValueError (exit 1)."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    argv = [sys.executable, "-m", "qpencil.cli", *POINT, f"[{BIG},0,0,0,0,0]"]
    done = subprocess.run(argv, cwd=REPO, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr and "--point" in done.stderr


def test_field_elements_are_json_ints_over_f_p_and_num_den_text_over_q(monkeypatch):
    """project-line and double-project wrote F_p coordinates as strings,
    every other subcommand as numbers; now every subcommand writes an F_p
    element as an int and a rational as "num/den" text."""
    monkeypatch.chdir(REPO)
    _, _, out, _ = _run(POINT + ["[1,0,0,2,2,1]", "--json"])
    payload = json.loads(out)["payload"]
    assert payload["point"] == [1, 0, 0, 2, 2, 1]
    assert payload["twist_factor"] == 2
    assert all(type(c) is int for c in payload["degeneracy_coefficients_ascending"])
    _, _, out, _ = _run(LINE + ["[[1,0,0,1,0,1],[0,1,1,1,1,1]]", "--json"])
    assert json.loads(out)["payload"]["line"] == [[1, 0, 0, 1, 0, 1], [0, 1, 1, 1, 1, 1]]
    line = '[["1/2",0,0,0,0,0],[0,0,1,0,0,0]]'
    code, _, out, err = _run(["project-line", "inputs/toric.json", "--line", line, "--json"])
    assert code == 0, err
    assert json.loads(out)["payload"]["line"] == [["1/2", "0", "0", "0", "0", "0"], ["0", "0", "1", "0", "0", "0"]]


def test_torus_refuses_a_non_symmetry_generator_before_the_closure(tmp_path):
    """Two unipotent generators with a 4000-digit entry generate an infinite
    group; they are refused by name at once, before any closure is taken."""
    big = 10**3999
    gens = [[[1, big, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, big], [0, 0, 1]]]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    start = time.perf_counter()
    code, report, _, err = _run(["torus", "--generators", str(path)])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and report is None
    assert "generators[0]" in err and "lattice symmetry" in err


def test_zeta_needs_a_threefold(monkeypatch, tmp_path):
    doc = {
        "field": {"kind": "prime", "p": 3},
        "n": 3,
        "q0": [[0, 0, 1], [1, 1, 1], [2, 2, 1], [3, 3, 1]],
        "q1": [[0, 0, 1], [1, 1, 2], [2, 2, 0], [3, 3, 1]],
    }
    path = tmp_path / "fourfold.json"
    path.write_text(json.dumps(doc))
    code, _, _, err = _run(["zeta", str(path)])
    assert code == 2


# records are made by qpencil.records, so no subcommand builds dataclasses
_NO_CODEGEN = ("dataclasses", "inspect")
_NO_PENCIL_WORK = ("qpencil.pencil", "qpencil.circle", "qpencil.fqgeom", "qpencil.poly", "numpy", *_NO_CODEGEN)
_NO_FQ_WORK = (
    "qpencil.fqgeom",
    "qpencil.projections",
    "qpencil.isotropy",
    "qpencil.bundlecalc",
    "qpencil.latticegroups",
    "numpy",
    *_NO_CODEGEN,
)
_NO_POLY = ("qpencil.poly",)


@pytest.mark.parametrize(
    "argv, preload, absent",
    [
        (["torus", "--generators", "inputs/full_group.json"], (), _NO_PENCIL_WORK),
        # hpt reads its (2,2) form as a Poly and needs no matrices
        (
            ["hpt", "--g", "inputs/g_tangent.json"],
            (),
            (*(m for m in _NO_PENCIL_WORK if m != "qpencil.poly"), "qpencil.matrices"),
        ),
        # the class combinatorics live in qpencil.classes, which needs no pencil
        (
            ["classes", "--n", "5"],
            (),
            _NO_FQ_WORK + ("qpencil.pencil", "qpencil.matrices", "qpencil.univariate", *_NO_POLY),
        ),
        (["analyze", "inputs/diagonal.json"], (), _NO_FQ_WORK + _NO_POLY),
        # the genus-2 cover lives in qpencil.curvecounts
        (
            ["zeta", "inputs/smooth_f3.json"],
            (),
            ("qpencil.circle", "qpencil.projections", "qpencil.fqgeom", "numpy", *_NO_CODEGEN),
        ),
        (
            ["analyze", "inputs/smooth_f3.json"],
            ("qpencil.fqgeom", "qpencil.isotropy"),
            ("numpy", *_NO_POLY, *_NO_CODEGEN),
        ),
    ],
    ids=["torus", "hpt", "classes", "analyze-diagonal", "zeta-smooth-f3", "analyze-smooth-f3"],
)
def test_subcommand_loads_only_the_modules_it_runs(argv, preload, absent):
    """A fresh interpreter that runs one subcommand loads none of the modules
    that subcommand does not run: each handler imports its library modules
    when it runs, and the package root re-exports nothing.  No subcommand
    imports dataclasses or inspect, and a pencil builds its forms as
    polynomials only when asked, so analyze loads no qpencil.poly.  numpy is
    imported only by the finite-field scans that use it, so importing both
    numpy users does not load it, nor does an analyze of a smooth pencil over
    F_3, whose smoothness certificate rules out singular points.  hashlib is
    imported only when an input file is read."""
    assert _loaded_modules(argv, preload, absent) == [], f"{argv[0]} loaded them"


def test_analyze_of_the_toric_pencil_over_f3_loads_no_numpy(tmp_path):
    """The toric pencil over F_3 is singular, and each of its three singular
    members has a 2-dimensional kernel: its points are the roots of one
    binary quadratic, found without the numpy scan."""
    path = _input_over(tmp_path, "toric", 3)
    code, report, _, err = _run(["analyze", path, "--json"])
    assert code == 0, err
    assert report.payload["singular_points"]["count"] == 6
    assert _loaded_modules(["analyze", path], (), ("numpy",)) == []


def _loaded_modules(argv, preload, absent):
    """The modules of `absent` that a fresh interpreter has loaded after it
    imports `preload` and runs `qpencil <argv>`, which must exit 0."""
    code = (
        "import importlib, io, sys\n"
        "import qpencil.cli\n"
        f"for name in {list(preload)!r}:\n"
        "    importlib.import_module(name)\n"
        "assert 'hashlib' not in sys.modules\n"
        f"status, _ = qpencil.cli.run({argv!r}, out=io.StringIO())\n"
        "assert status == 0, status\n"
        f"print(*sorted(name for name in {list(absent)!r} if name in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def _input_over(tmp_path, name, p):
    """inputs/<name>.json with its field re-declared as F_p."""
    doc = json.loads((REPO / "inputs" / f"{name}.json").read_text())
    doc["field"] = {"kind": "prime", "p": p}
    path = tmp_path / f"{name}_over_{p}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_over_a_larger_prime_is_exhaustive_within_the_member_budget(tmp_path):
    """A smooth pencil has no singular points by its smoothness certificate,
    so analyze scans no member, at p = 37 and at p = 10^9 + 7 alike, and the
    scan is exhaustive over the rationals too.  The toric pencil is
    singular, and over F_1000003 and F_(10^9 + 7) its p + 1 members exceed
    MEMBER_LIMIT: the scan is skipped at once, naming the bound, and the
    rest of the report stands."""
    smooth = [_input_over(tmp_path, "smooth_f3", p) for p in (37, 10**9 + 7)]
    for path in smooth + [str(REPO / "inputs" / "diagonal.json")]:
        start = time.perf_counter()
        code, report, _, err = _run(["analyze", path, "--json"])
        assert time.perf_counter() - start < 1
        assert code == 0, err
        assert report.payload["smooth"] is True
        assert report.payload["singular_points"] == {"exhaustive": True, "count": 0, "points": []}
    for p in (1000003, 10**9 + 7):
        start = time.perf_counter()
        code, report, _, err = _run(["analyze", _input_over(tmp_path, "toric", p), "--json"])
        assert time.perf_counter() - start < 1
        assert code == 0, err
        payload = report.payload
        assert payload["singular_points"] == {"exhaustive": False, "skipped": "MEMBER_LIMIT = 1000000"}
        assert payload["smooth"] is False and payload["discriminant"]["degree"] == 6
        assert payload["smoothness_certificate"]["gcd_deg_chart_main"] == 2


def _pencil_file(tmp_path, name, p, q0, q1):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"field": {"kind": "prime", "p": p}, "n": 5, "q0": q0, "q1": q1}))
    return str(path)


def _pencil_input(tmp_path, name, pencil):
    """Write an n = 5 pencil over F_p as an input file; the term of x_i x_j
    carries 2 G_ij off the diagonal."""
    p = pencil.field.p
    terms = [
        [[i, j, g[i, j] * (1 if i == j else 2) % p] for i in range(6) for j in range(i, 6) if g[i, j]]
        for g in (pencil.g0, pencil.g1)
    ]
    return _pencil_file(tmp_path, name, p, *terms)


def test_project_line_checks_its_round_trip_in_the_line_coordinates(tmp_path, monkeypatch):
    """`round_trip` takes base-locus points in the coordinates of the pencil
    it projected and moves them to those of span(e0, e1) itself.  When it
    expected the line's coordinates, the CLI passed it the points as they
    are, and on a pencil whose line is not a coordinate line every check
    read false.  A pencil through the coordinate line, moved by a random
    invertible congruence, passes 20 of 20 points; a failed round trip
    exits 3 naming the point."""
    from qpencil import projections
    from qpencil.fields import PrimeField
    from qpencil.linalg import invert
    from qpencil.pencil import pencil_congruent
    from qpencil.samples import random_pencil_through_line

    f11, rng = PrimeField(11), random.Random(4)
    pencil = random_pencil_through_line(f11, 5, rng)
    while True:
        m = [[rng.randrange(11) for _ in range(6)] for _ in range(6)]
        try:
            inverse = invert(f11, m)
        except PrecondError:
            continue
        break
    # x_old = M x_new, so the line is spanned by columns 0 and 1 of M^-1
    line = json.dumps([[inverse[i][k] for i in range(6)] for k in (0, 1)])
    assert all(sum(map(bool, row)) > 1 for row in json.loads(line))
    path = _pencil_input(tmp_path, "moved_line_f11", pencil_congruent(pencil, m))
    code, report, _, err = _run(["project-line", path, "--line", line, "--json"])
    assert code == 0, err
    assert report.payload["round_trip"] == {"checked": 20, "identity": True}
    monkeypatch.setattr(projections, "round_trip", lambda proj, x: False)
    code, report, out, err = _run(["project-line", path, "--line", line, "--json"])
    assert code == 3 and report is None and out == ""
    assert err.startswith("internal check failed: beta^-1(beta(x)) = x on the base locus: ")
    assert "round_trip = False, expected = True, point = [" in err


def test_analyze_skips_the_scans_over_budget(tmp_path):
    """With D = 0 every member is eliminated: over F_20011 that is
    (p + 1) 6^3 > ELIMINATION_LIMIT, so the scan is skipped, while over F_7
    it runs.  A kernel scan over POINT_SCAN_LIMIT is skipped the same way:
    over F_1009, Q1 = 0 makes the member [0:1] zero, and its kernel is P^5;
    over F_40009, the member [1:0] of Q0 = x3^2 + x4^2 + x5^2 and
    Q1 = x0 x3 + x1 x4 + x2 x5 has the kernel span(e0, e1, e2), on which both
    forms vanish, so every fiber of its scan is flat."""
    cone = ([[i, i, 1] for i in range(1, 6)], [[i, i, i] for i in range(1, 6)])
    code, report, _, err = _run(["analyze", _pencil_file(tmp_path, "cone_big", 20011, *cone), "--json"])
    assert code == 0, err
    assert report.payload["discriminant"] is None
    assert report.payload["singular_points"] == {"exhaustive": False, "skipped": "ELIMINATION_LIMIT = 4000000"}
    code, report, _, err = _run(["analyze", _pencil_file(tmp_path, "cone_small", 7, *cone), "--json"])
    assert code == 0, err
    assert report.payload["singular_points"]["exhaustive"] is True
    assert report.payload["singular_points"]["count"] > 0
    skipped = {"exhaustive": False, "skipped": "POINT_SCAN_LIMIT = 1000000000"}
    flat = ([[i, i, 1] for i in range(6)], [])
    code, report, _, err = _run(["analyze", _pencil_file(tmp_path, "flat", 1009, *flat), "--json"])
    assert code == 0, err
    assert report.payload["singular_points"] == skipped
    plane = ([[3, 3, 1], [4, 4, 1], [5, 5, 1]], [[0, 3, 1], [1, 4, 1], [2, 5, 1]])
    start = time.perf_counter()
    code, report, _, err = _run(["analyze", _pencil_file(tmp_path, "plane", 40009, *plane), "--json"])
    assert time.perf_counter() - start < 1
    assert code == 0, err
    assert report.payload["smooth"] is False and report.payload["discriminant"]["degree"] == 6
    assert report.payload["singular_points"] == skipped


def test_main_defaults_openblas_to_one_thread(monkeypatch, capsys):
    """The CLI entry point runs numpy on one BLAS thread unless the caller
    set OPENBLAS_NUM_THREADS; `run`, which library callers use, leaves the
    environment alone."""
    argv = ["classes", "--n", "2", "--json"]
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert cli.run(argv)[0] == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert cli.main(argv) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert cli.main(argv) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    capsys.readouterr()


def test_zeta_refuses_a_large_prime_before_counting(tmp_path):
    """The genus-2 counts take about q^2/2 resultants, so q above
    CURVE_Q_LIMIT exits 2 at once.  `--q 100003` on the F_3 file exits 2
    before that, on the field mismatch."""
    cases = [
        (["zeta", _input_over(tmp_path, "smooth_f3", 100003)], "CURVE_Q_LIMIT"),
        (["zeta", "inputs/smooth_f3.json", "--q", "100003"], "lives over F_3"),
    ]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for argv, reason in cases:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "qpencil.cli", *argv], cwd=REPO, env=env, capture_output=True, text=True, timeout=60
        )
        assert time.perf_counter() - start < 1
        assert done.returncode == 2 and reason in done.stderr, done.stderr


def test_double_project_above_the_curve_bound_keeps_the_exact_identity(tmp_path):
    """Over F_1009 the curve counts of the second route would exceed
    CURVE_Q_LIMIT, so they are skipped and the exact degeneracy identity
    is reported alone."""
    from qpencil.fields import PrimeField
    from qpencil.samples import random_pencil_through_line

    pencil = random_pencil_through_line(PrimeField(1009), 5, random.Random(1009))
    path = _pencil_input(tmp_path, "through_line_f1009", pencil)
    code, report, _, err = _run(["double-project", path, "--point", "[1,0,0,0,0,0]", "--json"])
    assert code == 0, err
    assert report.payload["identity_checked"] is True
    assert report.payload["counts_checked"] is False
    assert report.payload["curve_counts"] is None


def test_classes_refuses_n_above_the_input_bound():
    """`classes --n 40` enumerated about 2^40 compositions, and the work grows
    about 4x per step of 2 in n (n = 20 took about 7 s); n above
    classes.MAX_CLASSES_N = 18 now exits 2 at once."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    argv = [sys.executable, "-m", "qpencil.cli", "classes", "--n", "40"]
    done = subprocess.run(argv, cwd=REPO, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert f"n: 40 over MAX_CLASSES_N = {MAX_CLASSES_N}" in done.stderr
    for n in (20, 40):
        start = time.perf_counter()
        code, report, _, _ = _run(["classes", "--n", str(n)])
        assert code == 2 and report is None
        assert time.perf_counter() - start < 1
    with pytest.raises(PrecondError):
        enumerate_classes(MAX_CLASSES_N + 1)
    assert MAX_CLASSES_N == 18 < MAX_N
