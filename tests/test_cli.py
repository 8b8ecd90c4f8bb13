import hashlib
import itertools
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

from algrest.atlas import AtlasReport, RowCheck
from algrest.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_basis_text(capsys):
    rc, out, _ = run(capsys, "basis", "4", "5", "6", "7")
    assert rc == 0
    assert "semigroup (4, 5, 6, 7)  dim 9  scanned through qdeg 15" in out
    assert "a13+" in out and "qdeg 13" in out


def test_basis_json(capsys):
    rc, out, _ = run(capsys, "basis", "4", "5", "7", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["semigroup"] == [4, 5, 7]
    assert payload["dim"] == 9
    assert payload["top_qdeg"] == 18
    assert len(payload["basis"]) == 9
    assert payload["basis"][0]["label"] == "a9"


def test_basis_latex(capsys):
    rc, out, _ = run(capsys, "basis", "4", "5", "6", "7", "--format", "latex")
    assert rc == 0
    assert "a_{9} &=" in out
    assert "\\wedge" in out


def test_basis_plane_curve(capsys):
    rc, out, _ = run(capsys, "basis", "2", "3")
    assert rc == 0
    assert out.splitlines() == [
        "semigroup (2, 3)  dim 2  scanned through qdeg 7",
        "  a5    qdeg  5  [dx1^dx2]",
        "  a7    qdeg  7  [(x1)*dx1^dx2]",
    ]


def test_plane_curves_past_the_old_scan_bound(capsys):
    for gens, dim in ((("2", "5"), 4), (("3", "4"), 6)):
        rc, out, err = run(capsys, "basis", *gens)
        assert rc == 0 and err == ""
        assert f"dim {dim}  scanned" in out.splitlines()[0]
    rc, out, _ = run(capsys, "invariants", "3", "4", "--restriction", "a7")
    assert rc == 0
    assert "class: a7" in out
    rc, out, _ = run(capsys, "action-table", "2", "5")
    assert rc == 0
    assert "L[X_2] a7 = 9*a9" in out


def test_action_table_json_both_policies(capsys):
    for policy in ("grlex", "pinned"):
        rc, out, _ = run(
            capsys,
            "action-table", "4", "5", "6", "7",
            "--format", "json", "--lift-policy", policy,
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["policy"] == policy
        assert payload["shifts"] == [0, 1, 2, 3, 4, 5, 6]
        assert payload["nonsemigroup_shifts"] == [1, 2, 3]
        assert payload["table"]["1"]["a9"] == "5*a10"
        assert payload["table"]["6"]["a9"] == "5*a15"
        assert payload["table"]["6"]["a10"] == "0"


@pytest.mark.parametrize(
    "argv",
    [
        ("invariants", "4", "5", "6", "7", "--restriction", "a13-"),
        ("tangent", "4", "5", "6", "7", "--restriction", "a13-"),
        ("moser", "4", "5", "6", "7", "--restriction", "a9 + a13-", "--kill", "a13-"),
        ("verify-atlas", "4", "5", "6"),
    ],
)
def test_only_the_action_table_takes_a_lift_policy(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--lift-policy", "pinned"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --lift-policy pinned" in capsys.readouterr().err
    rc, out, _ = run(capsys, "action-table", "4", "5", "6", "7", "--lift-policy", "pinned")
    assert rc == 0
    assert out.startswith("semigroup (4, 5, 6, 7)  policy pinned\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("invariants", "4", "5", "6", "7", "--restriction", "a13-"),
        ("tangent", "4", "5", "6", "7", "--restriction", "a13-"),
        ("moser", "4", "5", "6", "7", "--restriction", "a9 + a13-", "--kill", "a13-"),
        ("verify-atlas", "4", "5", "6"),
    ],
)
def test_only_subcommands_with_a_latex_printer_take_format_latex(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "latex"])
    assert exc.value.code == 2
    assert "invalid choice: 'latex'" in capsys.readouterr().err


def test_action_table_text(capsys):
    rc, out, _ = run(capsys, "action-table", "4", "5", "6")
    assert rc == 0
    assert "shifts outside the semigroup: 7" in out
    assert "  L[X_4] a9 = 13*a13" in out


def test_action_table_of_an_empty_basis_says_none(capsys):
    rc, out, _ = run(capsys, "action-table", "1")
    assert rc == 0
    assert out.splitlines() == [
        "semigroup (1,)  policy grlex",
        "shifts: none",
        "shifts outside the semigroup: none",
    ]


def test_action_table_of_an_empty_basis_prints_no_latex(capsys):
    # like ``basis 1 --format latex``: no header row without columns
    rc, out, _ = run(capsys, "action-table", "1", "--format", "latex")
    assert rc == 0 and out == ""
    assert run(capsys, "basis", "1", "--format", "latex")[:2] == (0, "")


def test_action_table_project_and_pullback_latex_bytes(capsys):
    rc, out, _ = run(capsys, "action-table", "4", "5", "6", "--format", "latex")
    assert rc == 0
    assert out == (
        " & a_{9} & a_{10} & a_{11} & a_{13} & a_{14} & a_{15} & a_{17} & a_{19} \\\\\n"
        "X_{0} & 9a_{9} & 10a_{10} & 11a_{11} & 13a_{13} & 14a_{14} & 15a_{15} & 17a_{17} & 19a_{19} \\\\\n"
        "X_{4} & 13a_{13} & 14a_{14} & 5a_{15} & -\\tfrac{34}{3}a_{17} & 0 & 57a_{19} & 0 & 0 \\\\\n"
        "X_{5} & 7a_{14} & 10a_{15} & 0 & 0 & 38a_{19} & 0 & 0 & 0 \\\\\n"
        "X_{6} & 5a_{15} & 0 & 17a_{17} & 19a_{19} & 0 & 0 & 0 & 0 \\\\\n"
        "X_{7} & 0 & 0 & 0 & 0 & 0 & 0 & 0 & 0 \\\\\n"
        "X_{8} & -\\tfrac{34}{3}a_{17} & 0 & 19a_{19} & 0 & 0 & 0 & 0 & 0 \\\\\n"
        "X_{9} & 0 & 38a_{19} & 0 & 0 & 0 & 0 & 0 & 0 \\\\\n"
        "X_{10} & 19a_{19} & 0 & 0 & 0 & 0 & 0 & 0 & 0 \\\\\n"
    )
    form = "x2*dx1^dx2 + x1*dx1^dx3"
    rc, out, _ = run(capsys, "project", "4", "5", "6", "7", "--form", form, "--format", "latex")
    assert (rc, out) == (0, "\\tfrac{3}{2}a_{14}\n")
    rc, out, _ = run(
        capsys, "pullback", "4", "5", "6", "7", "--map", "(x1, -x2, x3, -x4)",
        "--restriction", "a9 + a13+", "--format", "latex",
    )
    assert (rc, out) == (0, "-a_{9}-a_{13}^{+}\n")


def test_project_text_and_errors(capsys):
    rc, out, _ = run(capsys, "project", "4", "5", "6", "7", "--form", "dx1^dx2")
    assert rc == 0
    assert "[dx1^dx2] = a9" in out
    rc, _, err = run(capsys, "project", "4", "5", "6", "7", "--form", "dx1")
    assert rc == 2
    assert "2-form" in err
    rc, out, err = run(capsys, "project", "4", "5", "6", "7", "--form", "x4*dx1^dx2")
    assert rc == 2
    assert out == ""
    assert err == "error: exterior derivative has a nonzero restriction in quasi-degree 16\n"


def test_project_rejects_a_dangling_wedge_and_counts_positions_from_the_token(capsys):
    rc, out, err = run(capsys, "project", "4", "5", "6", "7", "--form", "x2*dx1^dx2 + x1*dx1^dx3^")
    assert (rc, out) == (2, "")
    assert err == "error: unexpected end of expression in 'x2*dx1^dx2 + x1*dx1^dx3^'\n"
    rc, out, err = run(capsys, "project", "4", "5", "6", "7", "--form", "dx1 ^ dx9")
    assert (rc, out) == (2, "")
    assert err == "error: variable index 9 out of range 1..4 at position 6\n"


def test_invariants_text(capsys):
    rc, out, _ = run(capsys, "invariants", "4", "5", "6", "7", "--restriction", "a13-")
    assert rc == 0
    assert "mu = 6" in out
    assert "iota = 1" in out
    assert "Lt = 9" in out
    assert "min qdeg = 13" in out


def test_invariants_iota_zero_has_no_lt(capsys):
    rc, out, _ = run(capsys, "invariants", "4", "5", "6", "7", "--restriction", "a9")
    assert rc == 0
    assert "Lt = not determined by tangency data (iota = 0)" in out


def test_invariants_representability_flag(capsys):
    rc, out, _ = run(
        capsys, "invariants", "4", "5", "6", "7", "--restriction", "a13-", "--n", "4"
    )
    assert rc == 0
    assert "representable on R^8: yes" in out
    rc, out, _ = run(
        capsys, "invariants", "4", "5", "6", "7", "--restriction", "a13-", "--n", "3"
    )
    assert "representable on R^6: no" in out
    # a plane curve on R^2
    rc, out, _ = run(capsys, "invariants", "3", "4", "--restriction", "a7", "--n", "1")
    assert rc == 0
    assert "representable on R^2: yes" in out
    rc, out, _ = run(capsys, "invariants", "3", "4", "--restriction", "a10", "--n", "1")
    assert rc == 0
    assert "representable on R^2: no" in out
    rc, out, _ = run(
        capsys, "invariants", "4", "5", "6", "7", "--restriction", "a13-", "--n", "1"
    )
    assert rc == 0
    assert "representable on R^2: no" in out
    # threshold 6 on (6..11), with a dotted label
    rc, out, _ = run(
        capsys,
        "invariants", "6", "7", "8", "9", "10", "11",
        "--restriction", "a13 + a17.1 + a21+", "--n", "3",
    )
    assert rc == 0
    assert "representable on R^6: yes" in out


def test_invariants_restriction_starting_with_a_minus_sign(capsys):
    # argparse reads "-a18" as an option, so the class is joined with "="
    rc, out, _ = run(capsys, "invariants", "4", "5", "7", "--restriction=-a18")
    assert rc == 0
    assert out.splitlines()[:3] == ["class: -a18", "mu = 8", "iota = 2"]
    with pytest.raises(SystemExit) as excinfo:
        main(["invariants", "4", "5", "7", "--restriction", "-a18"])
    assert excinfo.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["invariants", "--help"])
    assert "--restriction=-a18" in capsys.readouterr().out


def test_invariants_json_zero_class(capsys):
    rc, out, _ = run(
        capsys, "invariants", "4", "5", "6", "--restriction", "0", "--format", "json"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["mu"] == 8
    assert payload["iota"] == "inf"
    assert payload["lt"] == "inf"
    assert payload["min_qdeg"] is None


def test_tangent_text(capsys):
    rc, out, _ = run(capsys, "tangent", "4", "5", "6", "7", "--restriction", "a13-")
    assert rc == 0
    assert "orbit tangent dimension = 3" in out
    assert "shifts used: 0 1 2" in out
    assert (
        "directions transverse to the orbit: a9, a10, a11+, a11-, a12, a13+" in out
    )


def test_moser_text(capsys):
    rc, out, _ = run(
        capsys,
        "moser", "4", "5", "6", "7",
        "--restriction", "a11+ - 3/2*a11- + 2*a12 + 7*a13+",
        "--kill", "a13+",
    )
    assert rc == 0
    assert "component to remove (qdeg 13): 7*a13+" in out
    assert "consistent: yes" in out
    assert "feasible on [0, 1]: yes" in out
    assert "b_1(t) = 315/1066" in out
    assert "b_2(t) = -196/533" in out
    assert "b_3(t) = 4410/533*t - 98/13" in out
    assert "b_4(t) = 5432/533*t - 4984/533" in out


def test_moser_infeasible_is_reported_not_an_error(capsys):
    rc, out, _ = run(
        capsys,
        "moser", "4", "5", "6", "7",
        "--restriction", "a11- + 5*a13+",
        "--kill", "a13+",
    )
    assert rc == 0
    assert "consistent: no" in out
    assert "feasible on [0, 1]: no" in out


def test_moser_text_counts_the_poles_in_the_unit_interval(capsys):
    rc, out, _ = run(
        capsys,
        "moser", "4", "5", "6", "7",
        "--restriction", "5*a13+ - 2*a13- - 4*a14",
        "--kill", "a13+",
    )
    assert rc == 0
    assert out.splitlines()[-6:] == [
        "  b_0(t) = (-1/13) / (t - 1)",
        "  b_1(t) = (-2/39) / (t^2 - 2*t + 1)",
        "  b_2(t) = (16/117) / (t^3 - 3*t^2 + 3*t - 1)",
        "  b_0 has 1 pole(s) in [0, 1]",
        "  b_1 has 1 pole(s) in [0, 1]",
        "  b_2 has 1 pole(s) in [0, 1]",
    ]


def test_moser_unknown_label(capsys):
    rc, _, err = run(
        capsys, "moser", "4", "5", "6", "7", "--restriction", "a9", "--kill", "a99"
    )
    assert rc == 2
    assert err.startswith("error:")


def test_moser_unknown_label_on_an_empty_basis(capsys):
    rc, out, err = run(capsys, "moser", "1", "--restriction", "0", "--kill", "a1")
    assert rc == 2 and out == ""
    assert err == "error: unknown basis label 'a1'; the basis has no elements\n"


def test_pullback_text(capsys):
    rc, out, _ = run(
        capsys,
        "pullback", "4", "5", "6", "7",
        "--map", "(x1, -x2, x3, -x4)",
        "--restriction", "a9 + a13+",
    )
    assert rc == 0
    assert "symmetry constant c = -1" in out
    assert "pullback of a9 + a13+ = -a9 - a13+" in out


def test_pullback_rejects_non_symmetry(capsys):
    rc, _, err = run(
        capsys,
        "pullback", "4", "5", "6", "7",
        "--map", "(-x1, -x2, x3, x4)",
        "--restriction", "a9",
    )
    assert rc == 2
    assert "not a local symmetry" in err


@pytest.mark.parametrize(
    ("phi", "rc"), [("(x1, -x2, x3, -x4)", 0), ("(-x1, -x2, x3, x4)", 2)]
)
def test_pullback_checks_the_map_once(capsys, monkeypatch, phi, rc):
    """One ``pullback`` composes the map with the curve and runs the power
    checks once, for a symmetry and for a map that is none."""
    from algrest import symmetry
    from algrest.curves import MonomialCurve

    calls = {"symmetry_constant": 0, "series": 0}
    check, compose = symmetry.symmetry_constant, MonomialCurve.series

    def counted_check(*args):
        calls["symmetry_constant"] += 1
        return check(*args)

    def counted_compose(*args):
        calls["series"] += 1
        return compose(*args)

    monkeypatch.setattr(symmetry, "symmetry_constant", counted_check)
    monkeypatch.setattr(MonomialCurve, "series", counted_compose)
    got, _, _ = run(
        capsys, "pullback", "4", "5", "6", "7", "--map", phi, "--restriction", "a9 + a13+"
    )
    assert got == rc
    assert calls == {"symmetry_constant": 1, "series": 1}


def test_verify_atlas_single_semigroup(capsys):
    rc, out, _ = run(capsys, "verify-atlas", "4", "5", "7")
    assert rc == 0
    assert "semigroup (4, 5, 7):" in out
    assert "row 1: ok" in out
    assert "distinctness: ok" in out
    assert "known: row 8: iota computes to 2; the published table prints 1" in out
    assert out.strip().endswith("all checks passed")


def test_verify_atlas_all_bundled_json(capsys):
    rc, out, _ = run(capsys, "verify-atlas", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [r["semigroup"] for r in payload["reports"]] == [
        [4, 5, 6, 7], [4, 5, 6], [4, 5, 7],
    ]
    assert all(r["passed"] for r in payload["reports"])


def test_verify_atlas_with_samples_file(capsys, tmp_path):
    samples = tmp_path / "samples.json"
    samples.write_text('{"1": [{"c1": "1", "c2": "3"}]}')
    rc, out, _ = run(
        capsys, "verify-atlas", "4", "5", "6", "7", "--samples", str(samples)
    )
    assert rc == 0
    assert "row 1: ok (1 samples)" in out


@pytest.mark.parametrize(
    "generators, content, message",
    [
        (("4", "5", "6", "7"), '{"1": [{"c1": "1", "c2": "0"}]}', "row 1 has no sample outside"),
        # nothing is excluded: the row was given no sample at all
        (("4", "5", "6", "7"), '{"1": []}', "row 1 was given no samples"),
        (
            ("4", "5", "6", "7"),
            '{"1": [{"c2": "3/2"}]}',
            "semigroup (4, 5, 6, 7) row 1: unbound parameter 'c1'",
        ),
        # row 1 of (4, 5, 7) has the single parameter c
        ((), '{"1": [{"c1": "1", "c2": "3/2"}]}', "semigroup (4, 5, 7) row 1: unbound parameter 'c'"),
        (("4", "5", "7"), '{"99": [{"c": "1"}]}', "no atlas row 99 in the verified tables"),
        # row 11 is only in the (4, 5, 6, 7) table, one of the three checked
        ((), '{"11": [{"c": "1"}], "12": [{"c": "2"}], "99": []}', "no atlas row 99"),
        (
            ("4", "5", "7"),
            '{"1": [{"c": "2", "zz": "5"}]}',
            "semigroup (4, 5, 7) row 1: undeclared parameter 'zz'",
        ),
        # the sign of a sign row is not a sample parameter
        (
            ("4", "5", "7"),
            '{"3": [{"c1": "1", "c2": "2", "s": "1"}]}',
            "semigroup (4, 5, 7) row 3: undeclared parameter 's'",
        ),
    ],
    ids=[
        "all-excluded",
        "no-samples",
        "unbound-parameter",
        "no-semigroup",
        "unknown-row",
        "unknown-row-in-every-table",
        "undeclared-parameter",
        "sign-parameter",
    ],
)
def test_verify_atlas_unusable_samples_exit_2(capsys, tmp_path, generators, content, message):
    samples = tmp_path / "samples.json"
    samples.write_text(content)
    rc, out, err = run(capsys, "verify-atlas", *generators, "--samples", str(samples))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_verify_atlas_failure_exit_code(capsys, monkeypatch):
    from algrest import atlas

    failing = AtlasReport(
        semigroup=(4, 5, 6, 7),
        checks=(
            RowCheck(
                row_id=1,
                n=2,
                env={"c1": Fraction(1)},
                failures=("mu = 3, table says 2",),
                known=(),
            ),
        ),
        distinctness_failures=(),
    )
    monkeypatch.setattr(atlas, "verify_atlas", lambda *a, **k: failing)
    rc, out, _ = run(capsys, "verify-atlas", "4", "5", "6", "7")
    assert rc == 1
    assert "row 1: FAIL" in out
    assert "at [c1=1]: mu = 3, table says 2" in out
    assert out.strip().endswith("verification FAILED")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_verify_atlas_rejects_n_below_1(capsys, n, fmt):
    """As for ``invariants``: no table row is checked on R^0 or below, so
    the run exits 2 before it prints anything."""
    rc, out, err = run(capsys, "verify-atlas", "4", "5", "6", f"--n={n}", "--format", fmt)
    assert rc == 2
    assert out == ""
    assert err == "error: the ambient symplectic space needs n >= 1\n"


def test_verify_atlas_unknown_semigroup(capsys):
    rc, _, err = run(capsys, "verify-atlas", "3", "5", "7")
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "content",
    [
        None,
        "{bad",
        "[1, 2]",
        '{"x": [{"c1": "1"}]}',
        '{"1": [{"c1": "abc"}]}',
        '{"1": [{"c1": 0.1, "c2": "1"}]}',
        '{"1": [{"c1": true, "c2": "1"}]}',
    ],
    ids=["missing", "bad-json", "top-level-list", "non-integer-row", "bad-value", "float", "bool"],
)
def test_verify_atlas_malformed_samples_exit_2(capsys, tmp_path, content):
    samples = tmp_path / "samples.json"
    if content is not None:
        samples.write_text(content)
    rc, out, err = run(
        capsys, "verify-atlas", "4", "5", "6", "7", "--samples", str(samples)
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "content, message",
    [
        (
            '{"1": [{"c1": "1", "c2": "3"}], "01": [{"c1": "2", "c2": "5"}]}',
            "malformed samples file: row 1 is named twice",
        ),
        (
            '{"1": [{"c1": "1", "c2": "3"}], "1": [{"c1": "2", "c2": "5"}]}',
            "malformed samples file: row 1 is named twice",
        ),
        (
            '{"1": [{"c1": "1", "c2": "3", "c1": "2"}]}',
            "malformed samples file: row 1: a parameter is named twice in one sample",
        ),
        ('{"1": {"c1": "1"}}', "malformed samples file: row 1: the samples must be a JSON list of objects"),
        ('{"1": [["c1"]]}', "malformed samples file: row 1: the samples must be a JSON list of objects"),
        ('{"a": []}', "malformed samples file: row id 'a' is not an integer"),
        (
            '{"1": [{"c1": "1/0", "c2": "1"}]}',
            "malformed samples file: row 1: parameter 'c1' must be an integer or a string p/q, q nonzero",
        ),
    ],
    ids=["row-as-01", "repeated-row", "repeated-parameter", "object-of-samples", "list-sample",
         "non-integer-row", "zero-denominator"],
)
def test_verify_atlas_samples_file_says_what_it_must_hold(capsys, tmp_path, content, message):
    """A row or parameter named twice is rejected, not read as its last
    value, and a misshapen file gets a message about the file, not
    Python's."""
    samples = tmp_path / "samples.json"
    samples.write_text(content)
    rc, out, err = run(capsys, "verify-atlas", "4", "5", "6", "7", "--samples", str(samples))
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("project", "4", "5", "6", "7", "--form", "1/0*dx1^dx2"),
        ("project", "4", "5", "6", "7", "--form", "(1/0)*dx1^dx2"),
        ("pullback", "4", "5", "6", "7", "--map", "(1/0*x1,x2,x3,x4)", "--restriction", "a9"),
        ("invariants", "4", "5", "6", "7", "--restriction", "1/0*a9"),
        ("tangent", "4", "5", "6", "7", "--restriction", "2/0*a9"),
        ("moser", "4", "5", "6", "7", "--restriction", "a9 + 0/0*a10", "--kill", "a9"),
    ],
    ids=["form", "form-parenthesized", "map", "invariants", "tangent", "moser"],
)
def test_zero_denominators_exit_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: zero denominator at position ") and "Traceback" not in err


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_pipe_closed_early_exits_1_without_a_traceback(fmt):
    # the reader is gone before the command writes a byte, as with `| head`
    # exiting early, so every write to stdout meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "algrest.cli", "basis", *"5 6 7 8 9".split(), "--format", fmt],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            check=False,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 1


WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
PIN = re.compile(r"algrest (.*) \| sha1sum \| grep -q ([0-9a-f]{40})")


def console_script_pins():
    """(argv, sha1) of every ``algrest ... | sha1sum | grep -q <hex>`` line
    of the workflow's Console-script step, the one home of those pins; a
    ``sha1sum`` line of another form must be one of the two that hash a
    file (``sha1sum < "$row5.out"``), which stay in the workflow alone."""
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index("      - name: Console script")
    pins = []
    for line in itertools.takewhile(
        lambda text: not text.strip() or text.startswith("        "), lines[start + 1 :]
    ):
        command = line.strip()
        if "sha1sum" not in command:
            continue
        match = PIN.fullmatch(command)
        if match is None:
            assert command.startswith('sha1sum < "$row5.out"'), command
            continue
        pins.append((shlex.split(match[1]), match[2]))
    return pins


CONSOLE_SCRIPT_PINS = console_script_pins()


@pytest.mark.parametrize(
    "argv, digest",
    CONSOLE_SCRIPT_PINS,
    ids=[" ".join(argv)[:60] for argv, _ in CONSOLE_SCRIPT_PINS],
)
def test_console_script_output_has_its_ci_digest(capsys, monkeypatch, argv, digest):
    """Each piped sha1 pin of the workflow, run in process: the bytes the
    command prints hash to the pinned digest.  A ``--help`` exits 0 after
    printing; argparse wraps it to the 80 columns of a terminal-less run."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        assert main(argv) == 0
    except SystemExit as exc:
        assert "--help" in argv and exc.code == 0
    assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == digest
