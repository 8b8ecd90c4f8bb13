import json
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


def test_action_table_text(capsys):
    rc, out, _ = run(capsys, "action-table", "4", "5", "6")
    assert rc == 0
    assert "shifts outside the semigroup: 7" in out
    assert "  L[X_4] a9 = 13*a13" in out


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


def test_moser_unknown_label(capsys):
    rc, _, err = run(
        capsys, "moser", "4", "5", "6", "7", "--restriction", "a9", "--kill", "a99"
    )
    assert rc == 2
    assert err.startswith("error:")


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


def test_verify_atlas_failure_exit_code(capsys, monkeypatch):
    import algrest.cli as cli_module

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
    monkeypatch.setattr(cli_module, "verify_atlas", lambda *a, **k: failing)
    rc, out, _ = run(capsys, "verify-atlas", "4", "5", "6", "7")
    assert rc == 1
    assert "row 1: FAIL" in out
    assert "at [c1=1]: mu = 3, table says 2" in out
    assert out.strip().endswith("verification FAILED")


def test_verify_atlas_unknown_semigroup(capsys):
    rc, _, err = run(capsys, "verify-atlas", "3", "5", "7")
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "content",
    [None, "{bad", "[1, 2]", '{"x": [{"c1": "1"}]}', '{"1": [{"c1": "abc"}]}'],
    ids=["missing", "bad-json", "top-level-list", "non-integer-row", "bad-value"],
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
