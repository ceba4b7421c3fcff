import io
import json
import subprocess
import sys
from fractions import Fraction as F

import mpmath
import pytest

from tamezeta.cli import EXIT_INVALID, EXIT_NUMERIC, EXIT_OK, build_parser, canonical_dumps, descriptor_from_args, main
from tamezeta.catalog import catalog_descriptor
from tamezeta.tame import (
    BarnesDescriptor,
    BuiltinDescriptor,
    CharacterDescriptor,
    EhrhartDescriptor,
    LerchDescriptor,
    RationalDescriptor,
)


def _run(argv):
    """Run the CLI in-process, capturing stdout."""
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_analyze_hurwitz():
    code, out = _run(["analyze", "--catalog", "hurwitz", "--t0", "1", "--values", "4"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["nu"] == 1
    assert doc["poles"] == [[1, "1"]]
    assert doc["values"][:2] == ["-1/2", "-1/12"]
    assert doc["genericity"] == "generic"


def test_analyze_barnes_removable():
    code, out = _run(["analyze", "--catalog", "barnes", "--a", "1,1", "--t0", "1", "--values", "2"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["poles"] == [[2, "1"]]
    assert doc["removable"][0][0] == 1


def test_analyze_eta():
    code, out = _run(["analyze", "--catalog", "eta", "--t0", "1", "--values", "2"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["poles"] == [] and doc["values"][0] == "1/2"


def test_json_round_trip_is_byte_identical():
    code, out = _run(["analyze", "--catalog", "barnes", "--t0", "1/2", "--values", "3"])
    assert code == EXIT_OK
    text = out.strip()
    assert canonical_dumps(json.loads(text)) == text


def test_eval_hurwitz_negative_one():
    code, out = _run(["eval", "--catalog", "hurwitz", "--s", "-1", "--t0", "1"])
    assert code == EXIT_OK
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["value_re"].startswith("-0.0833333333333333333")


def test_eval_dirichlet_l4():
    code, out = _run(
        ["eval", "--catalog", "dirichletL", "--modulus", "4", "--chi", "1,0,-1,0", "--s", "0", "--t0", "1"]
    )
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["value_re"] == "0.5"


def test_eval_lerch_matches_bernoulli_oracle():
    # B[1;1] for the w=1/2 factor, from the exponential generating data
    from fractions import Fraction as F

    from tamezeta.bernoulli import bernoulli_poly, todd_series
    from tamezeta.catalog import catalog_descriptor
    from tamezeta.tame import laurent_at_one

    laur = laurent_at_one(catalog_descriptor("lerch"), 4)
    expected = bernoulli_poly(todd_series(laur, 2), 1)(F(1))
    code, out = _run(["eval", "--catalog", "lerch", "--w", "1/2", "--s", "-1", "--t0", "1"])
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert float(row["value_re"]) == float(expected) == 4.0


def test_eval_csv_columns():
    code, out = _run(["--format", "csv", "eval", "--catalog", "eta", "--s", "2", "--t0", "1"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "s_re,s_im,value_re,value_im,method,tail_bound,bound_kind,flags"
    assert len(lines) == 2


def test_eval_compare_mode():
    code, out = _run(["eval", "--catalog", "eta", "--s", "2", "--t0", "1", "--method", "compare"])
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert "hasse_re" in row and "oracle_re" in row and "direct_re" in row
    assert float(row["max_pairwise_deviation"]) < 1e-20


def test_eval_csv_rows_match_json_rows():
    # both formats carry the same rows: a near-pole row, rows whose bound is
    # certified (hasse and incgamma), and compare rows where one method does
    # not apply (direct at s = -1)
    single = "s_re,s_im,value_re,value_im,method,tail_bound,bound_kind,flags"
    cases = (
        (["eval", "--catalog", "hurwitz", "--s", "1;2", "--t0", "1"], single, "1.0,0.0,,,hasse,,,near-pole"),
        (["eval", "--catalog", "eta", "--s", "2", "--t0", "1", "--method", "incgamma"], single, None),
        (["eval", "--catalog", "eta", "--s", "2;-1.5", "--t0", "1", "--method", "hasse"], single, None),
        (
            ["eval", "--catalog", "eta", "--s", "2;-1", "--t0", "1", "--method", "compare"],
            "s_re,s_im,hasse_re,hasse_im,oracle_re,oracle_im,direct_re,direct_im,"
            "incgamma_re,incgamma_im,max_pairwise_deviation",
            "-1.0,0.0,0.25,0.0,0.25,0.0,,,0.25,0.0,0.0",
        ),
    )
    for flags, header, known_row in cases:
        code, csv_out = _run(["--format", "csv"] + flags)
        assert code == EXIT_OK
        code, json_out = _run(flags)
        assert code == EXIT_OK
        lines = csv_out.strip().splitlines()
        rows = json.loads(json_out)["rows"]
        assert lines[0] == header
        assert known_row is None or known_row in lines
        assert len(lines) == len(rows) + 1
        for line, row in zip(lines[1:], rows):
            assert line == ",".join(row.get(col, "") for col in header.split(","))
            if "method" in row and row["tail_bound"]:
                assert row["bound_kind"] == "certified", row


def test_eval_polynomial_alpha_compare_mode():
    # alpha = 1 + 2z: D(3, 1) = 1 + 2/8 by every method that applies
    code, out = _run(["eval", "--num", "1,2", "--den", "1", "--s", "3", "--t0", "1", "--method", "compare"])
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    for method in ("hasse", "oracle", "direct", "incgamma"):
        assert abs(float(row[method + "_re"]) - 1.25) < 1e-15, method
    assert float(row["max_pairwise_deviation"]) < 1e-20


def test_eval_irrational_poles_compare_mode():
    # alpha = 1/((1-z)(3-z^2)), poles at +-sqrt(3): the operator route carries
    # mpc partial fractions and agrees with the direct sum
    code, out = _run(["eval", "--num", "1", "--den", "3,-3,-1,1", "--s", "3", "--method", "compare"])
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert "hasse_re" in row and "direct_re" in row
    assert abs(float(row["hasse_re"]) - float(row["direct_re"])) < 1e-15
    assert float(row["max_pairwise_deviation"]) < 1e-20


def test_root_finder_failure_exit_two(monkeypatch, capsys):
    import mpmath
    from mpmath import mp

    from tamezeta import tame

    def fail(*args, **kwargs):
        raise mp.NoConvergence("Didn't converge in maxsteps=200 steps.")

    tame._singularities.cache_clear()
    monkeypatch.setattr(mpmath, "polyroots", fail)
    code, _ = _run(["analyze", "--num", "1", "--den", "5,-2,0,1", "--t0", "1"])
    assert code == EXIT_INVALID
    assert "cannot locate the singularities" in capsys.readouterr().err


def test_near_pole_row_flagged_exit_zero():
    code, out = _run(["eval", "--catalog", "hurwitz", "--s", "1", "--t0", "1"])
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["flags"] == "near-pole"
    assert row["residue"] == "1"


def test_removable_candidate_row_exit_zero():
    # barnes at t0 = 1: s = 1 is removable, and the operator route cannot divide there
    code, out = _run(["eval", "--catalog", "barnes", "--s", "1", "--t0", "1"])
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["flags"] == "near-pole"
    assert row["residue"] == "0"


def test_not_tame_exit_two():
    code, _ = _run(["analyze", "--num", "1", "--den", "1,-2", "--t0", "1"])
    assert code == EXIT_INVALID


def test_missing_descriptor_exit_two():
    code, _ = _run(["analyze", "--t0", "1"])
    assert code == EXIT_INVALID


def test_numeric_failure_exit_three():
    code, _ = _run(
        ["--max-terms", "2", "eval", "--catalog", "hurwitz", "--s", "1.3", "--t0", "1", "--method", "direct"]
    )
    assert code == EXIT_NUMERIC


def test_compare_needs_two_methods():
    # zeta-even at s=0: no oracle (not rational), no direct (outside the
    # region), no incgamma (nu = 1): only the operator route applies
    code, _ = _run(["eval", "--catalog", "zeta-even", "--s", "0", "--t0", "1", "--method", "compare"])
    assert code == EXIT_INVALID


def test_complex_character_rejected():
    with pytest.raises(ValueError):
        CharacterDescriptor(4, (1, 1j, -1, -1j))


def test_selftest_none_passes():
    code, out = _run(["selftest", "--catalog", "none"])
    assert code == EXIT_OK
    assert "skipped" in out


def test_desc_file(tmp_path):
    cfg = tmp_path / "desc.cfg"
    cfg.write_text("[descriptor]\nkind = rational\nnum = 1\nden = 1 -1\n")
    code, out = _run(["analyze", "--desc-file", str(cfg), "--t0", "1", "--values", "2"])
    assert code == EXIT_OK
    assert json.loads(out)["nu"] == 1
    cfg2 = tmp_path / "cat.cfg"
    cfg2.write_text("[descriptor]\nkind = catalog\nname = barnes\na = 1,1\n")
    code, out = _run(["analyze", "--desc-file", str(cfg2), "--t0", "1/2", "--values", "1"])
    assert code == EXIT_OK
    assert json.loads(out)["nu"] == 2


def test_desc_file_catalog_parameters_match_the_flags(tmp_path):
    cases = (
        (
            "dirichletL",
            {"modulus": "5", "chi": "1,-1,-1,1,0", "power": "2"},
            CharacterDescriptor(5, (1, -1, -1, 1, 0), 2),
        ),
        ("lerch", {"w": "1/3"}, LerchDescriptor(F(1, 3))),
        ("ehrhart", {"g": "1,4,1", "p": "2", "d": "3"}, EhrhartDescriptor((1, 4, 1), 2, 3)),
    )
    for name, params, want in cases:
        flags = ["analyze", "--catalog", name]
        lines = ["[descriptor]", "kind = catalog", "name = " + name]
        for key, text in params.items():
            flags += ["--" + key, text]
            lines.append("%s = %s" % (key, text))
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text("\n".join(lines) + "\n")
        from_flags = descriptor_from_args(build_parser().parse_args(flags))
        from_file = descriptor_from_args(build_parser().parse_args(["analyze", "--desc-file", str(cfg)]))
        assert from_flags == want, name
        # the parameters reach the descriptor instead of the catalog defaults
        assert from_flags != catalog_descriptor(name), name
        assert from_file == from_flags, name


@pytest.mark.parametrize(
    "body, want",
    [
        ("kind = rational\nnum = 1 2\nden = 1, -1/2", RationalDescriptor((1, 2), (1, F(-1, 2)))),
        ("kind = character\nmodulus = 4\nchi = 1,0,-1,0\npower = 2", CharacterDescriptor(4, (1, 0, -1, 0), 2)),
        ("kind = lerch\nw = 1/3", LerchDescriptor(F(1, 3))),
        ("kind = lerch\nw = 0.5+0.25i", LerchDescriptor(mpmath.mpc(0.5, 0.25))),
        ("kind = barnes\na = 1 2", BarnesDescriptor((1, 2))),
        ("kind = ehrhart\ng = 1,4,1\np = 2\nd = 3", EhrhartDescriptor((1, 4, 1), 2, 3)),
        ("kind = builtin\nname = central-binomial", BuiltinDescriptor("central-binomial")),
        (None, "cannot read"),
        ("[other]\nkind = rational", "needs a \\[descriptor\\] section"),
        ("kind = hypergeometric", "unknown descriptor kind"),
    ],
)
def test_desc_file_kinds_and_errors(tmp_path, body, want):
    cfg = tmp_path / "desc.cfg"
    if body is not None:
        cfg.write_text(body if body.startswith("[") else "[descriptor]\n" + body + "\n")
    args = build_parser().parse_args(["analyze", "--desc-file", str(cfg)])
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            descriptor_from_args(args)
    else:
        assert descriptor_from_args(args) == want


def test_output_file(tmp_path):
    target = tmp_path / "report.json"
    code, out = _run(["--output", str(target), "analyze", "--catalog", "eta", "--t0", "1"])
    assert code == EXIT_OK
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["nu"] == 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tamezeta.cli", "analyze", "--catalog", "eta", "--t0", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["nu"] == 0
