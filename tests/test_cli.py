"""CLI contract: exit codes, output formats, JSON round-trip."""

import json
import math

import pytest
from mpmath import mp

from mzvparity import IDENTITIES, PrecisionContext, ResidualReport, eval_admissible_mzv
from mzvparity.cli import main


def test_reduce_exit_zero_and_value(capsys):
    assert main(["reduce", "1,2", "--digits", "20"]) == 0
    out = capsys.readouterr().out
    assert "1.2020569031595942854" in out
    assert "zeta(3)" in out


def test_reduce_parity_violation_exits_two(capsys):
    assert main(["reduce", "1,1,1"]) == 2
    err = capsys.readouterr().err
    assert "parity" in err


def test_reduce_admissibility_violation_exits_two(capsys):
    assert main(["reduce", "2,1"]) == 2
    assert "admissible" in capsys.readouterr().err


def test_reduce_nonadmissible_allowed(capsys):
    assert main(["reduce", "2,1", "--allow-nonadmissible", "--digits", "15"]) == 0
    assert "T" in capsys.readouterr().out


def test_reduce_bad_composition_exits_two(capsys):
    assert main(["reduce", "1,x"]) == 2
    assert main(["reduce", "0,2"]) == 2
    capsys.readouterr()


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_eval_mzv(capsys):
    assert main(["eval", "mzv", "3", "--digits", "20"]) == 0
    assert "1.2020569031595942854" in capsys.readouterr().out


def test_eval_divergent_requires_T(capsys):
    assert main(["eval", "mzv", "5,3,1"]) == 2
    assert "--T" in capsys.readouterr().err
    assert main(["eval", "mzv", "5,3,1", "--T", "0", "--digits", "15"]) == 0
    capsys.readouterr()


def test_eval_monotangent_pi_squared(capsys):
    assert main(["eval", "monotangent", "2", "--z", "0.5,0", "--digits", "20"]) == 0
    out = capsys.readouterr().out
    with mp.workdps(30):
        assert mp.nstr(mp.pi**2, 20) in out


def test_eval_missing_z_exits_two(capsys):
    assert main(["eval", "monotangent", "2"]) == 2
    capsys.readouterr()


def test_verify_single_pass(capsys):
    assert main(["verify", "main", "--k", "1,2", "--digits", "20"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "0 failed" in out


def test_verify_skip_exits_zero(capsys):
    assert main(["verify", "main", "--k", "2,2"]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out


def test_verify_sweep_all_pass(capsys):
    assert main(["verify", "fundeq2", "--max-weight", "3", "--digits", "15"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out and "PASS" in out


def test_verify_sweep_weight_cap(capsys):
    assert main(["verify", "main", "--max-weight", "99"]) == 2
    assert "cap" in capsys.readouterr().err


def test_verify_unknown_identity(capsys):
    assert main(["verify", "euler", "--k", "2"]) == 2
    capsys.readouterr()


def test_digits_below_minimum_exits_two(capsys):
    assert main(["eval", "mzv", "2", "--digits", "5"]) == 2
    capsys.readouterr()


def test_verify_needs_target(capsys):
    assert main(["verify", "main"]) == 2
    capsys.readouterr()


def test_eval_value_error_is_usage_error(capsys):
    assert main(["eval", "shifted", "2", "--a", "-1"]) == 2
    assert "shift order" in capsys.readouterr().err
    assert main(["eval", "monotangent", "0", "--z", "0.3"]) == 2
    assert "monotangent order" in capsys.readouterr().err


def test_verify_k_and_max_weight_together_is_refused(capsys):
    assert main(["verify", "main", "--k", "3", "--max-weight", "3"]) == 2
    assert "exactly one of --k and --max-weight" in capsys.readouterr().err


def test_verify_T_list_and_json_fields(capsys):
    assert main(["verify", "main2", "--k", "2,1", "--T", "5", "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["T"] == ["5.0"]
    assert row["z"] is None
    assert isinstance(row["lhs"], str) and isinstance(row["rhs"], str)
    assert row["wall_time"] > 0
    args = ["verify", "bouillot", "--k", "1,2", "--z", "0.3", "--T", "0,1", "--format", "json"]
    assert main(args) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["T"] == ["0.0", "1.0"] and abs(float(row["z"]) - 0.3) < 1e-15
    assert main(["verify", "main", "--k", "2,2", "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["status"] == "skip" and row["T"] is None and row["lhs"] is None


def test_verify_json_margin_digits(capsys):
    args = ["verify", "bouillot", "--k", "1,2", "--z", "0.3", "--format", "json"]
    assert main(args) == 0
    (row,) = json.loads(capsys.readouterr().out)
    residual, bound = float(row["residual"]), float(row["bound"])
    assert residual > 0 and row["margin_digits"] > 10
    assert abs(row["margin_digits"] - math.log10(bound / residual)) < 1e-3
    assert main(["verify", "main", "--k", "2,2", "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["status"] == "skip" and row["margin_digits"] is None


def test_eval_reads_decimal_z_at_working_precision(capsys):
    # At mpmath's global 15 digits, 0.3 would become the nearest double and
    # the printed value would miss pi^2/sin^2(pi z) by ~1e-15.
    for text, z in (("0.3", "0.3"), ("0.3,0.2", "(0.3+0.2j)")):
        assert main(["eval", "monotangent", "2", "--z", text, "--digits", "30"]) == 0
        value, bound = capsys.readouterr().out.split("(error bound")
        with mp.workdps(40):
            exact = mp.pi**2 / mp.sin(mp.mpmathify(z) * mp.pi) ** 2
            printed = mp.mpmathify(value.strip().strip("()").replace(" ", ""))
            # the bound plus one unit in the 30th digit of a value near 10
            tol = mp.mpf(bound.strip(" )\n")) + mp.mpf(10) ** -28
            assert abs(printed - exact) <= tol, text


def test_z_with_more_than_two_parts_is_refused(capsys):
    assert main(["eval", "monotangent", "2", "--z", "0.3,0.2,7"]) == 2
    assert "invalid z" in capsys.readouterr().err
    assert main(["verify", "bouillot", "--k", "1,2", "--z", "0.3,,"]) == 2


def test_verify_bouillot_needs_z(capsys):
    assert main(["verify", "bouillot", "--k", "2"]) == 2
    assert main(["verify", "bouillot", "--max-weight", "2"]) == 2
    assert "evaluation point" in capsys.readouterr().err


def test_verify_failure_exits_one(capsys, monkeypatch):
    def always_fail(c, ctx, *, z=None, T_values=None):
        return ResidualReport(
            identity="main2",
            composition=c,
            digits=ctx.digits,
            residual=mp.mpf(1),
            bound=ctx.residual_bound(),
            status="fail",
        )

    monkeypatch.setitem(IDENTITIES, "main2", always_fail)
    assert main(["verify", "main2", "--k", "2"]) == 1
    capsys.readouterr()


def test_env_default_digits(capsys, monkeypatch):
    monkeypatch.setenv("MZV_DIGITS", "15")
    assert main(["eval", "mzv", "2"]) == 0
    out = capsys.readouterr().out
    assert out.strip().startswith("1.6449340668482")
    monkeypatch.setenv("MZV_DIGITS", "not-a-number")
    assert main(["eval", "mzv", "2"]) == 2
    capsys.readouterr()


def test_table_empty(capsys):
    assert main(["table", "--max-weight", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_table_weight_two_single_entry(capsys):
    assert main(["table", "--max-weight", "2", "--digits", "20"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 1
    assert entries[0]["composition"] == [2]


def test_table_json_round_trip(tmp_path):
    ctx = PrecisionContext(digits=25)
    path = tmp_path / "table.json"
    assert main(["table", "--max-weight", "5", "--digits", "25", "-o", str(path)]) == 0
    entries = json.loads(path.read_text())
    assert entries, "table must not be empty"
    with mp.workdps(40):
        for entry in entries:
            total = mp.mpf(0)
            for term in entry["expanded"]:
                coeff = mp.mpf(int(term["coeff_num"])) / int(term["coeff_den"])
                val = coeff * mp.pi ** term["pi_exp"]
                assert term["T_deg"] == 0
                if term["word"]:
                    val *= eval_admissible_mzv(tuple(term["word"]), ctx).value
                total += val
            stored = mp.mpf(entry["value"])
            assert abs(total - stored) < mp.mpf(10) ** (-(entry["digits"] - 2))


def test_table_latex(capsys):
    assert main(["table", "--max-weight", "3", "--format", "latex", "--digits", "15"]) == 0
    out = capsys.readouterr().out
    assert r"\zeta(1,2)" in out and r"\begin{align*}" in out


def test_reduce_json_format(capsys):
    assert main(["reduce", "2", "--format", "json", "--digits", "20"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["composition"] == [2]
    assert data["expanded"][0]["pi_exp"] == 2
    assert data["expanded"][0]["coeff_num"] == "1"
    assert data["expanded"][0]["coeff_den"] == "6"


def test_verify_json_stage_times(capsys):
    args = ["verify", "{}", "--max-weight", "4", "--z", "0.3", "--format", "json"]
    for identity in ("main", "main2", "main3", "fundeq2", "bouillot"):
        assert main([identity if a == "{}" else a for a in args]) == 0
        rows = json.loads(capsys.readouterr().out)
        for row in rows:
            if identity in ("fundeq2", "bouillot") or row["status"] == "skip":
                assert row["stages"] is None, (identity, row)
                continue
            stages = row["stages"]
            assert set(stages) == {"build", "evaluate"}
            assert min(stages.values()) >= 0
            assert sum(stages.values()) <= row["wall_time"]
        assert any(row["stages"] for row in rows) == (identity in ("main", "main2", "main3"))
