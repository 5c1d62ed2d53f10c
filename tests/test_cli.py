"""CLI contract: exit codes, output formats, JSON round-trip."""

import hashlib
import json
import math

import pytest
from mpmath import mp

from mzvparity import (
    IDENTITIES,
    PrecisionContext,
    ResidualReport,
    eval_admissible_mzv,
    is_admissible,
)
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


@pytest.mark.parametrize("extra", [[], ["--allow-nonadmissible"]])
def test_reduce_empty_index_exits_two(capsys, extra):
    assert main(["reduce", ",", *extra]) == 2
    assert "empty composition" in capsys.readouterr().err


# sha256 of the stdout of `reduce <index> --format <format> --digits 30`;
# an admissible index prints the same bytes with and without
# `--allow-nonadmissible --T 1`, a non-admissible one is run with them only
_PINNED_REDUCE = {
    ("1,2", "text"): "8d6c109729a8b3f13bf7882085e937137f5ecd5afb52f36814aac7f45a24855a",
    ("1,2", "latex"): "a1aa562d34a1220aa3a607c74bd095c63cd4fd98c2b92473a9b80544498f538d",
    ("1,2", "json"): "84f003bd904d7ce72f617ffe79f5599fd21f13968b433ce8cc253dfcf46aea90",
    ("2,1,1,1", "text"): "7a1131434971f22fcfecb77300b31dc48225bc52c70cda56b59810d123caa756",
    ("2,1,1,1", "latex"): "663d5ea1021a114c4a8d9abc732129039abce01af7881c1bc53e09a78c11f45f",
    ("2,1,1,1", "json"): "a9e40d3d23f297d6b9541e970a80105a79953156ff66b5a5e8cac312059d2afa",
    ("1,1,1,1,2", "text"): "c7108edf141776b1c1e3d76498eb0d204b885c3089576e914693ff0d4c3ab658",
    ("1,1,1,1,2", "latex"): "0abeccb8c0abb393518827e239814ae0e6825314b88bf416bdb2c454215b8962",
    ("1,1,1,1,2", "json"): "674460326b5c3d76e90c34483acd67864f1590b39701605cb2081fae383f7d85",
    ("3,1,2", "text"): "b06093f3744b9ed7e6fa3d95cd42daf92c01fe3d3c32fdbb8c4b9208f63cd665",
    ("3,1,2", "latex"): "dfbfeefbea29446ffe78cfd6e28faaf9e31e1c9e0036aae341b5857893413898",
    ("3,1,2", "json"): "2b2d401c477a73a89edcca552a8e6e01b8bde79f8b88da3d2924a4c708676229",
    ("2,3,1,1,1", "text"): "e028a4416f904ce41af06887fa97676e2e451fde1b2b5a02f172c2c4ab85d1d1",
    ("2,3,1,1,1", "latex"): "6af11900f5e9296a270872ec088fddaaf6b4dc0532d5ad9b79febb3ee2aa950c",
    ("2,3,1,1,1", "json"): "a730ce864f169823a87e58eff35e149f353c0355bf3fb77213bf133be1388b69",
    ("1,1,1,2", "text"): "b72a0c0c33f25e2c62215c4aecd7f9d31d41c9ebd3bd219f2eca36dbd453ad7c",
    ("1,1,1,2", "latex"): "9631e7fbe1150adcff2b605bf9c29ba8cf3aee6472855ef7b40387978ed01373",
    ("1,1,1,2", "json"): "7e13fd8cb6049b11bd9a7b6303b66bbadd2c41794dce14e2e994e46bbda221a2",
}

# sha256 of the stdout of `table --max-weight 8 --format <format> --digits 30`
_PINNED_TABLE = {
    "json": "5d67711559a2ce1ee535e98ac36750ad29a1eec530d03b59b21c7db8fdc60b80",
    "latex": "a7140805ce1a321cac6dc7f7137c377721281f9b7a3389012d24d57b9986a3eb",
}


def _stdout_sha256(capsys, argv) -> str:
    assert main([*argv, "--digits", "30"]) == 0, argv
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("index, fmt", sorted(_PINNED_REDUCE))
def test_reduce_output_pinned(capsys, index, fmt):
    argv = ["reduce", index, "--format", fmt]
    modes = [["--allow-nonadmissible", "--T", "1"]]
    if is_admissible(tuple(int(k) for k in index.split(","))):
        modes.append([])
    for extra in modes:
        assert _stdout_sha256(capsys, argv + extra) == _PINNED_REDUCE[index, fmt], extra


@pytest.mark.parametrize("fmt", sorted(_PINNED_TABLE))
def test_table_output_pinned(capsys, fmt):
    argv = ["table", "--max-weight", "8", "--format", fmt]
    assert _stdout_sha256(capsys, argv) == _PINNED_TABLE[fmt]


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
