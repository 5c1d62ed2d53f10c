"""CLI contract: exit codes, output formats, JSON round-trip."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

import mzvparity
from mzvparity import (
    IDENTITIES,
    PrecisionContext,
    ResidualReport,
    compositions_up_to,
    eval_admissible_mzv,
    is_admissible,
)
from mzvparity import verify
from mzvparity.cli import _parse_composition, main


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
    ("1,2", "text"): "dcd58ae7efd5b42fb5c0716e269f18434f105b75c0e9d4225d137c0b7939030d",
    ("1,2", "latex"): "74b3cbd1f275ffc242d742939b007cb0cad68d4fa8e4f0cb1c59463bb619f74f",
    ("1,2", "json"): "43688258a22eda711e304464a1eec9d762c0ec341ffec72fc62b184f317d72f4",
    ("2,1,1,1", "text"): "1e7f53b1972308c841e4c41f78109a1613b41cad8fd2e24cd9994def60a0bbc7",
    ("2,1,1,1", "latex"): "9453021c8f6418c77f8c2f9d74171be595a51a04ebd60be0fd69a88b0e84092d",
    ("2,1,1,1", "json"): "52becf3cec20d05870a6af001a15fe785a99af75ac963f21fa77067129b5f37d",
    ("1,1,1,1,2", "text"): "aa976e95c27a8bc234001d246f2022e2999078c30a9b2aa7f776e5f54143e876",
    ("1,1,1,1,2", "latex"): "17fb124ea92a34345f30c0f936a3981e0a91890a1ee7ee9e47ac946de3799bc7",
    ("1,1,1,1,2", "json"): "fe7f73ec824d5ec63a6c80941c8956259f49d12c067e1fdc1bd2a1ebcc3804f6",
    ("3,1,2", "text"): "1de2036c0af4831a4987df9b40c652deb44514a636ffabcf8723cea0b7797a78",
    ("3,1,2", "latex"): "e3f90c62a20467db6f9b025280cfb7b1cbaf1f7df63be671215c5f5c84ef1b0c",
    ("3,1,2", "json"): "df517564b26810e2a97222e2cb212190fa3fd042b4bebc763c93d59ef59524b6",
    ("2,3,1,1,1", "text"): "0f44e95e841fc81639dd18cd9e5181fb5cf0f85639b48f8f2300cb88f26b07aa",
    ("2,3,1,1,1", "latex"): "786a89aeebd0efae97593cae08a96512c94164870c8b468581054c9a1a2c0035",
    ("2,3,1,1,1", "json"): "60c806640aa4d742bedcc1ff2b01725d6b728440899aa57447a137ce856314ea",
    ("1,1,1,2", "text"): "36c73beed9fa524916932b626add5a75d419537580f473a2caf2d7128fbe3252",
    ("1,1,1,2", "latex"): "72f45eea143c3d62ed4a2477dbd6b9d65c42883406e9b4ef2ab0c346be629676",
    ("1,1,1,2", "json"): "874af8decf74bf9a075cbffe899abdfd572379082413ff5a7201dc7fff67f11e",
}

# sha256 of the stdout of `table --max-weight 8 --format <format> --digits 30`
_PINNED_TABLE = {
    "json": "6a50fe14c0f7defdd62ce1c7af6c57cef6258728d3edd1e8401504fe2cedd8a6",
    "latex": "bec3924a4ecbbd0161fbefd42d4e618900699c089eeaa550e2f50427637f358d",
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


def test_closed_stdout_ends_quietly():
    """A reader that closes the pipe after the first line (``| head -1``)
    gets no traceback: the command keeps its exit status and writes nothing
    to stderr.  The 230 kB of output overfill the pipe, so a write meets
    the closed end."""
    env = {**os.environ, "PYTHONPATH": str(Path(mzvparity.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "mzvparity.cli", "table", "--max-weight", "8"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert err == b""


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


def test_eval_hurwitz_admissible_ignores_T(capsys):
    # an admissible index takes the direct route whatever --T says, also
    # outside |z| <= 1/2; only a divergent one needs --T and the star route
    for z in ("2", "0.3"):
        assert main(["eval", "hurwitz", "2,3", "--z", z]) == 0
        plain = capsys.readouterr().out
        assert main(["eval", "hurwitz", "2,3", "--z", z, "--T", "1"]) == 0
        assert capsys.readouterr().out == plain, z
    assert main(["eval", "hurwitz", "2,1", "--z", "0.3"]) == 2
    assert "--T" in capsys.readouterr().err
    assert main(["eval", "hurwitz", "2,1", "--z", "0.3", "--T", "1"]) == 0
    capsys.readouterr()


def test_eval_multitangent_asks_for_T_where_its_reduction_carries_T(capsys):
    # (1, 2, 1, 2) is asked too: its T-terms cancel only through MZV relations
    for index in ("2,1", "1,2", "1,2,1,2"):
        assert main(["eval", "multitangent", index, "--z", "0.3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "supply a regularization value with --T" in err, index
    # (1,) is pi cot(pi z), and (2, 2) converges
    for index in ("1", "1,1,1", "2,2"):
        assert main(["eval", "multitangent", index, "--z", "0.3"]) == 0, index
        capsys.readouterr()


def test_eval_multitangent_without_T_only_where_T_drops_out(capsys):
    def value(out):  # "(a - bj)  (error bound e)" or "a  (error bound e)"
        return complex(out.split("  (error bound")[0].replace(" ", ""))

    for c in compositions_up_to(4):
        argv = ["eval", "multitangent", ",".join(map(str, c)), "--z", "0.25,0.2", "--digits", "15"]
        if main(argv) == 2:
            assert "--T" in capsys.readouterr().err, c
            continue
        free = value(capsys.readouterr().out)
        assert main(argv + ["--T", "1"]) == 0
        at_one = value(capsys.readouterr().out)
        assert abs(free - at_one) <= 1e-12 * (1 + abs(free)), c


@pytest.mark.parametrize("argv", [
    ["eval", "hurwitz", "2,1", "--z", "0.7", "--T", "0"],
    ["eval", "multitangent", "2,2", "--z", "0.7"],
], ids=["hurwitz", "multitangent"])
def test_z_outside_the_radius_exits_two(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "|z| <= 1/2" in err


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


def test_table_weight_cap(capsys, monkeypatch):
    # a low cap, so that a table without the guard ends at once
    monkeypatch.setattr(verify, "WEIGHT_CAP", 3)
    with pytest.raises(ValueError) as refused:
        verify.sweep(4, "main", PrecisionContext(digits=15))
    assert main(["table", "--max-weight", "4", "--format", "json"]) == 2
    assert capsys.readouterr() == ("", f"error: {refused.value}\n")


@pytest.mark.parametrize("argv", [
    ["verify", "main2", "--max-weight", "3", "--T", "nan"],
    ["eval", "monotangent", "2", "--z", "nan"],
    ["eval", "hurwitz", "2,3", "--z", "inf"],
    ["reduce", "1,2", "--T", "inf"],
], ids=["verify-T-nan", "monotangent-z-nan", "hurwitz-z-inf", "reduce-T-inf"])
def test_non_finite_z_or_T_exits_two(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and repr(argv[-1]) in err


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


@pytest.mark.parametrize("argv", [
    ["reduce", "1,,2"],
    ["reduce", ",2"],
    ["verify", "main", "--k", "2,,3"],
    ["verify", "main", "--k", "2,3,"],
])
def test_empty_composition_part_is_refused(capsys, argv):
    assert main(argv) == 2
    assert "invalid composition" in capsys.readouterr().err


def test_blank_composition_is_the_empty_index():
    assert _parse_composition("") == _parse_composition(" , ") == ()


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
            if row["status"] == "skip":
                assert row["stages"] is None, (identity, row)
                continue
            stages = row["stages"]
            assert set(stages) == {"build", "evaluate"}, (identity, row)
            assert min(stages.values()) >= 0
            assert sum(stages.values()) <= row["wall_time"]
        assert any(row["stages"] for row in rows), identity
