"""The package API: what ``import mzvparity`` exposes and loads."""

import dataclasses
import functools
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from mpmath import mp

import mzvparity
from mzvparity.hurwitz import eval_shifted
from mzvparity.render import latex_reduction

import oracles

ORACLES = {
    "eval_hurwitz_taylor",
    "monotangent_symmetric_oracle",
    "multitangent_regularized_series",
    "mzv_em_oracle",
    "mzv_truncation_oracle",
    "tau_series",
    "triple_terms_by_suffix",
}


def _modules():
    return [
        importlib.import_module(f"mzvparity.{info.name}")
        for info in pkgutil.iter_modules(mzvparity.__path__)
    ]


def test_the_oracles_are_outside_the_package():
    # the cross-check routes live with the tests; the package has no module for them
    assert importlib.util.find_spec("mzvparity.oracles") is None
    assert os.path.dirname(oracles.__file__) == os.path.dirname(__file__)


def test_top_level_names():
    names = mzvparity.__all__
    assert len(names) == len(set(names)) == 54
    for name in names:
        getattr(mzvparity, name)
    assert not ORACLES & set(names)
    assert not ORACLES & set(vars(mzvparity))


def test_every_module_name_resolves():
    for mod in _modules():
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (mod.__name__, name)
        assert not ORACLES & set(vars(mod)), mod.__name__
    assert len(oracles.__all__) == 7 and set(oracles.__all__) == ORACLES


# the modules that hold caches and how many, in the order of ``cache_info``
CACHED = {"harmonic": 1, "special": 1, "regularization": 1, "reduction": 3, "mzv": 6, "hurwitz": 11, "multitangent": 1}


def test_every_cache_is_listed_bounded_and_cleared(ctx30):
    modules = {short: importlib.import_module(f"mzvparity.{short}") for short in CACHED}
    kinds = (type(functools.lru_cache(maxsize=1)(int)), modules["mzv"]._BoundedCache)
    found = {
        id(obj): obj for module in modules.values() for obj in vars(module).values()
        if isinstance(obj, kinds)
    }
    mzvparity.verify_main2((2, 1, 1), ctx=ctx30)
    mzvparity.verify_bouillot((1, 2), ctx=ctx30, z=mp.mpf("0.3"))
    info = mzvparity.cache_info()
    listed = {id(getattr(modules[mod], name)) for mod, name in (n.split(".") for n in info)}
    assert listed == set(found) and len(info) == len(found) == 24
    assert list(Counter(n.split(".")[0] for n in info).items()) == list(CACHED.items())
    assert all(isinstance(cap, int) and 0 < size <= cap for size, cap in info.values())
    mzvparity.clear_caches()
    assert all(cached.cache_info().currsize == 0 for cached in found.values())
    assert all(size == 0 for size, _ in mzvparity.cache_info().values())


# run in a fresh interpreter, so that no earlier test has filled a table:
# the module-level lists, dicts and sets of the package that grow
_GROWN = """
import importlib, json, pkgutil
from mpmath import mp
import mzvparity
modules = [importlib.import_module(f"mzvparity.{m.name}") for m in pkgutil.iter_modules(mzvparity.__path__)]
tables = {
    f"{m.__name__}.{name}": obj for m in modules for name, obj in vars(m).items()
    if not name.startswith("__") and isinstance(obj, (list, dict, set))
}
before = {name: len(obj) for name, obj in tables.items()}
ctx = mzvparity.PrecisionContext(digits=30)
mzvparity.verify_bouillot((1, 2), mp.mpf("0.3"), ctx)
mzvparity.verify_main2((2, 1, 1), ctx)
registered = {id(cached) for cached in mzvparity._caches().values()}
grown = [name for name, obj in tables.items() if len(obj) != before[name] and id(obj) not in registered]
print(json.dumps(sorted(grown)))
"""


def test_only_registered_caches_grow():
    env = {**os.environ, "PYTHONPATH": str(Path(mzvparity.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", _GROWN], capture_output=True, env=env, check=True, timeout=300
    )
    assert json.loads(out.stdout) == []


def test_readme_counts_the_caches():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        counts = re.findall(r"empties all (\d+) caches", f.read())
    assert counts and all(int(n) == len(mzvparity.cache_info()) for n in counts)


def test_removed_parameters(ctx30):
    assert "dps" not in inspect.signature(eval_shifted).parameters
    assert "expanded" not in inspect.signature(latex_reduction).parameters
    assert [f.name for f in dataclasses.fields(mzvparity.PrecisionContext)] == ["digits"]
    assert not {"fail_fast", "include_skipped"} & set(inspect.signature(mzvparity.sweep).parameters)
    assert "cutoff" not in inspect.signature(mzvparity.eval_multitangent_direct).parameters
    assert not hasattr(mzvparity, "VerificationFailure")
    # a word only: the T-polynomial input ran an uncached copy of the word evaluator
    with pytest.raises(TypeError):
        mzvparity.eval_hurwitz_star(mzvparity.regularize((2, 1)), 0.3, 0, ctx30)


@pytest.mark.parametrize("field", ["digits"])
@pytest.mark.parametrize("value", [30.5, 30.0, "30", True, None])
def test_precision_context_refuses_a_non_int_precision(field, value):
    # a float would run every evaluator at a fractional dps
    with pytest.raises(ValueError, match=field):
        mzvparity.PrecisionContext(**{field: value})


# every public evaluator that takes a ``dps`` override, as f(ctx, dps)
DPS_EVALUATORS = {
    "eval_admissible_mzv": lambda ctx, dps: mzvparity.eval_admissible_mzv((1, 2), ctx, dps=dps),
    "eval_word_combo": lambda ctx, dps: mzvparity.eval_word_combo(
        mzvparity.WordCombo.word((3,)), ctx, dps=dps),
    "eval_tpoly": lambda ctx, dps: mzvparity.eval_tpoly(mzvparity.regularize((1, 2)), 1, ctx, dps=dps),
    "eval_hurwitz_direct": lambda ctx, dps: mzvparity.eval_hurwitz_direct(
        (1, 2), mp.mpf("0.3"), ctx, dps=dps),
}


@pytest.mark.parametrize("name", sorted(DPS_EVALUATORS))
@pytest.mark.parametrize("dps", [20.5, 30.0, True, 0, -5, "30"])
def test_evaluators_refuse_a_dps_that_is_not_a_positive_int(ctx30, name, dps):
    # a float would key the caches by a fractional dps, and a bool or a
    # negative int would give a meaningless bound
    with pytest.raises(ValueError, match="dps"):
        DPS_EVALUATORS[name](ctx30, dps)
