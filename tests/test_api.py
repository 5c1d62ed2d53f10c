"""The package API: what ``import mzvparity`` exposes and loads."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import mzvparity
from mzvparity import oracles
from mzvparity.hurwitz import eval_shifted
from mzvparity.render import latex_reduction

ORACLES = {
    "eval_hurwitz_taylor",
    "monotangent_symmetric_oracle",
    "multitangent_regularized_series",
    "mzv_em_oracle",
    "mzv_truncation_oracle",
    "tau_series",
}


def _modules():
    return [
        importlib.import_module(f"mzvparity.{info.name}")
        for info in pkgutil.iter_modules(mzvparity.__path__)
    ]


def test_import_does_not_load_the_oracles():
    src = os.path.dirname(os.path.dirname(mzvparity.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import mzvparity, sys; print('mzvparity.oracles' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_top_level_names():
    names = mzvparity.__all__
    assert len(names) == len(set(names)) == 53
    for name in names:
        getattr(mzvparity, name)
    assert not ORACLES & set(names)
    assert not ORACLES & set(vars(mzvparity))


def test_every_module_name_resolves():
    modules = _modules()
    assert oracles in modules
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (mod.__name__, name)
        if mod is not oracles:
            assert not ORACLES & set(vars(mod)), mod.__name__
    assert len(oracles.__all__) == 6 and set(oracles.__all__) == ORACLES


def test_removed_parameters():
    assert "dps" not in inspect.signature(eval_shifted).parameters
    assert "expanded" not in inspect.signature(latex_reduction).parameters
