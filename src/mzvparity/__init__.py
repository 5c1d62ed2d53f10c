"""Parity reduction and high-precision verification for multiple zeta values.

Exact symbolic layer: compositions, the stuffle product, star expansion,
stuffle regularization, shifted-value expansion, and parity reductions to
lower depth with coefficients in Q[pi^2].  Numeric layer: arbitrary
precision evaluation of multiple zeta values, Hurwitz multiple zeta values,
monotangent and multitangent functions, plus a verification harness that
turns every identity into a residual computation.  Every cache is bounded;
:func:`cache_info` lists them and :func:`clear_caches` empties them.
"""

from . import harmonic, hurwitz, multitangent, mzv, reduction, regularization, special
from .errors import DomainError, MzvError, NonAdmissibleError, ParityError
from .harmonic import (
    Composition,
    WordCombo,
    as_composition,
    compositions_of,
    compositions_up_to,
    depth,
    is_admissible,
    shift_expand,
    star_expand,
    stuffle,
    weight,
)
from .hurwitz import (
    eval_hurwitz_direct,
    eval_hurwitz_star,
    eval_shifted,
    shifted_tpoly,
    tau_value,
)
from .multitangent import (
    eval_monotangent,
    eval_multitangent_direct,
    eval_multitangent_regularized,
)
from .mzv import (
    eval_admissible_mzv,
    eval_pigraded,
    eval_piterm,
    eval_tpoly,
    eval_word_combo,
)
from .precision import Approx, PrecisionContext
from .reduction import (
    DisplayTerm,
    PiGradedExpr,
    ReductionResult,
    antipode_combo,
    build_main2_identity,
    expand_depth_certificate,
    reduce_main,
    reduce_main3,
)
from .regularization import TPoly, regularize
from .special import PiTerm, bernoulli, delta, even_zeta
from .verify import (
    IDENTITIES,
    ResidualReport,
    sweep,
    verify_bouillot,
    verify_fund_eq2,
    verify_main,
    verify_main2,
    verify_main3,
)

__version__ = "0.1.0"


def _caches() -> dict:
    """Every module-level object with a ``cache_clear``, once, under its
    first module-global name (a module may import another's cache)."""
    found = {}
    for module in (harmonic, special, regularization, reduction, mzv, hurwitz, multitangent):
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and not isinstance(obj, type):
                found.setdefault(id(obj), (f"{module.__name__.partition('.')[2]}.{name}", obj))
    return dict(found.values())


def clear_caches() -> None:
    """Empty every cache of the package; values computed again are the same."""
    for cached in _caches().values():
        cached.cache_clear()


def cache_info() -> dict:
    """``{"module.name": (currsize, maxsize)}`` for every cache of the package."""
    infos = {name: cached.cache_info() for name, cached in _caches().items()}
    return {name: (info.currsize, info.maxsize) for name, info in infos.items()}


__all__ = [
    "Approx",
    "Composition",
    "DisplayTerm",
    "DomainError",
    "IDENTITIES",
    "MzvError",
    "NonAdmissibleError",
    "ParityError",
    "PiGradedExpr",
    "PiTerm",
    "PrecisionContext",
    "ReductionResult",
    "ResidualReport",
    "TPoly",
    "WordCombo",
    "antipode_combo",
    "as_composition",
    "bernoulli",
    "build_main2_identity",
    "cache_info",
    "clear_caches",
    "compositions_of",
    "compositions_up_to",
    "delta",
    "depth",
    "eval_admissible_mzv",
    "eval_hurwitz_direct",
    "eval_hurwitz_star",
    "eval_monotangent",
    "eval_multitangent_direct",
    "eval_multitangent_regularized",
    "eval_pigraded",
    "eval_piterm",
    "eval_shifted",
    "eval_tpoly",
    "eval_word_combo",
    "even_zeta",
    "expand_depth_certificate",
    "is_admissible",
    "reduce_main",
    "reduce_main3",
    "regularize",
    "shift_expand",
    "shifted_tpoly",
    "star_expand",
    "stuffle",
    "sweep",
    "tau_value",
    "verify_bouillot",
    "verify_fund_eq2",
    "verify_main",
    "verify_main2",
    "verify_main3",
    "weight",
]
