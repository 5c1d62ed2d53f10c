"""Residual verification of every identity, single cases and weight sweeps.

Each verifier evaluates both sides of one identity numerically at working
precision and reports the residual against the tolerance
10^-(digits - 5).  Precondition violations are reported as skipped
entries, never silently dropped, so sweeps document their coverage.

Every entry of :data:`IDENTITIES` is called as
``fn(c, ctx=ctx, z=z, T_values=T_values)``.  ``z`` is the evaluation point,
used by ``bouillot`` (which raises :class:`DomainError` without one) and
ignored by the others.  ``T_values`` are the values substituted for the
regularization variable T; the residual is the largest over them, and
``None`` selects the identity's default: ``(0,)`` for ``main``,
``fundeq2`` and ``bouillot``, ``(0, 1)`` for ``main2`` and ``main3``; an
empty ``T_values`` raises :class:`ValueError`.  Every report's ``T`` is the
tuple of T values it used, and its ``lhs`` and ``rhs`` are those of the T
value with the largest residual (the first on a tie).  Every report that
is not skipped carries ``stages``, the seconds of the exact build
(reduction and regularization) and of the numeric evaluation.

``fundeq2`` is the z^0 case of ``bouillot``.  Both right-hand sides are
built exactly from the slot sum of the whole index: that of ``bouillot``
is delta(c) + sum_s Psi_s(z) R_s(T), with one regularized grade R_s per
monotangent order s, and that of ``fundeq2`` is its z^0 coefficient.
Each exact side, the word c on the left of ``main`` too, is evaluated by
one walk over its grades (``mzv._eval_at``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from mpmath import mp

from .errors import DomainError
from .harmonic import (
    Composition,
    WordCombo,
    _is_int,
    as_composition,
    compositions_up_to,
    depth,
    is_admissible,
    weight,
)
from .multitangent import (
    eval_monotangent,
    eval_multitangent_direct,
    eval_multitangent_regularized,
)
from .mzv import _eval_at, _piterm_to_mp
from .precision import PrecisionContext, _finite
from .reduction import (
    PiGradedExpr,
    _bouillot_grades,
    _fund_eq2_sides,
    build_main2_identity,
    expand_depth_certificate,
    reduce_main,
    reduce_main3,
)
from .regularization import regularize
from .special import delta

__all__ = [
    "IDENTITIES",
    "ResidualReport",
    "sweep",
    "verify_bouillot",
    "verify_fund_eq2",
    "verify_main",
    "verify_main2",
    "verify_main3",
]

# sweeps check 2^(w-1) compositions per weight w
WEIGHT_CAP = 12


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one identity check at one evaluation point."""

    identity: str
    composition: Composition
    digits: int
    residual: object  # mpf, 0 for skipped entries
    bound: object
    status: str  # "pass" | "fail" | "skip"
    reason: Optional[str] = None
    z: object = None
    T: object = None  # tuple of the T values used; None for skipped entries
    lhs: object = None
    rhs: object = None
    wall_time: float = 0.0
    # {"build": s, "evaluate": s}, None for skipped entries: the exact
    # reduction and regularization, then the numeric evaluation
    stages: Optional[dict] = field(default=None, compare=False)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def skipped(self) -> bool:
        return self.status == "skip"

    def describe(self) -> str:
        comp = ",".join(str(k) for k in self.composition)
        head = f"{self.identity:9s} ({comp})"
        if self.status == "skip":
            return f"SKIP {head}: {self.reason}"
        res = mp.nstr(self.residual, 3)
        bnd = mp.nstr(self.bound, 3)
        tag = "PASS" if self.status == "pass" else "FAIL"
        extra = ""
        if self.z is not None:
            extra += f" z={mp.nstr(mp.mpmathify(self.z), 8)}"
        if self.T is not None:
            extra += " T=" + ",".join(mp.nstr(mp.mpmathify(t), 8) for t in self.T)
        return f"{tag} {head}{extra}: residual {res} (bound {bnd}, {self.wall_time:.2f}s)"


def _finish(
    identity: str,
    c: Composition,
    ctx: PrecisionContext,
    residual,
    lhs,
    rhs,
    t0: float,
    t_built: float,
    z=None,
    T=None,
    reason: Optional[str] = None,
) -> ResidualReport:
    """The report of a check; it fails on a residual above the tolerance
    or on a ``reason``, a failed guarantee besides the residual."""
    t_evaluated = time.perf_counter()
    bound = ctx.residual_bound()
    ok = bool(residual <= bound) and reason is None
    return ResidualReport(
        identity=identity,
        composition=c,
        digits=ctx.digits,
        residual=residual,
        bound=bound,
        status="pass" if ok else "fail",
        reason=reason,
        z=z,
        T=T,
        lhs=lhs,
        rhs=rhs,
        wall_time=time.perf_counter() - t0,
        stages={"build": t_built - t0, "evaluate": t_evaluated - t_built},
    )


def _skip(identity: str, c: Composition, ctx: PrecisionContext, reason: str) -> ResidualReport:
    return ResidualReport(
        identity=identity,
        composition=c,
        digits=ctx.digits,
        residual=mp.mpf(0),
        bound=ctx.residual_bound(),
        status="skip",
        reason=reason,
    )


def _T_values(T_values, default: Optional[tuple]) -> Optional[tuple]:
    """The T values to check: ``default`` for None, never an empty tuple,
    and each finite (else DomainError).

    A check over no T values would pass vacuously with residual 0, and a
    string or a bare number is not a collection of T values.
    """
    if T_values is None:
        return default
    if isinstance(T_values, (str, bytes)) or not isinstance(T_values, Iterable):
        raise ValueError(f"T_values must be a collection of T values, got {T_values!r}")
    T_values = tuple(T_values)
    if not T_values:
        raise ValueError("T_values is empty: the identity needs at least one T value")
    for T in T_values:
        _finite(T, "T")
    return T_values


def _worst(sides) -> tuple:
    """(residual, lhs, rhs) of the T value with the largest residual
    |lhs - rhs|, the first such T on a tie; ``sides`` yields (lhs, rhs)
    per T value, in order.

    A report carries the sides of the T value its residual comes from.
    """
    rows = [(abs(lhs - rhs), lhs, rhs) for lhs, rhs in sides]
    return max(rows, key=lambda row: row[0])


def _exact_check(identity: str, c: Composition, ctx: PrecisionContext, T_values, build):
    """The report of an identity whose sides are built exactly.

    ``build()`` is the timed ``build`` stage.  It returns (lhs, rhs,
    reason): each side a ``WordCombo``, ``TPoly`` or ``PiGradedExpr``,
    evaluated by :func:`mzv._eval_at` at every T value; ``reason`` names a
    failed structural guarantee, or is None.
    """
    t0 = time.perf_counter()
    lhs, rhs, reason = build()
    t_built = time.perf_counter()
    lhs_at, rhs_at = ([v.value for v in _eval_at(side, T_values, ctx)] for side in (lhs, rhs))
    residual, lhs, rhs = _worst(zip(lhs_at, rhs_at))
    return _finish(identity, c, ctx, residual, lhs, rhs, t0, t_built, T=T_values, reason=reason)


def verify_fund_eq2(c, ctx: PrecisionContext, *, z=None, T_values=None) -> ResidualReport:
    """Residual of the reflection identity for the z^0 coefficient, the
    z^0 case of ``bouillot``, with both sides built exactly by
    :func:`reduction._fund_eq2_sides`."""
    c = as_composition(c)
    if not c:
        raise ValueError("the identity needs a nonempty composition")
    T_values = _T_values(T_values, (0,))
    return _exact_check("fundeq2", c, ctx, T_values, lambda: (*_fund_eq2_sides(c), None))


def verify_main2(c, ctx: PrecisionContext, *, z=None, T_values=None) -> ResidualReport:
    """Residual of the star/plain alternating identity at each T value."""
    c = as_composition(c)
    T_values = _T_values(T_values, (0, 1))
    return _exact_check(
        "main2", c, ctx, T_values, lambda: (build_main2_identity(c), PiGradedExpr.zero(), None)
    )


def verify_main3(c, ctx: PrecisionContext, *, z=None, T_values=None) -> ResidualReport:
    """Residual of the regularized reduction against the direct value."""
    c = as_composition(c)
    T_values = _T_values(T_values, (0, 1))
    if weight(c) % 2 == depth(c) % 2:
        return _skip("main3", c, ctx, "weight and depth have the same parity")
    return _exact_check(
        "main3", c, ctx, T_values, lambda: (regularize(c), reduce_main3(c).expanded, None)
    )


def verify_main(c, ctx: PrecisionContext, *, z=None, T_values=None) -> ResidualReport:
    """Residual of the depth reduction for an admissible index.

    Also asserts the structural guarantees: the reduction is T-free and
    every expanded word has depth at most d-1.
    """
    c = as_composition(c)
    T_values = _T_values(T_values, (0,))
    if not is_admissible(c):
        return _skip("main", c, ctx, "not admissible (last part must be >= 2)")
    if weight(c) % 2 == depth(c) % 2:
        return _skip("main", c, ctx, "weight and depth have the same parity")

    def build():
        rhs = reduce_main(c).expanded
        reason = None
        if rhs.t_degree not in (None, 0):
            reason = f"reduction has T-degree {rhs.t_degree}"
        elif not expand_depth_certificate(rhs, depth(c)):
            reason = "depth certificate failed"
        return WordCombo.word(c), rhs, reason

    return _exact_check("main", c, ctx, T_values, build)


def verify_bouillot(c, z, ctx: PrecisionContext, *, T_values=None) -> ResidualReport:
    """Residual of the monotangent reduction of the multitangent.

    LHS: the regularized multitangent.  RHS: delta(c) + sum_s Psi_s(z) R_s,
    with the grades R_s of :func:`reduction._bouillot_grades`, each
    regularized once and summed once for all T values.  For indices with
    first and last part >= 2 the reported LHS is also cross-checked against
    the truncated doubly infinite sum within its stated tail estimate.
    """
    if z is None:
        raise DomainError("the multitangent identity needs an evaluation point z")
    c = as_composition(c)
    T_values = _T_values(T_values, (0,))
    t0 = time.perf_counter()
    grades = _bouillot_grades(c)
    t_built = time.perf_counter()
    with mp.workdps(ctx.working_dps + 5):
        rhs = [_piterm_to_mp(delta(c))] * len(T_values)
        for s, tp in grades.items():
            psi = eval_monotangent(s, z, ctx).value
            rhs = [r + psi * v.value for r, v in zip(rhs, _eval_at(tp, T_values, ctx))]
        lhs = (eval_multitangent_regularized(c, z, T, ctx).value for T in T_values)
        residual, lhs, rhs = _worst(zip(lhs, rhs))
        reason = None
        if c[0] >= 2 and c[-1] >= 2:
            direct = eval_multitangent_direct(c, z, ctx)
            gap = abs(lhs - direct.value)
            # stated as the pass condition, which a NaN gap does not meet
            if not (mp.isfinite(direct.bound) and gap <= direct.bound + ctx.residual_bound()):
                reason = (
                    f"direct-series cross-check off by {mp.nstr(gap, 3)} "
                    f"(tail estimate {mp.nstr(direct.bound, 3)})"
                )
    return _finish(
        "bouillot", c, ctx, residual, lhs, rhs, t0, t_built,
        z=z, T=T_values, reason=reason,
    )


def _dispatch(identity: str) -> Callable:
    try:
        return IDENTITIES[identity]
    except KeyError:
        raise ValueError(
            f"unknown identity {identity!r}; choose from {sorted(IDENTITIES)}"
        ) from None


IDENTITIES = {
    "main": verify_main,
    "main2": verify_main2,
    "main3": verify_main3,
    "fundeq2": verify_fund_eq2,
    "bouillot": verify_bouillot,
}


def _check_weight(max_weight: int) -> None:
    """Refuse a weight that is not an int >= 0, and one above
    :data:`WEIGHT_CAP`, a guard against runaway sweeps."""
    if not _is_int(max_weight, 0):
        raise ValueError(f"max_weight must be an int >= 0, got {max_weight!r}")
    if max_weight > WEIGHT_CAP:
        raise ValueError(f"max_weight {max_weight} exceeds the sweep cap {WEIGHT_CAP}")


def sweep(max_weight: int, identity: str, ctx: PrecisionContext, z=None, T_values=None) -> list:
    """Run one identity over all compositions of weight 1..max_weight.

    Enumeration is deterministic (weight-major, then lexicographic), and
    every case has a report: skipped (precondition-violating) cases are
    first-class entries.  ``z`` and ``T_values`` are passed to every
    verifier call; ``T_values`` is read once, so a one-shot iterator serves
    every case.  Weights above :data:`WEIGHT_CAP` are refused, as a guard
    against runaway sweeps.
    """
    _check_weight(max_weight)
    verifier = _dispatch(identity)
    T_values = _T_values(T_values, None)
    return [verifier(c, ctx=ctx, z=z, T_values=T_values) for c in compositions_up_to(max_weight)]
