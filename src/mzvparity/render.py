"""Text, LaTeX and JSON rendering of reductions and verification reports."""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from .harmonic import Composition
from .mzv import eval_pigraded
from .precision import PrecisionContext
from .reduction import PiGradedExpr, ReductionResult

__all__ = [
    "format_composition",
    "latex_reduction",
    "latex_table",
    "reduction_to_json",
    "render_expanded_text",
    "render_display_text",
    "table_entries",
]


def format_composition(c: Composition) -> str:
    return ",".join(str(k) for k in c)


def _coeff_str(q: Fraction) -> str:
    return str(q)


def _factor_text(factor: tuple) -> str:
    kind = factor[0]
    if kind == "word":
        return f"zeta*({format_composition(factor[1])})"
    if kind == "star":
        return f"zeta-star({format_composition(factor[1])})"
    if kind == "shift":
        return f"zeta*_{factor[1]}({format_composition(factor[2])})"
    if kind == "delta":
        return f"delta({format_composition(factor[1])})"
    raise ValueError(f"unknown factor kind {kind!r}")


def render_display_text(result: ReductionResult) -> str:
    lines = []
    for term in result.display:
        if not term.coeff:
            continue
        pieces = [_coeff_str(term.coeff)]
        if term.pi_exp:
            pieces.append(f"pi^{term.pi_exp}")
        pieces.extend(_factor_text(f) for f in term.factors)
        lines.append(" * ".join(pieces))
    return "\n  + ".join(lines) if lines else "0"


def _sorted_flat(e: PiGradedExpr):
    rows = []
    for p, tp in e.items():
        for t, combo in tp.items():
            for w, q in combo.items():
                rows.append((p, t, w, q))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def render_expanded_text(e: PiGradedExpr) -> str:
    rows = _sorted_flat(e)
    if not rows:
        return "0"
    pieces = []
    for p, t, w, q in rows:
        s = _coeff_str(q)
        if p:
            s += f" * pi^{p}"
        if t:
            s += " * T" if t == 1 else f" * T^{t}"
        if w:
            s += f" * zeta({format_composition(w)})"
        pieces.append(s)
    return "\n  + ".join(pieces)


def _latex_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return rf"{sign}\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def _factor_latex(factor: tuple) -> str:
    kind = factor[0]
    if kind == "word":
        return rf"\zeta^{{*}}({format_composition(factor[1])})"
    if kind == "star":
        return rf"\zeta^{{\star,*}}({format_composition(factor[1])})"
    if kind == "shift":
        return rf"\zeta^{{*}}_{{{factor[1]}}}({format_composition(factor[2])})"
    if kind == "delta":
        return rf"\delta^{{{format_composition(factor[1])}}}"
    raise ValueError(f"unknown factor kind {kind!r}")


def latex_reduction(result: ReductionResult) -> str:
    """LaTeX for the display form, then the expanded form."""
    comp = format_composition(result.composition)
    parts = []
    for term in result.display:
        if not term.coeff:
            continue
        piece = _latex_rational(term.coeff)
        if term.pi_exp:
            piece += rf"\,\pi^{{{term.pi_exp}}}"
        for f in term.factors:
            piece += r"\," + _factor_latex(f)
        parts.append(piece)
    display = " + ".join(parts) if parts else "0"
    pieces = []
    for p, t, w, q in _sorted_flat(result.expanded):
        s = _latex_rational(q)
        if p:
            s += rf"\,\pi^{{{p}}}"
        if t:
            s += r"\,T" if t == 1 else rf"\,T^{{{t}}}"
        if w:
            s += rf"\,\zeta({format_composition(w)})"
        pieces.append(s)
    expanded = " + ".join(pieces) if pieces else "0"
    return rf"\zeta({comp}) &= {display} \\" + "\n" + rf"&= {expanded}"


def reduction_to_json(
    result: ReductionResult, ctx: PrecisionContext, value=None
) -> dict:
    """JSON form of one reduction: exact expansion plus its numeric value.

    Rational coefficients are serialized as numerator/denominator strings so
    the file round-trips losslessly.
    """
    if value is None:
        value = eval_pigraded(result.expanded, 0, ctx).value
    expanded = [
        {
            "pi_exp": p,
            "T_deg": t,
            "word": list(w),
            "coeff_num": str(q.numerator),
            "coeff_den": str(q.denominator),
        }
        for p, t, w, q in _sorted_flat(result.expanded)
    ]
    return {
        "composition": list(result.composition),
        "display": render_display_text(result),
        "expanded": expanded,
        "value": mp.nstr(value, ctx.digits),
        "digits": ctx.digits,
    }


def table_entries(results, ctx: PrecisionContext) -> list:
    return [reduction_to_json(r, ctx) for r in results]


def latex_table(results, ctx: PrecisionContext) -> str:
    lines = [
        r"\begin{align*}",
    ]
    for r in results:
        value = eval_pigraded(r.expanded, 0, ctx).value
        lines.append(latex_reduction(r) + r" \\")
        lines.append(rf"&\approx {mp.nstr(value, ctx.digits)} \\")
    lines.append(r"\end{align*}")
    return "\n".join(lines)
