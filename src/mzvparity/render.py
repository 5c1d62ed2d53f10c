"""Text, LaTeX and JSON rendering of reductions and of the reduction table."""

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
    return ",".join(map(str, c))


def _latex_rational(q: Fraction) -> str:
    return str(q) if q.denominator == 1 else rf"\frac{{{q.numerator}}}{{{q.denominator}}}"


# How each format writes a positive rational, a product, a signed sum, a
# power, a zeta value of the expansion, and each factor kind of a display term.
_TEXT = {
    "q": str, "times": " * ", "plus": "\n  + ", "minus": "\n  - ", "pow": "{}^{}", "pi": "pi",
    "zeta": "zeta({})",
    "factors": {
        "word": "zeta*({})", "star": "zeta-star({})", "shift": "zeta*_{}({})", "delta": "delta({})",
    },
}
_LATEX = {
    "q": _latex_rational, "times": r"\,", "plus": " + ", "minus": " - ", "pow": "{}^{{{}}}",
    "pi": r"\pi", "zeta": r"\zeta({})",
    "factors": {
        "word": r"\zeta^{{*}}({})",
        "star": r"\zeta^{{\star,*}}({})",
        "shift": r"\zeta^{{*}}_{{{}}}({})",
        "delta": r"\delta^{{{}}}",
    },
}


def _product(style: dict, q: Fraction, p: int, factors: list) -> tuple:
    """``(q < 0, |q| * pi^p * factors)`` in ``style``; a unit |q| is left
    out unless the product is a bare constant."""
    rest = ([style["pow"].format(style["pi"], p)] if p else []) + factors
    head = [] if abs(q) == 1 and rest else [style["q"](abs(q))]
    return q < 0, style["times"].join(head + rest)


def _sum(style: dict, products: list) -> str:
    """The products ``(negative, body)`` as a signed sum in ``style``; 0 if none."""
    if not products:
        return "0"
    (negative, first), rest = products[0], products[1:]
    return ("-" if negative else "") + first + "".join(
        style["minus" if neg else "plus"] + body for neg, body in rest
    )


def _factor(style: dict, kind: str, *args) -> str:
    """A factor ``(kind, [order,] word)`` of a display term in ``style``."""
    form = style["factors"].get(kind)
    if form is None:
        raise ValueError(f"unknown factor kind {kind!r}")
    return form.format(*args[:-1], format_composition(args[-1]))


def _display(result: ReductionResult, style: dict) -> str:
    products = [
        _product(style, term.coeff, term.pi_exp, [_factor(style, *f) for f in term.factors])
        for term in result.display
    ]
    return _sum(style, products)


def _sorted_flat(e: PiGradedExpr):
    """(p, t, word, q) for every term, sorted."""
    return sorted(
        (p, t, w, q) for p, tp in e.items() for t, combo in tp.items() for w, q in combo.items()
    )


def _expansion(e: PiGradedExpr, style: dict) -> str:
    products = []
    for p, t, w, q in _sorted_flat(e):
        factors = ["T" if t == 1 else style["pow"].format("T", t)] if t else []
        if w:
            factors.append(style["zeta"].format(format_composition(w)))
        products.append(_product(style, q, p, factors))
    return _sum(style, products)


def render_display_text(result: ReductionResult) -> str:
    return _display(result, _TEXT)


def render_expanded_text(e: PiGradedExpr) -> str:
    return _expansion(e, _TEXT)


def latex_reduction(result: ReductionResult) -> str:
    """LaTeX for the display form, then the expanded form."""
    comp = format_composition(result.composition)
    display, expanded = _display(result, _LATEX), _expansion(result.expanded, _LATEX)
    return rf"\zeta({comp}) &= {display} \\" + "\n" + rf"&= {expanded}"


def reduction_to_json(result: ReductionResult, ctx: PrecisionContext, value=None) -> dict:
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
    lines = [r"\begin{align*}"]
    for r in results:
        value = eval_pigraded(r.expanded, 0, ctx).value
        lines.append(latex_reduction(r) + r" \\")
        lines.append(rf"&\approx {mp.nstr(value, ctx.digits)} \\")
    lines.append(r"\end{align*}")
    return "\n".join(lines)
