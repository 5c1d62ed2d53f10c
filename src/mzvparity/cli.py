"""Command-line interface: reduce indices, evaluate symbols, verify identities.

Exit codes: 0 on success (including skipped verifications), 1 when a
verification fails, 2 on usage errors and on every ``ValueError`` of the
package, its typed errors included, which :func:`main` maps once (bad
index, parity violation, missing T for a divergent index or for a
multitangent whose reduction carries T, unknown identity, a z or T that
is not a finite decimal, a z outside |z| <= 1/2 for a regularized value,
out-of-range order, a weight below 0 or above the sweep cap).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from mpmath import mp

from .harmonic import (
    as_composition,
    compositions_up_to,
    depth,
    is_admissible,
    star_expand,
    weight,
)
from .hurwitz import eval_hurwitz_direct, eval_hurwitz_star, shifted_tpoly
from .multitangent import eval_monotangent, eval_multitangent_regularized
from .mzv import eval_pigraded, eval_tpoly
from .precision import PrecisionContext, _finite
from .reduction import _bouillot_grades, reduce_main, reduce_main3
from .regularization import regularize
from .render import (
    format_composition,
    latex_reduction,
    latex_table,
    reduction_to_json,
    render_display_text,
    render_expanded_text,
    table_entries,
)
from .verify import _check_weight, _dispatch, sweep

__all__ = ["main"]


class UsageError(Exception):
    pass


def _parse_composition(text: str):
    parts = text.split(",")
    if not any(p.strip() for p in parts):  # blank parts only: the empty index
        return ()
    try:
        return as_composition([int(p) for p in parts])
    except ValueError as exc:
        raise UsageError(f"invalid composition {text!r}: {exc}") from None


def _decimal(text: str, ctx: PrecisionContext):
    """A finite real decimal read at the working precision, else
    ValueError: at mpmath's global 15 digits a decimal such as 0.3 would
    become the nearest double."""
    with mp.workdps(ctx.working_dps):
        return _finite(mp.mpf(text), "decimal")


def _parse_z(text: Optional[str], ctx: PrecisionContext):
    if text is None:
        raise UsageError("this command needs an evaluation point --z re[,im]")
    parts = text.split(",")
    try:
        if len(parts) > 2:
            raise ValueError("more than two parts")
        re = _decimal(parts[0], ctx)
        im = _decimal(parts[1], ctx) if len(parts) > 1 else 0
    except ValueError:
        raise UsageError(f"invalid z {text!r}: expected finite decimals 're' or 're,im'") from None
    with mp.workdps(ctx.working_dps):
        return re if im == 0 else mp.mpc(re, im)


def _parse_T(text: Optional[str], ctx: PrecisionContext):
    """One T decimal read at the working precision (as z is), or None."""
    if text is None:
        return None
    try:
        return _decimal(text, ctx)
    except ValueError:
        raise UsageError(f"invalid T {text!r}: expected a finite decimal") from None


def _context(args) -> PrecisionContext:
    return PrecisionContext(digits=args.digits)


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout.  What is still buffered goes to devnull,
        # so that the flush at exit does not raise again.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _cmd_reduce(args) -> int:
    c = _parse_composition(args.composition)
    ctx = _context(args)
    T = _parse_T(args.T, ctx)
    result = reduce_main3(c) if args.allow_nonadmissible else reduce_main(c)
    val = eval_pigraded(result.expanded, T if T is not None else 0, ctx)
    if args.format == "json":
        _emit(json.dumps(reduction_to_json(result, ctx, value=val.value), indent=2), args.output)
    elif args.format == "latex":
        _emit(latex_reduction(result) + f"\n% value = {mp.nstr(val.value, ctx.digits)}", args.output)
    else:
        lines = [
            f"zeta({format_composition(c)}) =",
            "  " + render_display_text(result),
            "expanded:",
            "  " + render_expanded_text(result.expanded),
            f"value = {mp.nstr(val.value, ctx.digits)}  (error bound {mp.nstr(val.bound, 3)})",
        ]
        _emit("\n".join(lines), args.output)
    return 0


def _require_T(divergent, T) -> None:
    if divergent and T is None:
        raise UsageError("non-admissible index: supply a regularization value with --T")


def _eval_symbol(args, ctx: PrecisionContext, T):
    symbol = args.symbol
    if symbol == "monotangent":
        try:
            order = int(args.index)
        except ValueError:
            raise UsageError("monotangent needs an integer order") from None
        return eval_monotangent(order, _parse_z(args.z, ctx), ctx)
    c = _parse_composition(args.index)
    if symbol in ("mzv", "star", "shifted"):
        tp = (shifted_tpoly(c, args.a) if symbol == "shifted"
              else regularize(c if symbol == "mzv" else star_expand(c)))
        _require_T(tp.t_degree, T)
        return eval_tpoly(tp, T if T is not None else 0, ctx)
    if symbol == "hurwitz":
        z = _parse_z(args.z, ctx)
        if is_admissible(c):  # T reaches only a divergent index
            return eval_hurwitz_direct(c, z, ctx)
        _require_T(True, T)
        return eval_hurwitz_star(c, z, T, ctx)
    if symbol == "multitangent":
        z = _parse_z(args.z, ctx)
        _require_T(any(tp.t_degree for tp in _bouillot_grades(c).values()), T)
        return eval_multitangent_regularized(c, z, T if T is not None else 0, ctx)
    raise UsageError(f"unknown symbol {symbol!r}")  # pragma: no cover - argparse restricts choices


def _cmd_eval(args) -> int:
    ctx = _context(args)
    T = _parse_T(args.T, ctx)
    v = _eval_symbol(args, ctx, T)
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "symbol": args.symbol,
                    "index": args.index,
                    "value": mp.nstr(v.value, ctx.digits),
                    "error_bound": mp.nstr(v.bound, 5),
                    "digits": ctx.digits,
                }
            ),
            args.output,
        )
    else:
        _emit(
            f"{mp.nstr(v.value, ctx.digits)}  (error bound {mp.nstr(v.bound, 3)})",
            args.output,
        )
    return 0


def _nstr(x, digits: int):
    return None if x is None else mp.nstr(mp.mpmathify(x), digits)


def _margin_digits(r, ctx: PrecisionContext) -> Optional[float]:
    """log10(bound / residual), capped at the working digits for a zero
    residual (as perfbench computes it); None for a skipped row."""
    if r.skipped:
        return None
    if r.residual == 0:
        return float(ctx.working_dps)
    return float(mp.log10(r.bound / r.residual))


def _cmd_verify(args) -> int:
    ctx = _context(args)
    z = _parse_z(args.z, ctx) if args.z is not None else None
    T_values = None if args.T is None else tuple(_parse_T(p, ctx) for p in args.T.split(","))
    if (args.k is None) == (args.max_weight is None):
        raise UsageError("verify needs exactly one of --k and --max-weight")
    if args.k is not None:
        c = _parse_composition(args.k)
        reports = [_dispatch(args.identity)(c, ctx=ctx, z=z, T_values=T_values)]
    else:
        reports = sweep(args.max_weight, args.identity, ctx, z=z, T_values=T_values)
    failed = [r for r in reports if r.status == "fail"]
    if args.format == "json":
        rows = [
            {
                "identity": r.identity,
                "composition": list(r.composition),
                "status": r.status,
                "residual": mp.nstr(r.residual, 5),
                "bound": mp.nstr(r.bound, 5),
                "margin_digits": _margin_digits(r, ctx),
                "reason": r.reason,
                "T": None if r.T is None else [_nstr(t, ctx.digits) for t in r.T],
                "z": _nstr(r.z, ctx.digits),
                "lhs": _nstr(r.lhs, ctx.digits),
                "rhs": _nstr(r.rhs, ctx.digits),
                "wall_time": r.wall_time,
                "stages": r.stages,
            }
            for r in reports
        ]
        _emit(json.dumps(rows, indent=2), args.output)
    else:
        lines = [r.describe() for r in reports]
        n_pass = sum(r.status == "pass" for r in reports)
        n_skip = sum(r.status == "skip" for r in reports)
        lines.append(
            f"-- {n_pass} passed, {n_skip} skipped, {len(failed)} failed "
            f"(digits={ctx.digits})"
        )
        _emit("\n".join(lines), args.output)
    return 1 if failed else 0


def _cmd_table(args) -> int:
    ctx = _context(args)
    _check_weight(args.max_weight)
    results = []
    for c in compositions_up_to(args.max_weight):
        if not is_admissible(c) or weight(c) % 2 == depth(c) % 2:
            continue
        results.append(reduce_main(c))
    if args.format == "latex":
        _emit(latex_table(results, ctx), args.output)
    else:
        _emit(json.dumps(table_entries(results, ctx), indent=2), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mzvparity",
        description="Parity reduction and verification toolkit for multiple zeta values.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices=("text", "json", "latex")):
        p.add_argument("--digits", type=int, default=30, help="target digits (default: 30)")
        p.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])
        p.add_argument("--output", "-o", default=None, help="write output to this path")

    p = sub.add_parser("reduce", help="reduce an opposite-parity index to lower depth")
    p.add_argument("composition", help="comma-separated parts, e.g. 1,2")
    p.add_argument("--allow-nonadmissible", action="store_true",
                   help="reduce the regularized value (adds the all-ones correction)")
    p.add_argument("--T", default=None, help="value substituted for T in the numeric output")
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("eval", help="evaluate one symbol numerically")
    p.add_argument("symbol", choices=["mzv", "star", "shifted", "hurwitz", "multitangent", "monotangent"])
    p.add_argument("index", help="composition (or order for monotangent)")
    p.add_argument("--a", type=int, default=0, help="shift order for 'shifted'")
    p.add_argument("--z", default=None, help="evaluation point re[,im]; write --z=-0.45,0.1 when re is negative")
    p.add_argument("--T", default=None,
                   help="regularization value for divergent indices; a multitangent needs it whenever its "
                        "reduction to monotangents carries T, also where the T-terms cancel only through "
                        "MZV relations, as for 1,2,1,2")
    common(p, fmt_choices=("text", "json"))
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="verify one identity for an index or a weight sweep")
    p.add_argument("identity", help="main | main2 | main3 | fundeq2 | bouillot")
    p.add_argument("--k", default=None, help="single composition to check")
    p.add_argument("--max-weight", type=int, default=None, help="sweep all compositions up to this weight")
    p.add_argument("--z", default=None, help="evaluation point re[,im] for bouillot; write --z=-0.45,0.1 when re is negative")
    p.add_argument("--T", default=None, help="comma-separated regularization values (default per identity)")
    common(p, fmt_choices=("text", "json"))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="export reductions for all opposite-parity admissible indices")
    p.add_argument("--max-weight", type=int, required=True)
    common(p, fmt_choices=("json", "latex"))
    p.set_defaults(func=_cmd_table)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:  # every typed error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
