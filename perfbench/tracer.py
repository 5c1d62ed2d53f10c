"""In-memory span tracer that wraps the public functions of each layer.

Tracing works entirely from outside the package: every traced function is
rebound, in each ``mzvparity.*`` module that holds it, to a wrapper that
records a span (name, start, end, parent, case id).  Calls between modules
and calls inside one module both go through module globals, so they are
covered.  The original objects are put back when the ``traced`` block ends.

A span's self time is its duration minus the durations of its direct
children; since spans of one thread nest, the self times of a tree add up
to the duration of its root.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps


def _terms(tpoly) -> int:
    return sum(len(combo) for _, combo in tpoly.items())


def _expanded_terms(expr) -> int:
    return sum(_terms(tp) for _, tp in expr.items())


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_stuffle(tr, args, kwargs, result):
    tr.counts["harmonic.stuffle.out_terms"] += len(result)


def _count_regularize(tr, args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    tr.counts["regularization.regularize.in_terms"] += len(x) if hasattr(x, "items") else 1
    tr.counts["regularization.regularize.out_terms"] += _terms(result)


def _count_reduce_main(tr, args, kwargs, result):
    tr.counts["reduction.expanded_terms"] += _expanded_terms(result.expanded)


def _count_main2(tr, args, kwargs, result):
    tr.counts["reduction.expanded_terms"] += _expanded_terms(result)


def _key_mzv(args, kwargs):
    c, ctx = _arg(args, kwargs, 0, "c"), _arg(args, kwargs, 1, "ctx")
    dps = _arg(args, kwargs, 2, "dps")
    return tuple(c), dps if dps is not None else ctx.working_dps


def _key_hurwitz(args, kwargs):
    c, z, ctx = (_arg(args, kwargs, i, n) for i, n in enumerate(("c", "z", "ctx")))
    dps = _arg(args, kwargs, 3, "dps")
    return tuple(c), z, dps if dps is not None else ctx.working_dps


def _key_tau(args, kwargs):
    z, T, ctx = (_arg(args, kwargs, i, n) for i, n in enumerate(("z", "T_value", "ctx")))
    return z, T, ctx.working_dps


def _distinct(name, key_fn):
    def hook(tr, args, kwargs, result):
        tr.keys[name].add(key_fn(args, kwargs))

    return hook


# Traced functions per layer, each with an optional hook that records
# counts from its arguments and result once its span has closed.
LAYER_FUNCTIONS = {
    "harmonic": {"stuffle": _count_stuffle, "star_expand": None, "shift_expand": None},
    "regularization": {"regularize": _count_regularize},
    "special": {"bernoulli": None, "delta": None},
    "reduction": {
        "reduce_main": _count_reduce_main,
        "build_main2_identity": _count_main2,
        "expand_depth_certificate": None,
    },
    "mzv": {
        "eval_admissible_mzv": _distinct("mzv.eval_admissible_mzv", _key_mzv),
        "eval_word_combo": None,
        "eval_tpoly": None,
        "eval_pigraded": None,
    },
    "hurwitz": {
        "eval_hurwitz_direct": _distinct("hurwitz.eval_hurwitz_direct", _key_hurwitz),
        "eval_hurwitz_star": None,
        "tau_value": _distinct("hurwitz.tau_value", _key_tau),
        "eval_shifted": None,
        "shifted_tpoly": None,
    },
    "multitangent": {
        "eval_multitangent_regularized": None,
        "eval_monotangent": None,
        "eval_multitangent_direct": None,
    },
    "verify": {"verify_main": None, "verify_main2": None, "verify_bouillot": None},
}

SPAN_NAMES = [f"{m}.{f}" for m, fns in LAYER_FUNCTIONS.items() for f in fns]
COUNT_NAMES = [
    "harmonic.stuffle.out_terms",
    "regularization.regularize.in_terms",
    "regularization.regularize.out_terms",
    "reduction.expanded_terms",
]
DISTINCT_NAMES = ["mzv.eval_admissible_mzv", "hurwitz.eval_hurwitz_direct", "hurwitz.tau_value"]


class Tracer:
    """Collects spans and per-name totals for one traced sweep."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, case, self_s)
        self._stack: list = []  # [span index, time covered by children]
        self.case = None
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)

    def wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[1]
                spans[frame[0]] = (name, start, end, parent, self.case, own)
                self.calls[name] += 1
                self.self_s[name] += own
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def metrics(self) -> dict:
        """Per-layer metrics: calls and self time of every traced function,
        the term counts, and distinct-argument counts with their share of
        calls."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in COUNT_NAMES:
            out[name] = self.counts[name]
        for name in DISTINCT_NAMES:
            distinct = len(self.keys[name])
            calls = self.calls[name]
            out[f"{name}.distinct"] = distinct
            out[f"{name}.new_ratio"] = distinct / calls if calls else 0.0
        return out

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, case, own) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "case": case, "self_s": own}
                    )
                    + "\n"
                )


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "mzvparity" or n.startswith("mzvparity."))]


@contextmanager
def traced(tracer: Tracer):
    """Rebind every traced function in every mzvparity module that holds it,
    and restore the original objects on exit."""
    modules = _package_modules()
    patched = []
    try:
        for mod_name, fns in LAYER_FUNCTIONS.items():
            home = sys.modules[f"mzvparity.{mod_name}"]
            for fn_name, hook in fns.items():
                original = getattr(home, fn_name)
                wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original, hook)
                for mod in modules:
                    if vars(mod).get(fn_name) is original:
                        setattr(mod, fn_name, wrapper)
                        patched.append((mod, fn_name, original))
        yield tracer
    finally:
        for mod, fn_name, original in reversed(patched):
            setattr(mod, fn_name, original)
