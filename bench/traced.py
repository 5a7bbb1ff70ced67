"""Run one hitq command with timing wrappers around each layer's public functions.

    python bench/traced.py SPANS_JSON hitq-args...

Before the command runs, the functions named in ``SPANS`` are replaced on
their module (and on ``linalg.EchelonBasis``) by wrappers that count calls and
time them.  hitq calls across and within modules through module attributes
(``poly.sq_monomial``, ``hit_subspace`` from ``quotient_basis``), so nested
spans are seen.  Names a module binds with ``from .x import y`` keep the
original function and are not seen: ``dual``'s ``monomials`` and ``lam``'s
``solve_combination``.

Per span the aggregate is: ``calls``; ``s``, the inclusive time of the
outermost active call (recursion is not counted twice); ``self_s``, inclusive
time minus the time of wrapped callees; and for ``EchelonBasis.insert``,
``useful``, the inserts that raised the rank.  The aggregate stays in memory
and is written once, as JSON, when the command exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module -> public functions wrapped; "EchelonBasis.x" names a method.
# Hot leaf helpers (binom2, weight_of, support) are left out: wrapping them
# would cost more than the work they do.
SPANS = {
    "poly": ("monomials", "sq_monomial", "linear_substitute"),
    "linalg": ("EchelonBasis.insert", "EchelonBasis.reduce",
               "EchelonBasis.rows_by_pivot", "kernel_basis",
               "solve_combination"),
    "hit": ("quotient_basis", "hit_subspace", "weight_dimensions",
            "weight_quotient", "kameko_kernel"),
    "action": ("action_matrix", "invariant_subspace", "kernel_invariants"),
    "dual": ("primitive_basis", "coinvariant_generators"),
    "lam": ("normalize", "differential", "catalog", "identify_class",
            "classes_equal"),
    "transfer": ("psi", "transfer_image_report"),
}
ROOT_SPAN = "cli.main"  # the whole command, around hitq.cli.main
USEFUL_SPAN = "linalg.EchelonBasis.insert"  # returns (rank grew, remainder)


def span_names() -> list:
    names = [ROOT_SPAN]
    for module, attrs in SPANS.items():
        names.extend(f"{module}.{a}" for a in attrs)
    return names


class Tracer:
    """In-memory span aggregate: name -> calls, s, self_s, useful."""

    def __init__(self):
        self.stats: dict = {}
        self._stack: list = []  # per open span: wrapped-callee seconds so far
        self._depth: dict = {}  # name -> open spans of that name

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "useful": 0})
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        useful = name == USEFUL_SPAN

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            outer = depth.get(name, 0)
            depth[name] = outer + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if useful and result[0]:
                    stats["useful"] += 1
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] = outer
                stats["calls"] += 1
                stats["self_s"] += dt - children[0]
                if not outer:
                    stats["s"] += dt
                if stack:
                    stack[-1][0] += dt

        return timed


def install(tracer: Tracer) -> None:
    for module_name, attrs in SPANS.items():
        module = importlib.import_module(f"hitq.{module_name}")
        for attr in attrs:
            owner = module
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            fn = getattr(owner, path[-1])
            setattr(owner, path[-1], tracer.wrap(f"{module_name}.{attr}", fn))


def main(argv: list) -> None:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from hitq.cli import main as hitq_main

    try:
        tracer.wrap(ROOT_SPAN, lambda: hitq_main(args=args))()
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.stats, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
