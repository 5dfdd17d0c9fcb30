"""Per-layer spans and counters recorded from outside the package.

The tracer wraps layer entry points by attribute name on the imported
modules and records only while `active` is set, which run.py sets for
the duration of one timed op.  A target that a refactor has removed is
skipped and listed in `missing`, so its metrics read null instead of
breaking the run.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


def no_span(_name):
    """Span factory of the untraced run: costs one call and records nothing."""
    return _NULL


class Tracer:
    def __init__(self):
        self.active = False
        self.time = defaultdict(float)    # span name -> inclusive seconds
        self.count = defaultdict(int)     # counter name -> total
        self.missing = set()              # span names whose target is absent

    @contextmanager
    def span(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.time[name] += time.perf_counter() - t0
            self.count[name] += 1

    def wrap(self, owner, attr, name, tally=None):
        """Replace owner.attr by a timing wrapper if the attribute exists.

        `tally(result)` may add further counters from the call's result.
        """
        target = getattr(owner, attr, None)
        if target is None:
            self.missing.add(name)
            return

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if not self.active:
                return target(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                self.time[name] += time.perf_counter() - t0
                self.count[name] += 1
            if tally is not None:
                tally(result)
            return result

        setattr(owner, attr, wrapper)

    def install(self, pkg):
        """Wrap the entry points that the package calls internally."""
        self.wrap(getattr(pkg.reduction, "Reducer", None), "run", "reduction.reducer_run")
        self.wrap(pkg.triangle, "reduce_full", "triangle.reduce_full")
        self.wrap(pkg.numerics, "eval_genfn", "numerics.eval_genfn")
        self.wrap(pkg.numerics, "quad", "numerics.quad")

        def ode_tally(sol):
            self.count["numerics.ode_rhs_evals"] += int(getattr(sol, "nfev", 0))
        self.wrap(pkg.numerics, "solve_ivp", "numerics.ode", tally=ode_tally)
