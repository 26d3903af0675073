"""Span tracing of slfib's layers from outside the package.

The traced run wraps the public entry points of each layer and records
one span per call: its group (the layer metric it feeds), the function,
start, end and the span that was open when it started.  A group's time
is its self time: the span's duration minus the time of its traced
children, so the groups of one pass add up to at most its wall time.

Names are patched where they are looked up: ``fibrations`` imports the
solvers by name and ``solve_disc_limit`` calls ``solve_disc`` through
``elliptic``'s globals, so every module-level binding of a wrapped
function in ``slfib`` is replaced, and ``uninstall`` restores them all.
Grid methods are patched on their classes.  ``elliptic`` reaches SuperLU
through its ``spla`` module reference, which is swapped for a proxy that
wraps ``spsolve``, ``splu``/``factorized`` and the factor's ``solve``.
"""

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import scipy.sparse.linalg as spla


class _SplaProxy:
    """Stand-in for scipy.sparse.linalg with traced solver entry points."""

    def __init__(self, overrides):
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(spla, name)


class _TracedFactor:
    """SuperLU factor whose ``solve`` is traced; other attributes pass through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Patches slfib's layer entry points and keeps the spans in memory."""

    def __init__(self):
        self.spans = []          # [parent index or -1, group, function, start, end]
        self.level_fields = []   # fields returned by solve_disc / solve_strip
        self.counts = Counter()
        self._stack = []
        self._patches = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, group, label, fn, post=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([stack[-1] if stack else -1, group, label, perf_counter(), 0.0])
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][4] = perf_counter()
            return post(out) if post is not None else out

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, replacement):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, replacement)

    def _function(self, modules, owner, attr, group, post=None):
        fn = getattr(owner, attr, None)
        if fn is not None:
            label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            self._rebind(modules, fn, self._wrap(group, label, fn, post))

    def _method(self, cls, attr, group):
        fn = cls.__dict__.get(attr)
        if fn is not None:
            self._set(cls, attr, self._wrap(group, f"{cls.__name__}.{attr}", fn))

    def _keep_field(self, fld):
        self.level_fields.append(fld)
        return fld

    def _count_winding(self, out):
        self.counts["winding_samples"] += int(out[1])
        return out

    def _traced_factor(self, lu):
        return _TracedFactor(lu, self._wrap("elliptic.trisolve", "SuperLU.solve", lu.solve))

    def _traced_solve(self, solve):
        return self._wrap("elliptic.trisolve", "factorized.solve", solve)

    def install(self):
        from slfib import elliptic, fibrations, models, singularities

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "slfib" or name.startswith("slfib.")]

        # linear algebra, as elliptic reaches it
        solvers = {
            "spsolve": self._wrap("elliptic.linsolve", "spla.spsolve", spla.spsolve),
            "splu": self._wrap("elliptic.factor", "spla.splu", spla.splu,
                               self._traced_factor),
            "factorized": self._wrap("elliptic.factor", "spla.factorized", spla.factorized,
                                     self._traced_solve),
        }
        for name, wrapper in solvers.items():
            self._rebind(modules, getattr(spla, name), wrapper)
        self._rebind(modules, spla, _SplaProxy(solvers))

        for cls in (elliptic.DiscGrid, elliptic.StripGrid):
            self._method(cls, "residual", "elliptic.residual")
            self._method(cls, "jacobian", "elliptic.jacobian")
        self._method(elliptic.DiscGrid, "ops64", "elliptic.ops64")
        self._method(elliptic.SolutionField, "uv", "elliptic.field_eval")
        for name in ("solve_disc", "solve_strip"):
            self._function(modules, elliptic, name, "elliptic.level_solve", self._keep_field)
        for name in ("solve_disc_limit", "solve_strip_limit"):
            self._function(modules, elliptic, name, "elliptic.continuation")
        self._function(modules, elliptic, "reconstruct_u", "elliptic.reconstruct_u")

        for name in ("find_alpha0_alpha1", "alpha_beta_curves", "_bisect", "_grown_bracket",
                     "solve_family_member"):
            self._function(modules, fibrations, name, "fibrations.search")
        self._method(fibrations.SolverCache, "get_or_solve", "fibrations.search")

        self._function(modules, singularities, "analyze_field", "singularities.analyze")
        self._function(modules, singularities, "detect_axis_zeros", "singularities.analyze")
        self._function(modules, singularities, "winding_multiplicity", "singularities.analyze",
                       self._count_winding)

        self._function(modules, models, "na_potential_circle", "models.boundary_data")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the spans ---------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, _, start, end) in enumerate(self.spans)]

    def summary(self):
        """Per-group self seconds and calls; per-function calls, all and nested."""
        own = self.self_times()
        groups = defaultdict(lambda: {"s": 0.0, "calls": 0})
        functions = Counter()
        nested = Counter()
        for i, (parent, group, label, _, _) in enumerate(self.spans):
            groups[group]["s"] += own[i]
            groups[group]["calls"] += 1
            functions[label] += 1
            if parent >= 0:
                nested[label] += 1
        return {
            "groups": dict(groups),
            "functions": dict(functions),
            "nested": dict(nested),
        }

    def dump(self, path):
        """Write the spans as one JSON object per line."""
        with open(path, "w") as fh:
            for i, (parent, group, label, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "group": group,
                                     "function": label, "start": start, "end": end}) + "\n")
