"""Span tracer that instruments the slmoduli package from outside.

The tracer wraps named functions and methods for the duration of a ``with``
block and restores the originals afterwards; nothing in the package changes.
``from .x import y`` copies a function into the importing module, so a
function is wrapped at every module binding under the package where the
original object appears (``apply_diff`` in ``fd``, ``hessian`` and
``semiflat``; ``legendre_transform`` in ``hessian``, ``cli`` and the package
itself).  Methods are wrapped on their class.

Each call becomes a span with name, start, end, parent span and job id.
Spans stay in memory; ``summarize`` turns them into per-layer metrics after
the run.  A name that cannot be resolved is recorded as absent and skipped.
"""

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "slmoduli"


@dataclass
class Target:
    """A function ``module.attr`` or a method ``module.cls.attr`` to trace.

    ``counts`` maps a metric name to ``(unit, count)``; each call adds
    ``count(args, kwargs, result)`` to that metric.
    """

    label: str
    module: str
    attr: str
    cls: str = None
    counts: dict = field(default_factory=dict)

    def resolve(self):
        owner = importlib.import_module(self.module)
        if self.cls is not None:
            owner = getattr(owner, self.cls)
            return owner, owner.__dict__[self.attr]
        return owner, getattr(owner, self.attr)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    job: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """Context manager installing span-recording wrappers around targets."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans = []
        self.absent = []
        self.job = None
        self._stack = []
        self._patched = []

    def __enter__(self):
        for target in self.targets:
            try:
                owner, original = target.resolve()
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target.label)
                continue
            wrapper = self._wrap(target, original)
            if target.cls is not None:
                self._patch(owner, target.attr, original, wrapper)
                continue
            for module in self._package_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    @staticmethod
    def _package_modules():
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, target, original):
        label = target.label
        counts = target.counts
        spans = self.spans
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(label, time.perf_counter(), math.nan,
                        stack[-1] if stack else -1, self.job)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
                span.counts = {name: count(args, kwargs, result)
                               for name, (_, count) in counts.items()}
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return wrapper


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _nodes(shape):
    return int(math.prod(shape))


def _form_nodes(args, kwargs, result):
    return _nodes(_arg(args, kwargs, 0, "a").torus.shape)


def _hodge_bytes(args, kwargs, result):
    form, metric = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "g")
    return form.coeffs.nbytes + metric.components.nbytes + result.coeffs.nbytes


TARGETS = [
    Target("cli.main", "slmoduli.cli", "main"),
    Target("cymodel.validate_axioms", "slmoduli.cymodel", "validate_axioms"),
    Target("forms.hodge_star", "slmoduli.forms", "hodge_star",
           counts={"forms.hodge_star.nodes": ("count", _form_nodes),
                   "forms.hodge_star.bytes": ("B", _hodge_bytes)}),
    Target("forms.exterior_derivative", "slmoduli.forms", "exterior_derivative",
           counts={"forms.exterior_derivative.nodes": ("count", _form_nodes)}),
    Target("forms.wedge", "slmoduli.forms", "wedge"),
    Target("forms.l2_inner", "slmoduli.forms", "l2_inner"),
    Target("forms.MetricField", "slmoduli.forms", "__init__", cls="MetricField"),
    Target("family.specialness_scan", "slmoduli.family", "specialness_scan",
           counts={"family.scan_points": ("count", lambda a, k, r: len(r["points"]))}),
    Target("family.period_matrices", "slmoduli.family", "period_matrices",
           cls="AffineSLagFamily"),
    Target("family.mclean_check", "slmoduli.family", "mclean_check", cls="AffineSLagFamily"),
    Target("family.mclean_metric", "slmoduli.family", "mclean_metric", cls="AffineSLagFamily"),
    Target("family.moduli_coordinates", "slmoduli.family", "moduli_coordinates"),
    Target("hessian.solve_ma_dirichlet", "slmoduli.hessian", "solve_ma_dirichlet"),
    Target("hessian.spsolve", "slmoduli.hessian", "spsolve",
           counts={"hessian.spsolve.unknowns":
                   ("count", lambda a, k, r: int(_arg(a, k, 0, "A").shape[0]))}),
    Target("hessian.legendre_transform", "slmoduli.hessian", "legendre_transform"),
    Target("hessian.fenchel_residual", "slmoduli.hessian", "fenchel_residual"),
    Target("hessian.hessian_metric", "slmoduli.hessian", "hessian_metric"),
    Target("hessian.partial_legendre_2d", "slmoduli.hessian", "partial_legendre_2d"),
    Target("hessian.save_potential", "slmoduli.hessian", "save_potential",
           counts={"hessian.save_potential.bytes":
                   ("B", lambda a, k, r: _arg(a, k, 0, "pot").values.nbytes)}),
    Target("hessian.load_potential", "slmoduli.hessian", "load_potential",
           counts={"hessian.load_potential.bytes": ("B", lambda a, k, r: r.values.nbytes)}),
    Target("fd.apply_diff", "slmoduli.fd", "apply_diff",
           counts={"fd.apply_diff.nodes": ("count", lambda a, k, r: int(r.size))}),
    Target("fd.hessian_field", "slmoduli.fd", "hessian_field"),
    Target("semiflat.build_semiflat", "slmoduli.semiflat", "build_semiflat"),
    Target("semiflat.ricci_form", "slmoduli.semiflat", "ricci_form"),
    Target("semiflat.ricci_agreement", "slmoduli.semiflat", "ricci_agreement"),
    Target("semiflat.ricci_from_metric", "slmoduli.semiflat", "ricci_from_metric",
           counts={"semiflat.ricci_from_metric.nodes":
                   ("count", lambda a, k, r: _nodes(r.shape[:-2]))}),
    Target("semiflat.holomorphic_norm_field", "slmoduli.semiflat", "holomorphic_norm_field"),
    Target("semiflat.gh_metric", "slmoduli.semiflat", "gh_metric"),
]

COMMANDS = ("cy-validate", "family-scan", "embed", "legendre", "ma-solve",
            "partial-legendre", "semiflat", "gh")

SOLVE = "hessian.solve_ma_dirichlet"


def metric_units():
    """Name -> unit of every per-layer metric ``summarize`` emits."""
    units = {}
    for target in TARGETS:
        units[f"{target.label}.calls"] = "count"
        units[f"{target.label}.busy_s"] = "s"
        units[f"{target.label}.self_s"] = "s"
    for command in COMMANDS:
        units[f"cli.{command}.busy_s"] = "s"
    for target in TARGETS:
        units.update((name, unit) for name, (unit, _) in target.counts.items())
    units["hessian.newton_steps"] = "count"
    units["hessian.residual_evals"] = "count"
    units["hessian.linesearch_useful_ratio"] = "ratio"
    return units


def _has_ancestor(spans, span, name):
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def summarize(spans, job_commands):
    """Per-layer metrics of one traced pass.

    ``busy_s`` is wall time inside the function; ``self_s`` subtracts the
    time covered by traced child spans.
    ``job_commands`` maps job id to CLI command for ``cli.<command>.busy_s``.
    """
    out = {name: 0.0 for name in metric_units()}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    for i, span in enumerate(spans):
        duration = span.end - span.start
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += duration - child_time[i]
        out[f"{span.name}.busy_s"] += duration
        if span.name == "cli.main":
            out[f"cli.{job_commands[span.job]}.busy_s"] += duration
        for name, value in span.counts.items():
            out[name] += value
    solves = out[f"{SOLVE}.calls"]
    spsolves = sum(1 for s in spans if s.name == "hessian.spsolve" and _has_ancestor(spans, s, SOLVE))
    out["hessian.newton_steps"] = spsolves - solves
    out["hessian.residual_evals"] = sum(
        1 for s in spans
        if s.name == "fd.hessian_field" and s.parent >= 0 and spans[s.parent].name == SOLVE
    )
    # every residual evaluation after a solve's first one is a line-search trial
    trials = out["hessian.residual_evals"] - solves
    out["hessian.linesearch_useful_ratio"] = out["hessian.newton_steps"] / trials if trials else 0.0
    return out
