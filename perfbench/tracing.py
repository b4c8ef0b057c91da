"""Spans and counters recorded around affinelab's public calls.

Nothing here edits the library.  `Tracer.install` replaces public
functions and methods with wrappers in every affinelab module namespace
that holds them, and wraps per-chart callables on one catalog's
instances.  Calls of a few microseconds are counted but not spanned, so
their time stays in the caller's span.  `uninstall` restores everything.

A span is [name, parent index, start, end].  Spans live in memory until
`self_ms` folds them into per-layer self times; `dump` writes them out.
"""
from __future__ import annotations

import gzip
import json
import math
import sys
import time
from collections import Counter

LAYERS = ("atlas", "connection", "numdiff", "bundles", "flows", "geodesics",
          "frame_bundle", "killing", "automorphism", "catalog", "harness")

# Spanned callables per module: "fn" is a module function, "Class.method" a method.
SPANNED = {
    "atlas": ("Atlas.hop_target", "Atlas.gap", "Atlas.rechart_tangent", "Atlas.sample_points",
              "Atlas.overlap_samples"),
    "connection": ("change_of_variable_residual", "covariant_derivative", "connector_apply",
                   "from_christoffel"),
    "numdiff": ("jacobian", "second_derivative", "directional"),
    "bundles": ("bundle_atlas", "tangent_atlas", "frame_atlas"),
    "flows": ("_run", "integrate", "variational_flow", "flow_word", "commutation_defect",
              "lie_derivative_defect", "parameter_flow_derivative_defect", "combine",
              "constant_field"),
    "geodesics": ("geodesic_field", "geodesic", "exp_map", "exp_inverse", "parallel_transport",
                  "completeness_probe"),
    "frame_bundle": ("kappa", "kappa_inverse", "kappa_matrix", "kappa_inverse_field",
                     "standard_horizontal", "horizontal_flow", "horizontal_projection_parts",
                     "horizontal_projection_defect"),
    "killing": ("natural_lift", "killing_residual", "bracket", "lift_commutation_defect",
                "ev_embedding", "seed_lift", "extend_killing", "path_to", "gram_rank"),
    "automorphism": ("affine_residual", "exp_aut", "frame_lift", "orbit_point", "frame_gap",
                     "kappa_pullback_parts", "kappa_pullback_defect", "exp_commutes_defect",
                     "Diffeo.d2_dir", "ClosedFormDiffeo.apply", "ClosedFormDiffeo.jac",
                     "ClosedFormDiffeo.d2_dir", "FlowWord.apply", "FlowWord.jac",
                     "FlowWord.tangent", "FrameDiffeo.apply_frame", "FrameDiffeo.tangent_frame"),
    "catalog": ("sphere_rotation", "plane_affine_map"),
    "harness": ("run_suite", "load_scenario", "scenario_from_dict", "emit"),
    "cli": ("main",),
}

# Microsecond-scale callables: counted under the given key, never spanned.
COUNTED = {
    "atlas": {"Atlas.transition": "atlas.transition_calls",
              "Atlas.d_transition": "atlas.transition_calls",
              "Atlas.d2_transition": "atlas.transition_calls"},
}

# The cli module is the harness's front end and reports under its layer.
LAYER_OF_MODULE = {"cli": "harness"}

# flows._run's termination statuses that rk4_steps distinguishes
_STATUS_OK, _STATUS_HOP_LIMIT = "ok", "hop_limit"


def rk4_steps(t, step, t_reached, status):
    """Steps flows._run took for a call integrating to t at `step`."""
    if t == 0.0:
        return 0
    n = max(1, int(math.ceil(abs(t) / step - 1e-12)))
    if status == _STATUS_OK:
        return n
    taken = int(round(abs(t_reached) / (abs(t) / n)))
    # a hop-limit stop counts its last step as reached; other stops do not
    return taken if status == _STATUS_HOP_LIMIT else min(n, taken + 1)


def replace_in_library(original, new):
    """Point every affinelab module's global bound to `original` at `new`.

    Returns (module, name, original) triples for restoring.
    """
    replaced = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "affinelab" or name.startswith("affinelab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, new)
                replaced.append((module, attr, original))
    return replaced


def _lookup(module, dotted):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def span(self, name, fn, after=None):
        """Wrap fn so each call records a span; `after(args, kwargs, result)` may count."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def inside(self, name) -> bool:
        """True when a span called `name` is open."""
        return any(self.spans[i][0] == name for i in self.stack)

    # -- per-call counters ------------------------------------------------------

    def _after_run(self, args, kwargs, out):
        t = args[2] if len(args) > 2 else kwargs["t"]
        cfg = args[3] if len(args) > 3 else kwargs["cfg"]
        _, _, t_reached, status = out
        self.counts["flows.calls"] += 1
        self.counts["flows.rk4_steps"] += rk4_steps(t, cfg.step, t_reached, status)

    def _after_hop_target(self, args, kwargs, out):
        self.counts["atlas.hop_checks"] += 1
        if out is not None:
            self.counts["atlas.hops"] += 1

    def _after_exp_map(self, args, kwargs, out):
        if self.inside("geodesics.exp_inverse"):
            self.counts["geodesics.exp_inverse.shots"] += 1

    def _after_probe(self, args, kwargs, out):
        for row in out.rows:
            self.counts[f"geodesics.probe_status.{row.status_forward}"] += 1
            self.counts[f"geodesics.probe_status.{row.status_backward}"] += 1

    def _count_calls(self, key):
        def after(args, kwargs, out):
            self.counts[key] += 1
        return after

    # -- installation -------------------------------------------------------------

    def _hooks(self):
        """Span name -> counter hook run after each call."""
        hooks = {
            "flows._run": self._after_run,
            "atlas.Atlas.hop_target": self._after_hop_target,
            "geodesics.exp_map": self._after_exp_map,
            "geodesics.completeness_probe": self._after_probe,
            "geodesics.parallel_transport": self._count_calls("geodesics.parallel_transport.calls"),
            "killing.killing_residual": self._count_calls("killing.killing_residual.calls"),
            "automorphism.exp_aut": self._count_calls("automorphism.exp_aut.calls"),
        }
        for fn in SPANNED["numdiff"]:
            hooks[f"numdiff.{fn}"] = self._count_calls("numdiff.fd_calls")
        return hooks

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new):
        self._restore.extend(replace_in_library(original, new))

    def install(self, affinelab, catalog):
        """Wrap the library's public calls and `catalog`'s per-chart callables."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import importlib

        hooks = self._hooks()
        for module_name, names in SPANNED.items():
            module = importlib.import_module(f"affinelab.{module_name}")
            layer = LAYER_OF_MODULE.get(module_name, module_name)
            for dotted in names:
                owner, attr = _lookup(module, dotted)
                original = owner.__dict__[attr]
                name = f"{layer}.{dotted}"
                wrapped = self.span(name, original, hooks.get(name))
                if owner is module:
                    self._replace_everywhere(original, wrapped)
                else:
                    self._replace(owner, attr, wrapped)
        for module_name, names in COUNTED.items():
            module = importlib.import_module(f"affinelab.{module_name}")
            for dotted, key in names.items():
                owner, attr = _lookup(module, dotted)
                self._replace(owner, attr, self.counter(key, owner.__dict__[attr]))
        self._wrap_catalog(affinelab, catalog)

    def _wrap_catalog(self, affinelab, catalog):
        """Count catalog ChartField.value and ConnChart.bilinear/tensor calls, and
        span the derived bundle atlases' transitions.

        Must run before the catalog's lazy caches are filled: the geodesic
        spray captures the connection's bilinear callable when first built.
        """
        for manifold in catalog.manifold_names():
            atlas = catalog.atlas(manifold)
            for cname in catalog.connection_names(manifold):
                conn = catalog.connection(manifold, cname)
                for cid in atlas.charts:
                    if conn.has_chart(cid):
                        cc = conn._chart(cid)
                        for attr in ("bilinear", "tensor"):
                            self._replace(cc, attr, self.counter("connection.B_evals",
                                                                 getattr(cc, attr)))
            for fname in catalog.field_names(manifold):
                fld = catalog.field(manifold, fname)
                for cid in atlas.charts:
                    if fld.has_chart(cid):
                        cf = fld.chart_field(cid)
                        self._replace(cf, "value", self.counter("flows.field_evals", cf.value))
            for bundle in (affinelab.bundles.tangent_atlas(atlas),
                           affinelab.bundles.frame_atlas(atlas)):
                for chart in bundle.charts.values():
                    for tr in chart.transitions.values():
                        for attr in ("map", "d"):
                            self._replace(tr, attr, self.span("bundles.transition",
                                                              getattr(tr, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------------------

    def self_ms(self):
        """Self time in ms per layer, plus "bench" for the benchmark's own spans."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        layers = dict.fromkeys(LAYERS + ("bench",), 0.0)
        for (name, parent, t0, t1), covered in zip(self.spans, child):
            layers[name.split(".", 1)[0]] += 1000.0 * (t1 - t0 - covered)
        return layers

    def dump(self, path):
        """Write spans as JSON lines [name, parent, start_us, duration_us]."""
        if not self.spans:
            return
        base = self.spans[0][2]
        with gzip.open(path, "wt") as fh:
            for name, parent, t0, t1 in self.spans:
                fh.write(json.dumps([name, parent, round(1e6 * (t0 - base), 3),
                                     round(1e6 * (t1 - t0), 3)]) + "\n")
