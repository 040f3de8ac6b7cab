"""Spans and counts recorded around the package's layer entry points.

The tracer replaces class methods and module functions of ``shapdec`` with
thin wrappers, so every caller is caught whatever name it imported. A
wrapper does nothing but call through while the tracer is disabled. While
enabled it records a span (name, start, end, parent) in flat in-memory
arrays and bumps counters; ``summary`` turns them into per-row layer
metrics, and ``save`` writes the spans out when the run ends.

A span's self time is its duration minus the durations of its direct
children. Entry points that a later version of the package drops are
skipped, and their metrics read 0.
"""

from __future__ import annotations

import functools
import pathlib
import sys
import time
import weakref
from array import array

import numpy as np

perf_counter = time.perf_counter

# (span name, metric key, "self" or "total"): time metrics reported per row
_TIME_METRICS = (
    ("core.generator", "core.generator_s", "total"),
    ("distributions.copula.sample", "distributions.copula_sample_s", "total"),
    ("models.linear.predict", "models.linear.predict_s", "total"),
    ("models.forest.predict", "models.forest.predict_s", "total"),
    ("models.external.predict", "models.external.predict_s", "total"),
    ("models.external.roundtrip", "models.external.roundtrip_s", "total"),
    ("engine.decompose", "engine.decompose_s", "self"),
    ("engine.kernel_shap", "engine.kernel_shap_s", "self"),
    ("engine.interventional_parts", "engine.interventional_parts_s", "self"),
    ("cli.read_csv", "cli.read_csv_s", "total"),
    ("cli.write", "cli.write_s", "total"),
    ("viz.render", "viz.render_s", "total"),
)

# counters reported per row
_COUNT_METRICS = (
    "core.generator_builds",
    "distributions.sample_calls",
    "distributions.draw_rows",
    "distributions.masks_solved",
    "models.linear.predict_calls",
    "models.linear.predict_rows",
    "models.forest.predict_calls",
    "models.forest.predict_rows",
    "models.forest.tree_walks",
    "models.external.predict_calls",
    "models.external.predict_rows",
    "models.external.roundtrips",
    "models.external.request_bytes",
    "engine.vf_evaluations",
)

_SAMPLER_SPANS = ("distributions.gaussian.sample", "distributions.copula.sample")


class Tracer:
    def __init__(self):
        self.enabled = False
        self._ids: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list = []
        self._seen = weakref.WeakKeyDictionary()  # sampler -> masks it has seen
        self._decompose = -1  # span index of the innermost open decompose
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self):
        """Forget spans and counters; keep the masks samplers have seen."""
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[str, float] = {}
        self._vf_keys: set = set()

    def name_id(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> float:
        now = perf_counter()
        self.end[idx] = now
        self._stack.pop()
        return now - self.start[idx]

    def add(self, key: str, n: float = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def _parent_name(self) -> int:
        top = self._stack[-1]
        return self.name[top] if top >= 0 else -1

    # -- installing wrappers ----------------------------------------------

    def _wrapped(self, name, fn, account=None, before=None):
        """Span-recording wrapper; ``account(idx, seconds, args, kwargs)`` runs
        after the span closes, ``before(args, kwargs)`` before it opens."""
        tracer = self
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = tracer.close(idx)
                if account is not None:
                    account(idx, seconds, args, kwargs, token)

        return wrapper

    def _counted(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.add(key)
            return fn(*args, **kwargs)

        return wrapper

    def _patch_method(self, cls, attr, make):
        original = cls.__dict__.get(attr) if cls is not None else None
        if original is None:
            return
        setattr(cls, attr, make(original))
        self._patches.append((cls, attr, original))

    def _patch_function(self, module, attr, make):
        """Replace ``module.attr`` in every loaded shapdec module bound to it."""
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "shapdec" or mod_name.startswith("shapdec.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def install(self):
        """Wrap the entry points of core, distributions, models, engine, cli
        and viz. Call once, after ``shapdec.cli`` is imported."""
        import shapdec.cli as cli
        import shapdec.core as core
        import shapdec.distributions as dist
        import shapdec.engine as engine
        import shapdec.models as models
        import shapdec.viz as viz

        def count_generator(idx, seconds, args, kwargs, token):
            self.add("core.generator_builds")

        self._patch_method(
            getattr(core, "RngStream", None),
            "generator",
            lambda fn: self._wrapped("core.generator", fn, count_generator),
        )

        for cls_name, span in (
            ("GaussianSampler", "distributions.gaussian.sample"),
            ("CopulaSampler", "distributions.copula.sample"),
        ):
            self._patch_method(
                getattr(dist, cls_name, None),
                "sample_conditional",
                functools.partial(self._sampler_wrapper, span),
            )

        for cls_name, kind in (
            ("LinearModel", "linear"),
            ("ForestModel", "forest"),
            ("ExternalModel", "external"),
        ):
            self._patch_method(
                getattr(models, cls_name, None),
                "predict",
                functools.partial(self._predict_wrapper, kind),
            )
        self._patch_method(
            getattr(models, "_FlatTree", None),
            "predict",
            lambda fn: self._counted("models.forest.tree_walks", fn),
        )

        def account_roundtrip(idx, seconds, args, kwargs, token):
            self.add("models.external.roundtrips")

        self._patch_method(
            getattr(models, "ExternalModel", None),
            "_roundtrip",
            lambda fn: self._wrapped("models.external.roundtrip", fn, account_roundtrip),
        )
        for fit in ("fit_ols", "fit_forest"):
            self._patch_function(models, fit, lambda fn: self._wrapped("models.fit", fn))

        self._patch_function(engine, "decompose", self._decompose_wrapper)
        for fn_name in ("kernel_shap", "interventional_parts"):
            self._patch_function(
                engine, fn_name, functools.partial(self._wrapped, f"engine.{fn_name}")
            )
        self._patch_method(
            getattr(engine, "ValueFunction", None), "evaluate", self._evaluate_wrapper
        )

        self._patch_function(cli, "read_csv", lambda fn: self._wrapped("cli.read_csv", fn))
        experiments = sys.modules.get("shapdec.experiments")
        self._patch_function(experiments, "write_json", lambda fn: self._wrapped("cli.write", fn))
        self._patch_method(pathlib.Path, "write_text", self._cli_write_wrapper)
        for fn_name in ("render_force_plot", "render_line_chart"):
            self._patch_function(viz, fn_name, lambda fn: self._wrapped("viz.render", fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers that need more than a span -------------------------------

    def _sampler_wrapper(self, span, fn):
        sampler_ids = {self.name_id(s) for s in _SAMPLER_SPANS}

        def before(args, kwargs):
            # only the outermost sampler call counts: a copula's latent
            # Gaussian draw is part of the copula call around it
            if self._parent_name() in sampler_ids:
                return None
            sampler, known = args[0], args[1] if len(args) > 1 else kwargs["known"]
            seen = self._seen.setdefault(sampler, set())
            cold = known.mask not in seen
            seen.add(known.mask)
            return cold

        def account(idx, seconds, args, kwargs, cold):
            if cold is None:
                return
            count = args[3] if len(args) > 3 else kwargs.get("count", 0)
            self.add("distributions.sample_calls")
            self.add("distributions.draw_rows", int(count))
            if cold:
                self.add("distributions.masks_solved")
                self.add("distributions.cold_sample_s", seconds)
            else:
                self.add("distributions.warm_sample_s", seconds)

        return self._wrapped(span, fn, account, before)

    def _predict_wrapper(self, kind, fn):
        def account(idx, seconds, args, kwargs, token):
            rows = args[1] if len(args) > 1 else kwargs.get("rows")
            shape = np.shape(rows)
            self.add(f"models.{kind}.predict_calls")
            self.add(f"models.{kind}.predict_rows", shape[0] if len(shape) == 2 else 1)

        return self._wrapped(f"models.{kind}.predict", fn, account)

    def _decompose_wrapper(self, fn):
        nid = self.name_id("engine.decompose")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            outer = self._decompose
            self._decompose = idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                self._decompose = outer

        return wrapper

    def _evaluate_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(vf, x, coalition, *rest, **kwargs):
            if self.enabled:
                self.add("engine.vf_evaluations")
                self._vf_keys.add((self._decompose, coalition.mask))
            return fn(vf, x, coalition, *rest, **kwargs)

        return wrapper

    def _cli_write_wrapper(self, fn):
        nid = self.name_id("cli.write")
        main = self.name_id("cli.main")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not (self.enabled and main in (self.name[i] for i in self._stack[1:])):
                return fn(*args, **kwargs)
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    # -- results ------------------------------------------------------------

    def summary(self, rows: int) -> dict:
        """Per-row layer metrics over everything recorded since ``reset``."""
        names = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, int)
        start = np.frombuffer(self.start, dtype=float) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=float) if len(self.end) else np.zeros(0)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, int)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        per_row = 1.0 / max(rows, 1)
        out = {}
        for span, key, kind in _TIME_METRICS:
            nid = self._ids.get(span)
            picked = names == nid if nid is not None else np.zeros(len(names), bool)
            out[key] = float((own if kind == "self" else dur)[picked].sum()) * per_row
        for key in _COUNT_METRICS:
            out[key] = float(self.counts.get(key, 0)) * per_row
        for key in ("distributions.cold_sample_s", "distributions.warm_sample_s"):
            out[key] = float(self.counts.get(key, 0.0)) * per_row
        distinct = len(self._vf_keys)
        out["engine.vf_distinct_masks"] = distinct * per_row
        evaluations = self.counts.get("engine.vf_evaluations", 0)
        out["engine.vf_distinct_ratio"] = distinct / evaluations if evaluations else 0.0
        return out

    def total_s(self, span: str) -> float:
        """Summed duration of every recorded span with this name."""
        nid = self._ids.get(span)
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.name)) if self.name[i] == nid
        )

    def save(self, path):
        """Write the recorded spans as numpy arrays plus the name table."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(sorted(self._ids, key=self._ids.get)),
            name=np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32),
            start=np.frombuffer(self.start, dtype=float) if len(self.start) else np.zeros(0),
            end=np.frombuffer(self.end, dtype=float) if len(self.end) else np.zeros(0),
            parent=np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32),
        )


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        if self.tracer.enabled:
            self.idx = self.tracer.open(self.nid)
        else:
            self.idx = None
        return self

    def __exit__(self, *exc):
        if self.idx is not None:
            self.tracer.close(self.idx)
        return False
