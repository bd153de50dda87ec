"""Per-layer tracing of lscc, installed from outside the package.

`install()` replaces each traced public function with a timing wrapper in
every lscc module that holds a binding to it (``from .scheme import
induce_graph`` copies the name into the importing module), and wraps the
traced `LsccScheme` methods on the class.  Each wrapper adds its self time
(its span minus the spans of traced calls made inside it) and its call count
to the tracer.  A few observers record counts and useful-to-attempted ratios
at the same boundaries; the time they take is charged to no span.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time

#: traced functions per lscc module; the metric of each is "<module>.<name>"
LAYERS = {
    "cli": ("resolve_scheme",),
    "windowed": ("build_windowed_scheme",),
    "shiftinv": ("build_shiftinv_scheme",),
    "certify": ("estimate_local_stability", "sigma_strong", "complement_property_holds"),
    "scheme": (
        "descriptor_hash",
        "induce_graph",
        "measure",
        "measure_batch",
        "validate_local_phase_retrieval",
        "validate_edge_domination",
        "validate_exhaustion",
    ),
    "graphs": (
        "cheeger_interval",
        "cheeger_exact",
        "cheeger_sweep",
        "algebraic_connectivity",
        "is_connected",
    ),
    "measurement": ("align_phase", "align_phase_batch"),
    "stability": ("empirical_worst_ratio",),
    "harness": ("fuzz_bounds", "signal_bound", "write_csv", "write_manifest"),
}
#: traced names that are methods of lscc.scheme.LsccScheme
SCHEME_METHODS = ("descriptor_hash", "measure", "measure_batch")

SPANS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)
COUNTS = (
    "scheme.dense_bytes",
    "scheme.descriptor_bytes",
    "scheme.base_vertices",
    "scheme.kept_vertices",
    "graphs.max_vertices",
    "stability.pairs_drawn",
    "stability.pairs_valid",
    "harness.pairs_drawn",
    "harness.pairs_valid",
)

EMPIRICAL = "stability.empirical_worst_ratio"
FUZZ = "harness.fuzz_bounds"


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.calls = dict.fromkeys(SPANS, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.missing: list[str] = []
        # one [span name, seconds spent in traced children] per open span
        self._open: list[list] = []

    def parent(self) -> str | None:
        return self._open[-1][0] if self._open else None

    def _uncharged(self, started: float) -> None:
        """Hide the time since `started` from the enclosing span's self time."""
        if self._open:
            self._open[-1][1] += time.perf_counter() - started

    def wrap(self, name: str, fn, observe=None):
        clock = time.perf_counter
        open_spans = self._open
        self_s, calls = self.self_s, self.calls

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            open_spans.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                self_s[name] += elapsed - frame[1]
                calls[name] += 1
                if open_spans:
                    open_spans[-1][1] += elapsed
            if observe is not None:
                started = clock()
                observe(args, result)
                self._uncharged(started)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- observers ---------------------------------------------------------

    def _observe_graph(self, args, _result) -> None:
        n = getattr(args[0], "num_vertices", 0) if args else 0
        if n > self.counts["graphs.max_vertices"]:
            self.counts["graphs.max_vertices"] = n

    def _observe_induce(self, args, result) -> None:
        self.counts["scheme.base_vertices"] += args[0].num_vertices
        self.counts["scheme.kept_vertices"] += result.num_vertices

    def _observe_align(self, args, _result) -> None:
        # every pair empirical_worst_ratio draws reaches align_phase; the pair
        # is phase-equivalent (not valid) when its phaseless distance is
        # below DENOM_CUTOFF * ||x||, the rule empirical_worst_ratio applies
        if self.parent() != EMPIRICAL:
            return
        import numpy as np
        from lscc.stability import DENOM_CUTOFF

        x, y = np.asarray(args[0]), np.asarray(args[1])
        p = float(args[3]) if len(args) > 3 else 2.0
        if x.ndim == 1:
            x, y = x[:, None], y[:, None]
        den = np.sum(np.abs(np.abs(x) - np.abs(y)) ** p, axis=0) ** (1.0 / p)
        scale = np.sum(np.abs(x) ** p, axis=0) ** (1.0 / p)
        self.counts["stability.pairs_drawn"] += den.size
        self.counts["stability.pairs_valid"] += int(np.sum(den >= DENOM_CUTOFF * scale))

    def _observe_measure_batch(self, args, result) -> None:
        if self.parent() == FUZZ:
            self.counts["harness.pairs_drawn"] += result.shape[1] if result.ndim == 2 else 1

    def _observe_fuzz(self, _args, result) -> None:
        self.counts["harness.pairs_valid"] += sum(e["pairs"] for e in result["schemes"])

    def _count_dense(self, post_init):
        counts = self.counts

        def counted(scheme):
            post_init(scheme)
            started = time.perf_counter()
            arrays = [fr.rows for fr in scheme.vertex_frames]
            arrays += list(scheme.vertex_projections) + list(scheme.edge_functionals.values())
            counts["scheme.dense_bytes"] += sum(a.nbytes for a in arrays)
            self._uncharged(started)

        return counted

    # -- metrics -----------------------------------------------------------

    def record(self) -> dict:
        return {
            "self_s": self.self_s,
            "calls": self.calls,
            "counts": self.counts,
            "missing": self.missing,
        }


class _CountingDigest:
    def __init__(self, digest, counts: dict):
        self._digest = digest
        self._counts = counts

    def update(self, data) -> None:
        self._counts["scheme.descriptor_bytes"] += len(data)
        self._digest.update(data)

    def __getattr__(self, name):
        return getattr(self._digest, name)


class _CountingHashlib:
    """Stands in for `hashlib` inside lscc.scheme, counting the bytes hashed."""

    def __init__(self, counts: dict):
        self._counts = counts

    def sha256(self, data=b""):
        digest = _CountingDigest(hashlib.sha256(), self._counts)
        digest.update(data)
        return digest

    def __getattr__(self, name):
        return getattr(hashlib, name)


def install() -> Tracer:
    """Wrap every traced lscc function and method; call after importing lscc."""
    tracer = Tracer()
    observers = {
        "scheme.induce_graph": tracer._observe_induce,
        "scheme.measure_batch": tracer._observe_measure_batch,
        "measurement.align_phase": tracer._observe_align,
        "measurement.align_phase_batch": tracer._observe_align,
        "harness.fuzz_bounds": tracer._observe_fuzz,
    }
    observers.update({s: tracer._observe_graph for s in SPANS if s.startswith("graphs.")})
    scheme_mod = importlib.import_module("lscc.scheme")
    cls = scheme_mod.LsccScheme
    modules = [m for n, m in sorted(sys.modules.items()) if n == "lscc" or n.startswith("lscc.")]
    for module_name, names in LAYERS.items():
        home = importlib.import_module(f"lscc.{module_name}")
        for name in names:
            span = f"{module_name}.{name}"
            if module_name == "scheme" and name in SCHEME_METHODS:
                original = cls.__dict__.get(name)
                if original is None:
                    tracer.missing.append(span)
                    continue
                setattr(cls, name, tracer.wrap(span, original, observers.get(span)))
                continue
            original = getattr(home, name, None)
            if original is None:
                tracer.missing.append(span)
                continue
            wrapped = tracer.wrap(span, original, observers.get(span))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    cls.__post_init__ = tracer._count_dense(cls.__post_init__)
    scheme_mod.hashlib = _CountingHashlib(tracer.counts)
    return tracer
