"""Span tracing around the public calls of each branchgf layer.

The tracer measures the package from outside: while installed it replaces
selected functions, methods and cached properties with wrappers that
record a span (name, start, end, parent) or only count calls, and it puts
the originals back when uninstalled.  A module-level function is replaced
in every branchgf namespace that binds it, because several modules import
their callees by name (engine binds resolvent_column, commuting binds
build_branching, ...); patching only the defining module would silently
miss those calls.

Spans stay in memory; per-layer figures are derived from them after a
pass.  A layer's self time is the time of its spans minus the time of
their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Calls that get a span.  The metric prefix's first component names the
# layer.  Owners are "module" or "module.Class" inside branchgf.
SPANS = (
    ("cli.main", "cli", "main"),
    ("engine.build_branching", "engine", "build_branching"),
    ("engine.class_gfs", "engine", "class_gfs"),
    ("engine.gf_total", "engine", "gf_total"),
    ("polyring.resolvent_column", "polyring", "resolvent_column"),
    ("polyring.bareiss_det", "polyring", "bareiss_det"),
    ("polyring.ratfun_sum", "polyring", "ratfun_sum"),
    ("polyring.series", "polyring.RatFun", "series"),
    ("perms.key_for", "perms.KeyRegistry", "key_for"),
    ("perms.fingerprint", "perms.PermGroup", "fingerprint"),
    ("perms.derived_subgroup_order", "perms.PermGroup", "derived_subgroup_order"),
    ("perms.conjugacy_classes", "perms.PermGroup", "conjugacy_classes"),
    ("perms.is_isomorphic", "perms", "is_isomorphic"),
    ("perms.centralizer", "perms.PermGroup", "centralizer"),
    ("commuting.commuting_gf", "commuting", "commuting_gf"),
    ("commuting.burnside_gf", "commuting", "burnside_gf"),
    ("commuting.symmetric_burnside_gf", "commuting", "symmetric_burnside_gf"),
    ("commuting.commuting_orbit_counts", "commuting", "commuting_orbit_counts"),
    ("matrixalg.key_for", "matrixalg.RingKeyRegistry", "key_for"),
    ("matrixalg.ring_fingerprint", "matrixalg", "ring_fingerprint"),
    ("matrixalg.ring_is_isomorphic", "matrixalg", "ring_is_isomorphic"),
    ("matrixalg.unit_conjugacy_classes", "matrixalg", "unit_conjugacy_classes"),
    ("matrixalg.centralizer_ring", "matrixalg", "centralizer_ring"),
    ("matrixalg.module_gf", "matrixalg", "module_gf"),
    ("matrixalg.module_orbit_counts", "matrixalg", "module_orbit_counts"),
    ("configs.point_orbit_counts", "configs", "point_orbit_counts"),
    ("configs.vector_orbit_counts", "configs", "vector_orbit_counts"),
    ("configs.row_space_bijection_check", "configs", "row_space_bijection_check"),
)

# Calls too frequent for a span each (millions per pass): counted only.
COUNTS = (
    ("polyring.poly_gcd", "polyring", "poly_gcd"),
    ("polyring.Poly.mul", "polyring.Poly", "__mul__"),
    ("perms.Perm.mul", "perms.Perm", "__mul__"),
    ("perms.Perm.init", "perms.Perm", "__init__"),
    ("matrixalg.mat_mul", "matrixalg", "mat_mul"),
)

# Spans whose boolean result is tallied as "<name>.matched".
MATCHED = frozenset({"perms.is_isomorphic", "matrixalg.ring_is_isomorphic"})


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(".")
    module = sys.modules[f"branchgf.{module_name}"]
    return getattr(module, class_name) if class_name else module


def package_modules():
    """The loaded modules of the branchgf package, the package itself included."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "branchgf" or name.startswith("branchgf."))
    ]


class Tracer:
    """Records spans and call counts for one pass while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self.engine_classes = 0
        self.resolvent_dim = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        matched = name in MATCHED
        on_result = {
            "engine.build_branching": self._on_branching,
            "polyring.resolvent_column": self._on_resolvent,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if matched and result:
                counts[name + ".matched"] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts, key = self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_branching(self, bm) -> None:
        self.engine_classes += bm.size

    def _on_resolvent(self, column) -> None:
        self.resolvent_dim = max(self.resolvent_dim, len(column))

    def job(self, name: str, run):
        """Run one benchmark job under a root span; every layer span nests under it."""
        return self._span(f"job.{name}", run)()

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner: str, attr: str, make) -> None:
        target = _resolve(owner)
        if isinstance(target, type):
            original = target.__dict__[attr]
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(make(original.func))
                replacement.__set_name__(target, attr)
            else:
                replacement = make(original)
            self._set(target, attr, replacement)
            return
        original = getattr(target, attr)
        replacement = make(original)
        for namespace in package_modules():
            for key, value in list(vars(namespace).items()):
                if value is original:
                    self._set(namespace, key, replacement)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            for name, owner, attr in SPANS:
                self._patch(owner, attr, functools.partial(self._span, name))
            for name, owner, attr in COUNTS:
                self._patch(owner, attr, functools.partial(self._count, name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- derived figures ----------------------------------------------------

    def figures(self) -> dict[str, float]:
        """Inclusive seconds, calls and matches per span name, self seconds
        per layer, call counts, and the engine's class counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = dict(self.counts)
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + duration - child_time[index]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            if not self._nested_in_same(index):
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + duration
        out["engine.classes"] = self.engine_classes
        out["engine.resolvent_dim"] = self.resolvent_dim
        return out

    def _nested_in_same(self, index: int) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layers_seen(self) -> set[str]:
        return {name.split(".", 1)[0] for name, *_ in self.spans}

    def write_spans(self, path, header: dict) -> None:
        """One JSON header line, then one [name, start, end, parent] line per span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - base, 9), round(end - base, 9), parent]) + "\n")
