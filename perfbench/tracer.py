"""Layer tracer: spans around calls into the curvedelta modules and the
dense linear-algebra entry points, recorded from outside the library.

Each public function is wrapped in every curvedelta.* namespace that binds
it (spectral, cli, scattering and resolvent import by name), and the
numpy/scipy linalg attributes are replaced on their modules.  Spans are
kept in memory: name, start, end, parent span and query id.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy
import scipy.linalg

LINALG = ((scipy.linalg, "eigh"), (scipy.linalg, "solve"), (scipy.linalg, "svdvals"),
          (numpy.linalg, "cond"), (numpy.linalg, "qr"), (numpy.linalg, "solve"))
# metrics reported per traced function; BENCHMARK.json lists the same names
REPORTED = {
    "assembly.boundary_matrix": ("calls", "total_s", "self_s", "repeat_frac"),
    "assembly.circle_operator_matrix": ("calls", "total_s", "repeat_frac"),
    "assembly.smoothing_matrix": ("calls", "total_s"),
    "assembly.comparison_matrix": ("calls", "total_s"),
    "kernels.green_kernel": ("total_s",),
    "kernels.smoothing_kernel": ("total_s",),
    "kernels.scattering_kernel": ("total_s",),
    "spectral.eigen": ("calls", "total_s", "self_s"),
    "spectral.eigenvalue_at": ("calls", "total_s"),
    "spectral.find_bound_states": ("calls", "total_s"),
    "spectral.count_bound_states": ("total_s",),
    "spectral.isoperimetric_compare": ("total_s",),
    "linalg.eigh": ("calls", "total_s"),
    "linalg.eigh_subset": ("calls", "total_s"),
    "linalg.cond": ("total_s",),
    "linalg.solve": ("total_s",),
    "linalg.qr": ("total_s",),
    "linalg.svdvals": ("total_s",),
    "scattering.choose_reference_energy": ("total_s",),
    "scattering.scattering_layer_matrix": ("calls", "total_s"),
    "scattering.scattering_block": ("calls", "total_s", "self_s"),
    "resolvent.make_box": ("total_s",),
    "resolvent.correction_singular_values": ("total_s",),
    "resolvent.layer_singular_values": ("total_s",),
    "curves.curve_from_json_dict": ("calls", "total_s"),
    "curves.make_grid": ("calls", "total_s"),
    "curves.circle_deviation": ("calls", "total_s"),
    "cli.main": ("calls", "total_s", "self_s"),
}
# (curve, lambda, N) arguments that identify a repeated assembly
REPEAT_KEYED = ("assembly.boundary_matrix", "assembly.circle_operator_matrix",
                "assembly.smoothing_matrix", "assembly.comparison_matrix")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    query: int
    end: float = 0.0
    child_s: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg_key(value):
    if hasattr(value, "nodes"):           # ArcGrid: only its size matters
        return len(value.nodes)
    if isinstance(value, (int, float, complex)):
        return value
    return id(value)                       # a curve object, alive for the query


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.query = -1
        self._stack: list[int] = []
        self._seen: set = set()
        self._patches: list[tuple[object, str, object]] = []

    def start_query(self, query_id: int) -> None:
        self.query = query_id
        self._seen = set()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in REPEAT_KEYED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            extra = {}
            if name == "linalg.eigh":
                if kwargs.get("subset_by_index") is not None:
                    span_name = "linalg.eigh_subset"
                else:
                    extra["n3"] = float(numpy.shape(args[0])[0]) ** 3
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                key = (name,) + tuple(_arg_key(v) for v in bound.arguments.values())
                extra["repeat"] = key in self._seen
                self._seen.add(key)
            parent = self._stack[-1] if self._stack else None
            span = Span(span_name, 0.0, parent, self.query, extra=extra)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.duration
            if name == "spectral.find_bound_states":
                span.extra["states"] = len(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "curvedelta" or key.startswith("curvedelta.")]
        for name in REPORTED:
            layer, attr = name.split(".")
            if layer == "linalg":
                continue
            original = getattr(sys.modules[f"curvedelta.{layer}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        for module, attr in LINALG:
            self._patch(module, attr, self._wrap(f"linalg.{attr}", getattr(module, attr)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _under(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == ancestor:
                return True
            parent = self.spans[parent].parent
        return False

    def metrics(self) -> dict[str, float]:
        """Per-layer totals: calls, total_s, self_s and the derived counts."""
        calls, total, self_s, repeats, n3 = {}, {}, {}, {}, {}
        for span in self.spans:
            calls[span.name] = calls.get(span.name, 0) + 1
            total[span.name] = total.get(span.name, 0.0) + span.duration
            self_s[span.name] = self_s.get(span.name, 0.0) + span.duration - span.child_s
            repeats[span.name] = repeats.get(span.name, 0) + int(span.extra.get("repeat", 0))
            n3[span.name] = n3.get(span.name, 0.0) + span.extra.get("n3", 0.0)
        bs = "spectral.find_bound_states"
        states = sum(s.extra.get("states", 0) for s in self.spans if s.name == bs)
        assemblies = sum(1 for i, s in enumerate(self.spans)
                         if s.name == "assembly.boundary_matrix" and self._under(i, bs))
        solves = sum(1 for i, s in enumerate(self.spans)
                     if s.name in ("spectral.eigen", "spectral.eigenvalue_at")
                     and self._under(i, bs))

        def ratio(num, den):
            return num / den if den else 0.0

        fields = {"calls": calls, "total_s": total, "self_s": self_s}
        out = {}
        for name, wanted in REPORTED.items():
            for what in wanted:
                if what == "repeat_frac":
                    out[f"{name}.repeat_frac"] = ratio(repeats.get(name, 0), calls.get(name, 0))
                else:
                    out[f"{name}.{what}"] = fields[what].get(name, 0)
        out["linalg.eigh.n3_sum"] = n3.get("linalg.eigh", 0.0)
        out[f"{bs}.states"] = states
        out[f"{bs}.assemblies"] = assemblies
        out[f"{bs}.eigensolves"] = solves
        out["spectral.assemblies_per_state"] = ratio(assemblies, states)
        out["spectral.eigensolves_per_state"] = ratio(solves, states)
        return out
