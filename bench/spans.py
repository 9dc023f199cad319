"""Spans recorded from outside the package, around calls into its modules.

``Tracer.install`` replaces module attributes of ``boostcap`` with wrappers
that open a span (name, start, end, parent) for every call and restores the
originals on ``uninstall``.  Spans are kept in flat in-memory arrays and
written out once, when the run ends.  A span is named ``<module>.<what>``;
a module's self time is the time of its spans minus the time their child
spans cover.

The channel's integrands are wrapped where it hands them to ``integrate``,
so the per-node work inside them (the per-node profile loop, for instance)
is charged to the channel and not to the quadrature.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from boostcap import capacity, channel, quadrature, sweep

MODULES = ("special_functions", "quadrature", "wavepacket", "channel", "capacity", "sweep")
SOLVES = ("capacity.boost_threshold", "capacity.gamma_threshold")

# (module object, attribute, span name): every reference through which the
# workloads reach a layer boundary; modules import functions by name, so
# each importing module's reference is wrapped
_TARGETS = (
    (channel, "_elliptic_ked", "special_functions.elliptic"),
    (capacity, "entropy", "special_functions.entropy"),
    (channel, "kernel_values", "wavepacket.kernel_values"),
    (channel, "lambda_numeric", "channel.lambda_numeric"),
    (capacity, "lambda_numeric", "channel.lambda_numeric"),
    (sweep, "lambda_numeric", "channel.lambda_numeric"),
    (channel, "rho_direct", "channel.rho_direct"),
    (channel, "identity_residuals", "channel.identity_residuals"),
    (sweep, "capacity_report", "capacity.capacity_report"),
    (capacity, "boost_threshold", "capacity.boost_threshold"),
    (capacity, "gamma_threshold", "capacity.gamma_threshold"),
    (capacity, "_hashing_raw_at", "capacity.hashing_raw_at"),
    (sweep, "run_sweep", "sweep.run_sweep"),
    (sweep, "_eval_point", "sweep.eval_point"),
    (sweep, "render_csv", "sweep.render_csv"),
    (sweep, "check_no_nan", "sweep.check_no_nan"),
)


class Tracer:
    """In-memory span store plus the counters a span cannot carry."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.gk15_nodes = 0
        self.frame_hits = 0
        self.azimuthal_profiles = 0
        self.closed_profiles = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _open(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and any(self.name[i] == nid for i in self._stack)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def _wrap_gk15(self, fn):
        def traced(f, lows, highs):
            self.gk15_nodes += 15 * len(lows)
            return self.span("quadrature.gk15", fn, f, lows, highs)
        return traced

    def _count_closed_profiles(self, fn):
        # a counter, not a span: these calls are the channel's own per-node
        # work, and a span each would double the trace of a curve
        def counted(*args):
            self.closed_profiles += 1
            return fn(*args)
        return counted

    def _wrap_frame_integrals(self, fn):
        def traced(*args):
            hits = fn.cache_info().hits
            try:
                return self.span("channel.frame_integrals", fn, *args)
            finally:
                self.frame_hits += fn.cache_info().hits - hits
        return traced

    def _wrap_integrate(self, fn):
        def traced(f, *args, **kwargs):
            # an integral opened inside a channel integrand is an adaptive
            # azimuthal profile at one polar node
            if self._open("channel.integrand"):
                self.azimuthal_profiles += 1
            wrapped = self._wrap("channel.integrand", f)
            return self.span("quadrature.integrate", fn, wrapped, *args, **kwargs)
        return traced

    # -- installation ----------------------------------------------------
    def _replace(self, obj, attr: str, new) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        for obj, attr, name in _TARGETS:
            self._replace(obj, attr, self._wrap(name, getattr(obj, attr)))
        self._replace(quadrature, "_gk15", self._wrap_gk15(quadrature._gk15))
        self._replace(channel, "phi_profile_closed",
                      self._count_closed_profiles(channel.phi_profile_closed))
        self._replace(channel, "integrate", self._wrap_integrate(channel.integrate))
        self._replace(channel, "_frame_integrals",
                      self._wrap_frame_integrals(channel._frame_integrals))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, fn = self._saved.pop()
            setattr(obj, attr, fn)

    # -- reduction -------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the span store; record no further spans while they live."""
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "names": np.array(self.names)}

    def counts(self) -> dict[str, int]:
        """Number of spans of each name."""
        hist = np.bincount(np.frombuffer(self.name, dtype=np.int32),
                           minlength=len(self.names))
        return {n: int(hist[i]) for i, n in enumerate(self.names)}

    def self_seconds(self) -> dict[str, float]:
        """Self time summed per module: span time minus child span time."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = dur.copy()
        child = a["parent"] >= 0
        np.subtract.at(own, a["parent"][child], dur[child])
        per_name = np.bincount(a["name"], weights=own, minlength=len(self.names))
        out = {m: 0.0 for m in MODULES}
        for i, n in enumerate(self.names):
            module = n.split(".", 1)[0]
            if module in out:
                out[module] += float(per_name[i])
        return out

    def evals_in_solves(self) -> int:
        """Channel evaluations made inside a threshold solve."""
        ids = {self._ids[n] for n in SOLVES if n in self._ids}
        target = self._ids.get("channel.lambda_numeric")
        if not ids or target is None:
            return 0
        n = 0
        for i, nid in enumerate(self.name):
            if nid != target:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] not in ids:
                p = self.parent[p]
            n += p >= 0
        return n


def per_layer(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per operation, with their units."""
    c = tracer.counts()
    own = tracer.self_seconds()
    solves = sum(c.get(n, 0) for n in SOLVES)
    frames = c.get("channel.frame_integrals", 0)
    return {
        "special_functions.elliptic_calls": (c.get("special_functions.elliptic", 0) / ops, "count"),
        "special_functions.self_s": (own["special_functions"] / ops, "s"),
        "quadrature.integrate_calls": (c.get("quadrature.integrate", 0) / ops, "count"),
        "quadrature.gk15_batches": (c.get("quadrature.gk15", 0) / ops, "count"),
        "quadrature.integrand_nodes": (tracer.gk15_nodes / ops, "count"),
        "quadrature.self_s": (own["quadrature"] / ops, "s"),
        "wavepacket.kernel_calls": (c.get("wavepacket.kernel_values", 0) / ops, "count"),
        "wavepacket.self_s": (own["wavepacket"] / ops, "s"),
        "channel.profile_calls": ((tracer.closed_profiles + tracer.azimuthal_profiles)
                                  / ops, "count"),
        "channel.self_s": (own["channel"] / ops, "s"),
        "channel.frame_evals": (frames / ops, "count"),
        "channel.frame_cache_hit_ratio": (tracer.frame_hits / frames if frames else 0.0,
                                          "ratio"),
        "capacity.channel_evals_per_solve": (tracer.evals_in_solves() / solves
                                             if solves else 0.0, "count"),
        "capacity.self_s": (own["capacity"] / ops, "s"),
        "sweep.self_s": (own["sweep"] / ops, "s"),
    }
