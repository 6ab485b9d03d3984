"""Spans recorded from the benchmark around calls into hyperspin's layers.

The traced replays below drive a workload through the library's public
functions, the same calls the untraced path makes, with a span around each
layer boundary.  Spans are aggregated in memory by name (calls, total and
self time, parent) and written out once at the end of the run.
"""

from __future__ import annotations

import io
import json
from time import perf_counter

import hyperspin as hs


class Tracer:
    """Stack of open spans; closing one charges its duration to its parent."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self._stack: list[list] = []
        self.spans: dict[str, dict] = {}

    def begin(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def end(self) -> float:
        now = perf_counter()
        name, t0, child = self._stack.pop()
        d = now - t0
        parent = self._stack[-1] if self._stack else None
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = {
                "parent": parent[0] if parent else None,
                "calls": 0, "total_s": 0.0, "self_s": 0.0,
            }
        agg["calls"] += 1
        agg["total_s"] += d
        agg["self_s"] += d - child
        if parent is not None:
            parent[2] += d
        return d

    def calls(self, name: str) -> int:
        return self.spans.get(name, {}).get("calls", 0)

    def self_s(self, name: str) -> float:
        return self.spans.get(name, {}).get("self_s", 0.0)

    def total_s(self, name: str) -> float:
        return self.spans.get(name, {}).get("total_s", 0.0)

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer (the span-name prefix before the first dot)."""
        out: dict[str, float] = {}
        for name, agg in self.spans.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + agg["self_s"]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"trace_id": self.trace_id, "spans": self.spans,
                       "layer_self_s": self.layer_self_s()}, fh, indent=1)


def traced_record(tr: Tracer, rho, eta: float, k: float) -> "hs.MeasureRecord":
    """``measure_all`` spelled out call by call, one span per measure."""
    tr.begin("measures.concurrence")
    c = hs.concurrence(rho)
    tr.end()
    tr.begin("measures.steering")
    s = hs.steering(rho)
    tr.end()
    tr.begin("measures.eof")
    e = hs.entanglement_of_formation(c)
    tr.end()
    tr.begin("measures.gqd")
    g = hs.geometric_discord(rho)
    tr.end()
    tr.begin("measures.coherence_l1")
    l1 = hs.coherence_l1(rho)
    tr.end()
    tr.begin("sweep.row_build")
    record = hs.MeasureRecord(steering=s, concurrence=c, eof=e, gqd=g,
                              coherence_l1=l1, eta=eta, kernel=k)
    tr.end()
    return record


def traced_sweep_rows(tr: Tracer, grid: "hs.SweepGrid") -> list:
    """The serial ``run_sweep`` evaluation loop, span per layer call."""
    tr.begin("sweep.eval")
    ch = hs.channel_params(grid.channel)
    states = []
    for p in grid.phi:
        tr.begin("production.density_matrix")
        states.append(hs.density_matrix(ch, p))
        tr.end()
    times = grid.time.values()
    rows = []
    for i_phi, phi in enumerate(grid.phi):
        rho0 = states[i_phi]
        for mu in grid.mu:
            for tau in grid.tau:
                cfg = hs.ChannelConfig(mu=mu, tau=tau)
                regime = cfg.regime.value
                for t in times:
                    tr.begin("channel.memory_kernel")
                    k = hs.memory_kernel(t, cfg).k
                    tr.end()
                    eta = k * k + (1.0 - k * k) * mu
                    tr.begin("channel.dephase")
                    rho = hs.dephase(rho0, eta)
                    tr.end()
                    record = traced_record(tr, rho, eta, k)
                    tr.begin("sweep.row_build")
                    rows.append(hs.SweepRow(grid.channel, phi, mu, tau, regime, t, record))
                    tr.end()
    tr.end()
    return rows


def traced_quick_tour(tr: Tracer, name: str, phi: float, mu: float, tau: float, t: float):
    """The quick-tour sequence with ``evolve``, ``decoherence_factor`` and
    ``measure_all`` expanded into the public calls they are made of, so the
    kernel, the dephasing and each measure get their own span."""
    tr.begin("api.point")
    ch = hs.channel_params(name)
    tr.begin("production.density_matrix")
    rho0 = hs.density_matrix(ch, phi)
    tr.end()
    cfg = hs.ChannelConfig(mu=mu, tau=tau)
    etas = []
    for _ in range(2):  # evolve's decoherence_factor, then the explicit one
        tr.begin("channel.memory_kernel")
        k = hs.memory_kernel(t, cfg).k
        tr.end()
        k2 = k * k
        etas.append(k2 + (1.0 - k2) * cfg.mu)
    tr.begin("channel.dephase")
    rho_t = hs.dephase(rho0, etas[0])
    tr.end()
    tr.begin("channel.memory_kernel")
    k = hs.memory_kernel(t, cfg).k
    tr.end()
    record = traced_record(tr, rho_t, etas[1], k)
    tr.end()
    return cfg, record


def traced_render(tr: Tracer, result: "hs.SweepResult", fmt: str, path) -> bytes:
    """Render both formats to memory, then write the workload's one to ``path``.

    Returns the bytes written.
    """
    for f in ("csv", "json"):
        buf = io.StringIO()
        tr.begin(f"sweep.render_{f}")
        hs.emit(result, f, buf)
        tr.end()
        if f == fmt:
            payload = buf.getvalue()
        del buf
    tr.begin("sweep.write")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)
    tr.end()
    return payload.encode("utf-8")
