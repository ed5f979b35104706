"""Wrappers at focsim's module boundaries: result taps and timed spans.

The benchmark never edits focsim. It replaces a public function, in each
namespace where callers look it up, with a wrapper around the original, and
puts the original back afterwards. Two kinds of wrapper exist:

* a tap keeps a small summary of a result for the correctness checks (the
  matrix of every ``total_matrix`` call, the epsilon range of every
  trajectory). Taps are on in every run; they cost one Python call.
* a span records (id, name, start, end, parent) plus the layer's work
  counts. Spans are on only in a traced run.

``jones`` gets no spans: its calls take a few microseconds, so a span would
mostly measure itself; its time stays in the ``elements`` self time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable


def _grid_segments(args, kwargs) -> int:
    grid = kwargs["grid"] if "grid" in kwargs else args[1]
    return int(grid.n_segments)


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


@dataclass(frozen=True)
class Layer:
    """One public function at a module boundary.

    ``sites`` are the dotted namespaces (module or class) whose attribute
    ``attr`` callers resolve at call time; the first is where it is defined.
    ``counts`` maps (args, kwargs, result, error) to the layer's work counts.
    """

    name: str
    sites: tuple[str, ...]
    attr: str
    counts: Callable | None = None


LAYERS = (
    Layer(
        "spun.propagate_trajectory",
        ("focsim.spun", "focsim.experiments", "focsim.cli", "focsim"),
        "propagate_trajectory",
        lambda a, k, r, e: {"segments": _grid_segments(a, k)},
    ),
    Layer(
        "spun.total_matrix",
        ("focsim.spun", "focsim.experiments", "focsim"),
        "total_matrix",
        lambda a, k, r, e: {"segments": _grid_segments(a, k)},
    ),
    Layer(
        "spun.spin_angle",
        ("focsim.spun.SpinProfile",),
        "spin_angle",
        lambda a, k, r, e: {"points": int(getattr(a[1], "size", 1))},
    ),
    Layer("spun.stability_metrics", ("focsim.spun", "focsim.experiments", "focsim"), "stability_metrics"),
    Layer("spun.conversion_length", ("focsim.spun", "focsim.experiments", "focsim"), "conversion_length"),
    Layer(
        "elements.detected_intensity",
        ("focsim.elements", "focsim.experiments", "focsim.cli", "focsim"),
        "detected_intensity",
        lambda a, k, r, e: {"fringe_null": int(type(e).__name__ == "FringeNullError")},
    ),
    Layer("elements.roundtrip_field", ("focsim.elements", "focsim"), "roundtrip_field"),
    Layer(
        "experiments.run_current_sweep",
        ("focsim.experiments", "focsim.cli", "focsim"),
        "run_current_sweep",
    ),
    Layer("experiments.run_imperfection_scan", ("focsim.experiments", "focsim"), "run_imperfection_scan"),
    Layer("experiments.run_xi_sweep", ("focsim.experiments", "focsim.cli", "focsim"), "run_xi_sweep"),
    Layer(
        "experiments.run_convergence_ladder",
        ("focsim.experiments", "focsim.cli", "focsim"),
        "run_convergence_ladder",
    ),
    Layer(
        "tables.render",
        ("focsim.tables", "focsim.cli", "focsim"),
        "render",
        lambda a, k, r, e: {
            "rows": len(a[0].rows),
            "bytes": _text_bytes(r) if isinstance(r, str) else 0,
        },
    ),
    Layer(
        "cli.main",
        ("focsim.cli",),
        "main",
        lambda a, k, r, e: {"exit_nonzero": int(e is not None or r != 0)},
    ),
    Layer("config.load_config", ("focsim.config", "focsim.cli"), "load_config"),
)


def _tap_total_matrix(result):
    return result.copy()


def _tap_trajectory(result):
    eps = result.epsilon
    return (len(eps), float(eps.min()), float(eps.max()))


# layer name -> summary kept from every result, traced or not
TAPS = {
    "spun.total_matrix": _tap_total_matrix,
    "spun.propagate_trajectory": _tap_trajectory,
}


def _resolve(dotted: str):
    """Module or class object for a dotted name such as focsim.spun.SpinProfile."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(dotted)


@dataclass
class Trace:
    """Spans and counts of one traced campaign."""

    spans: list = field(default_factory=list)  # [id, name, start, end, parent]
    counts: dict = field(default_factory=dict)  # layer -> {count name -> total}
    stack: list = field(default_factory=list)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, name, time.perf_counter(), 0.0, parent])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    def add_counts(self, layer: str, counts: dict) -> None:
        into = self.counts.setdefault(layer, {})
        for key, value in counts.items():
            into[key] = into.get(key, 0) + value

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the part of the
        span's interval that its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, float] = {}
        for sid, name, start, end, _ in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                lo, hi = max(c_start, reach), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def write(self, fh, campaign: int) -> None:
        for sid, name, start, end, parent in self.spans:
            fh.write(
                json.dumps(
                    {"campaign": campaign, "id": sid, "name": name,
                     "start": start, "end": end, "parent": parent}
                )
                + "\n"
            )


class Probe:
    """Installs taps, and spans when a trace is given, for one campaign."""

    def __init__(self):
        self.taps: list[tuple[str, object]] = []
        self.trace: Trace | None = None

    def _wrap(self, layer: Layer, fn):
        tap = TAPS.get(layer.name)
        taps = self.taps
        trace = self.trace
        if trace is None:
            def tapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                taps.append((layer.name, tap(result)))
                return result

            return tapped

        calls = {"calls": 1}

        def spanned(*args, **kwargs):
            sid = trace.open(layer.name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                trace.close(sid)
                trace.add_counts(layer.name, calls)
                if layer.counts is not None:
                    trace.add_counts(layer.name, layer.counts(args, kwargs, result, error))
                if tap is not None and error is None:
                    taps.append((layer.name, tap(result)))

        return spanned

    @contextlib.contextmanager
    def installed(self, trace: Trace | None):
        """Wrap the layers for the duration of the block, then restore them."""
        self.trace = trace
        saved = []
        try:
            for layer in LAYERS:
                if trace is None and layer.name not in TAPS:
                    continue
                owners = []
                for site in layer.sites:
                    try:
                        owners.append(_resolve(site))
                    except (ModuleNotFoundError, AttributeError):
                        continue
                if not owners or not hasattr(owners[0], layer.attr):
                    continue  # the layer no longer exists; it reports zero calls
                original = getattr(owners[0], layer.attr)
                wrapper = self._wrap(layer, original)
                for owner in owners:
                    # only namespaces that still resolve to the same function
                    if getattr(owner, layer.attr, None) is original:
                        saved.append((owner, layer.attr, original))
                        setattr(owner, layer.attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.trace = None
