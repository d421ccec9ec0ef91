"""Calls into switchlab's public functions, timed from the benchmark's side.

Every call a workload makes into a layer goes through :meth:`Recorder.call`.
With tracing on, it records a span (name, start, end, parent span, pass id,
error flag, an optional work count and, on the pass span, the seconds of
host-speed calibration it holds) in memory; :func:`write_trace` saves
the spans at the end of the run and :func:`layer_summary` turns them into
per-pass self times.  A layer is the switchlab module of that name: span
``pathswitch.bvn_decompose`` belongs to layer ``pathswitch``.

Everything runs in one thread with no queues, so no layer ever waits for
another and the trace records no wait time.
"""

from __future__ import annotations

import json
import statistics
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

PASS_SPAN = "pass"  # the root span of one pass; its self time is time no layer call covers


class Recorder:
    """Runs layer calls, counts the ones that raise and, when ``trace`` is
    set, keeps a span for each of them."""

    def __init__(self) -> None:
        self.trace = False
        self.between = None  # called after every call, outside its span
        self.pass_id = -1
        self.spans: list[dict] = []
        self.raised = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, work: float | None = None):
        """Time the body; yields the span record (``None`` when untraced)."""
        if not self.trace:
            yield None
            return
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "error": False,
        }
        if work is not None:
            record["work"] = work
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, work: float | None = None, **kwargs):
        """Return ``fn(*args, **kwargs)``, or ``None`` when it raises.

        A call whose positional input is ``None`` (the result of an earlier
        call that raised) is skipped and also returns ``None``, so the
        checks on everything downstream of a failure fail as well.
        """
        if any(a is None for a in args):
            return None
        with self.span(name, work) as record:
            try:
                result = fn(*args, **kwargs)
            except Exception:  # a raising call is a failed check; the run goes on
                self.raised += 1
                if record is not None:
                    record["error"] = True
                print(f"[bench] {name} raised:\n{traceback.format_exc()}", file=sys.stderr)
                result = None
        if self.between is not None:
            self.between()
        return result


def write_trace(path: Path, spans: list[dict], observations: dict[int, dict], meta: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "meta": meta,
        "spans": spans,
        "observations": {str(k): v for k, v in observations.items()},
    }
    path.write_text(json.dumps(payload))


def read_trace(path: Path) -> tuple[list[dict], dict[int, dict]]:
    payload = json.loads(path.read_text())
    return payload["spans"], {int(k): v for k, v in payload["observations"].items()}


def duration(span: dict) -> float:
    """End minus start, less the calibration pauses the span records."""
    return span["end"] - span["start"] - span.get("paused", 0.0)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.  Children
    of one parent never overlap, because every call runs in one thread."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def layer_summary(
    spans: list[dict],
    observations: dict[int, dict],
    layers: dict[str, tuple[str, ...]],
    rates: dict[str, str],
) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times are the median over traced passes of the per-pass sum of self
    times: ``<layer>.busy_s``, ``<layer>.<function>.s`` and
    ``<layer>.share`` (busy time over the pass).  ``<layer>.calls`` is the
    median number of calls per pass and ``<layer>.errors`` the number of
    calls that raised over the whole run.  Each ``rates`` entry maps a rate
    metric to the span whose recorded work it divides by that span's total
    self time.  ``observations`` hold per-pass values measured from call
    results; each reported value is their median over passes.
    """
    own = self_times(spans)
    passes = sorted({s["pass"] for s in spans if s["name"] == PASS_SPAN})
    by_pass: dict[int, dict[str, float]] = {p: {} for p in passes}
    totals: dict[str, list[float]] = {}  # span name -> [work, self time]
    errors: dict[str, int] = {}
    for s in spans:
        acc = by_pass[s["pass"]]
        name = s["name"]
        acc[name] = acc.get(name, 0.0) + own[s["id"]]
        if name == PASS_SPAN:
            acc["@pass"] = duration(s)
            continue
        layer = name.split(".", 1)[0]
        acc[layer + ".busy_s"] = acc.get(layer + ".busy_s", 0.0) + own[s["id"]]
        acc[layer + ".calls"] = acc.get(layer + ".calls", 0) + 1
        errors[layer] = errors.get(layer, 0) + s["error"]
        if "work" in s:
            tot = totals.setdefault(name, [0.0, 0.0])
            tot[0] += s["work"]
            tot[1] += own[s["id"]]

    def median_of(key: str) -> float:
        return statistics.median(by_pass[p].get(key, 0.0) for p in passes) if passes else 0.0

    out: dict[str, float] = {}
    for layer, functions in layers.items():
        out[f"{layer}.busy_s"] = median_of(layer + ".busy_s")
        out[f"{layer}.errors"] = errors.get(layer, 0)
        out[f"{layer}.calls"] = median_of(layer + ".calls")
        out[f"{layer}.share"] = (
            statistics.median(by_pass[p].get(layer + ".busy_s", 0.0) / by_pass[p]["@pass"] for p in passes)
            if passes else 0.0
        )
        for fn in functions:
            out[f"{layer}.{fn}.s"] = median_of(f"{layer}.{fn}")
    for metric, span_name in rates.items():
        work, secs = totals.get(span_name, (0.0, 0.0))
        out[metric] = work / secs if secs > 0 else 0.0
    names = {k for obs in observations.values() for k in obs}
    for name in names:
        out[name] = statistics.median(observations[p][name] for p in observations if name in observations[p])
    out["trace.pass_s"] = median_of("@pass")
    out["trace.unattributed_s"] = median_of(PASS_SPAN)
    out["trace.passes"] = len(passes)
    return out
