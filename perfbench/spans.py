"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the betadens modules from outside the
package: while it is installed, every binding of a traced function (the
defining module and each module that imported it by name) points to a
wrapper that records one span per call.  A span is
``[name, start, end, parent, group, count, tax, inner_tax]``; ``parent`` is
the index of the enclosing span (-1 at the top) and ``group`` is shared by
the spans of one config, or of one Monte Carlo trial (the seed of the
trial's sample).  Spans are recorded in the installing process, so traced
passes run serially.

The tracer's own time is kept apart from the program's: ``tax`` is the time
the span's wrapper spends outside [start, end] (its bookkeeping, measured,
plus the call into the wrapper, calibrated at install), and ``inner_tax`` is
the calibrated cost of the counting wrappers called while the span was on
top.  Self times exclude both; their sum is the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (module, attribute, span name); the span name of risk.lp_distance is chosen
# per call, see Tracer._span_name.
TARGETS = (
    ("runner", "run_experiment", "runner"),
    ("config", "load_config", "config.parse"),
    ("risk", "monte_carlo_risk", "risk.mc_row"),
    ("processes", "ar1_binary_chain", "processes.chain"),
    ("processes", "piecewise_quantile_transform", "processes.piecewise"),
    ("processes", "gaussian_quantile_transform", "processes.gaussian"),
    ("processes", "lsv_trajectory", "processes.lsv"),
    ("estimators", "histogram_estimate", "estimators.histogram"),
    ("estimators", "KernelDensity.evaluate", "estimators.kernel_eval"),
    ("risk", "ReferenceDensity.pdf", "risk.reference"),
    ("risk", "lp_distance", "risk.lp"),
    ("depcoeff", "beta1_estimate", "depcoeff"),
    ("depcoeff", "beta2_pair_lower_bound", "depcoeff"),
    ("csvio", "emit_csv", "csvio.emit"),
    ("svg", "SvgFigure.save", "svg.save"),
)

# Calls that are counted, not spanned: (module, attribute, span name); each
# call adds one to the count of that span when it is the innermost one.
COUNTED = (
    # panel evaluations of the adaptive quadrature
    ("quadrature", "panel_nodes", "risk.lp_quad"),
    # piece lookups of the exact breakpoint merge
    ("risk", "_step_value", "risk.lp_exact"),
)

# Layer metric -> (span name, "self" or "total"). A span's self time is its
# duration minus its child spans and the tracer's own time inside it.
TIME_METRICS = {
    "runner.self_s": ("runner", "self"),
    "risk.mc_row_s": ("risk.mc_row", "self"),
    "processes.chain_s": ("processes.chain", "self"),
    "processes.piecewise_s": ("processes.piecewise", "self"),
    "processes.gaussian_s": ("processes.gaussian", "self"),
    "processes.lsv_s": ("processes.lsv", "self"),
    "estimators.histogram_s": ("estimators.histogram", "self"),
    "estimators.kernel_eval_s": ("estimators.kernel_eval", "self"),
    "risk.reference_s": ("risk.reference", "self"),
    "risk.lp_exact_s": ("risk.lp_exact", "self"),
    "quadrature.self_s": ("risk.lp_quad", "self"),
    "risk.lp_quad_s": ("risk.lp_quad", "total"),
    "depcoeff.s": ("depcoeff", "self"),
    "csvio.emit_s": ("csvio.emit", "self"),
    "svg.save_s": ("svg.save", "self"),
    "config.parse_s": ("config.parse", "self"),
}

COUNT_METRICS = {
    "processes.chain_values": ("processes.chain", "count"),
    "estimators.kernel_eval_points": ("estimators.kernel_eval", "count"),
    "risk.lp_exact_cuts": ("risk.lp_exact", "count"),
    "quadrature.panels": ("risk.lp_quad", "count"),
    "csvio.bytes": ("csvio.emit", "count"),
    "svg.bytes": ("svg.save", "count"),
}

# Self-time metrics that, with the tracer overhead and the unattributed time,
# make up a traced pass.
# config.parse_s is set-up work and risk.lp_quad_s includes its children.
SELF_METRICS = tuple(m for m, (_, kind) in TIME_METRICS.items()
                     if kind == "self" and m != "config.parse_s")


class Tracer:
    """Records spans of traced calls; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.group = ""
        self._stack: list[int] = []
        self._config = None
        self._trial = None
        self._patches: list[tuple[object, str, object]] = []
        self._kernel_density = None
        # calibrated per-call costs the wrappers cannot time themselves
        self.span_call_s = 0.0
        self.count_call_s = 0.0

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        estimators = importlib.import_module("betadens.estimators")
        self._kernel_density = estimators.KernelDensity
        if not self.span_call_s:
            self.span_call_s, self.count_call_s = _calibrate()
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(f"betadens.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                self._patch(getattr(module, cls_name), method, span)
            else:
                self._rebind(getattr(module, attr), self._wrap(span, getattr(module, attr)))
        for module_name, attr, span in COUNTED:
            module = importlib.import_module(f"betadens.{module_name}")
            self._rebind(getattr(module, attr), self._counter(span, getattr(module, attr)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _rebind(self, original, wrapper) -> None:
        """Point every betadens binding of `original` to `wrapper`."""
        for mod in [m for name, m in list(sys.modules.items()) if m is not None
                    and (name == "betadens" or name.startswith("betadens."))]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _patch(self, owner, attr: str, span: str) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(span, original))

    # -- recording --------------------------------------------------------
    def _span_name(self, span: str, args) -> str:
        if span != "risk.lp":
            return span
        # lp_distance integrates a kernel estimate by quadrature and merges a
        # histogram with a step reference exactly
        return "risk.lp_quad" if isinstance(args[0], self._kernel_density) else "risk.lp_exact"

    def _group(self) -> str:
        parts = [self.group, self._config]
        if self._trial is not None:
            parts.append(f"trial-seed-{self._trial}")
        return "/".join(p for p in parts if p)

    def _wrap(self, span: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            name = tracer._span_name(span, args)
            if name == "runner":
                tracer._config = f"{args[0].experiment}/seed-{args[0].master_seed}"
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, 0.0, 0.0, parent, tracer._group(), 0, 0.0, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            tracer._after(record, result)
            record[6] = (record[1] - enter + time.perf_counter() - record[2]
                         + tracer.span_call_s)
            return result

        return traced

    def _after(self, record: list, result) -> None:
        name = record[0]
        if name == "runner":
            self._config = None
        elif name == "risk.mc_row":
            self._trial = None
        elif name in ("processes.chain", "processes.lsv") and self._inside("risk.mc_row"):
            # a trial starts with its sample; its spans share the sample's seed
            self._trial = result.spec.seed
            record[4] = self._group()
        if name in ("processes.chain", "estimators.kernel_eval"):
            record[5] = len(result)
        elif name in ("csvio.emit", "svg.save"):
            record[5] = Path(result).stat().st_size

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _counter(self, span: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._stack:
                top = tracer.spans[tracer._stack[-1]]
                top[7] += tracer.count_call_s
                if top[0] == span:
                    top[5] += 1
            return fn(*args, **kwargs)

        return counted

    # -- summaries ----------------------------------------------------------
    def mark(self) -> int:
        """Index of the next span, to summarize a slice of the run."""
        return len(self.spans)

    def summary(self, start: int, stop: int | None = None) -> dict:
        """{span name: {"total", "self", "count"}} summed over spans[start:stop],
        plus {"tracer": {"total": overhead}}: the tracer's own time."""
        stop = len(self.spans) if stop is None else stop
        child = {}
        overhead = 0.0
        for name, t0, t1, parent, _, _, tax, inner_tax in self.spans[start:stop]:
            overhead += tax + inner_tax
            if parent >= start:
                child[parent] = child.get(parent, 0.0) + (t1 - t0) + tax
        out: dict = {"tracer": {"total": overhead, "self": overhead, "count": 0}}
        for i in range(start, stop):
            name, t0, t1, _, _, count, _, inner_tax = self.spans[i]
            acc = out.setdefault(name, {"total": 0.0, "self": 0.0, "count": 0})
            acc["total"] += t1 - t0
            acc["self"] += t1 - t0 - child.get(i, 0.0) - inner_tax
            acc["count"] += count
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "group", "count",
                                 "tax", "inner_tax"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _calibrate(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Per-call cost of the span and counting wrappers that they do not time
    themselves: the call into the wrapper and, for a span, the part of its
    bookkeeping outside its measured tax.  Best of `repeats` rounds of
    `calls` calls of a wrapped no-op."""

    def noop():
        return None

    probe = Tracer()
    spanned = probe._wrap("calibration", noop)
    counted = probe._counter("calibration", noop)
    loop = range(calls)
    span_cost = count_cost = float("inf")
    for _ in range(repeats):
        probe.spans.clear()
        t0 = time.perf_counter()
        for _ in loop:
            pass
        empty = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in loop:
            noop()
        raw = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in loop:
            spanned()
        spanned_s = time.perf_counter() - t0
        # a span covers the call of the no-op; its tax is timed by the wrapper
        timed = sum(t1 - ts + tax for _, ts, t1, _, _, _, tax, _ in probe.spans)
        span_cost = min(span_cost, (spanned_s - empty - timed) / calls)
        t0 = time.perf_counter()
        for _ in loop:
            counted()
        count_cost = min(count_cost, (time.perf_counter() - t0 - raw) / calls)
    return max(span_cost, 0.0), max(count_cost, 0.0)
