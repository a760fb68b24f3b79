"""Span tracing of oqho's public functions, installed from outside the package.

Each traced function is replaced by a wrapper at every oqho module that holds
it by name (``realizability`` imports ``eval_tf`` and ``poles`` directly, for
example), so calls between modules are seen as well as calls from the
benchmark.  The package source is not modified.

Spans are kept in memory as (name, start, end, parent, error) and written out
when the run ends.  A layer's self time is its span duration minus the
durations of its direct child spans; calls are single-threaded, so children
never overlap.
"""

import functools
import gzip
import json
import sys
import time

# Layers the per-layer metrics are named after: "<module>.<function>".
FUNCTIONS = [
    "statespace.poles",
    "statespace.eval_tf",
    "statespace.eval_conjugate_tf",
    "statespace.is_minimal",
    "statespace.minimal_realization",
    "statespace.spectrum_report",
    "statespace.match_multisets",
    "statespace.transmission_zeros",
    "realizability.draw_sample_points",
    "realizability.check_jj_unitary",
    "realizability.check_pr_frequency",
    "realizability.check_pr_time_domain",
    "realizability.synthesize",
    "skewfactor.relate_ccr",
    "skewfactor.cholesky_like",
    "forms.build_pm_realization",
    "forms.pm_to_ac",
    "forms.ac_to_pm",
    "jsonio.load_path",
    "jsonio.system_from_payload",
    "jsonio.dumps",
    "cli.main",
    "worked_example.run_worked_example",
]
# Families of small functions traced as one layer each: every
# jsonio.encode_* function is a "jsonio.encode" span, and so on.
GROUPS = {"jsonio.encode": "encode_", "jsonio.decode": "decode_"}
LAYERS = FUNCTIONS + list(GROUPS)
STATS = (("calls", "count"), ("self_ms", "ms"), ("errors", "count"))
# Layers whose share of False results is reported, as "<layer>.false_share".
FALSE_SHARE = ("statespace.is_minimal",)


def layer_metric_units() -> dict:
    """Name -> unit of every per-layer metric this module computes."""
    units = {f"{layer}.{stat}": unit for layer in LAYERS for stat, unit in STATS}
    units.update({f"{layer}.false_share": "ratio" for layer in FALSE_SHARE})
    return units


class Tracer:
    """Wraps oqho's public functions and records a span per call while active."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._false = dict.fromkeys(FALSE_SHARE, 0)
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A call nested in a span of the same layer (encode_pr_report
            # calling encode_complex_scalar) belongs to the outer span.
            if not self.active or (stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if result is False and name in self._false:
                self._false[name] += 1
            return result

        return traced

    def install(self):
        """Replace every traced function wherever an oqho module holds it."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "oqho" or n.startswith("oqho.")) and m is not None]
        targets = []
        for layer in FUNCTIONS:
            module, attr = layer.split(".")
            targets.append((layer, getattr(sys.modules[f"oqho.{module}"], attr)))
        for layer, prefix in GROUPS.items():
            home = sys.modules[f"oqho.{layer.split('.')[0]}"]
            targets.extend((layer, getattr(home, attr)) for attr in dir(home)
                           if attr.startswith(prefix) and callable(getattr(home, attr)))
        for layer, original in targets:
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_metrics(self, ops: int) -> dict:
        """Per-op calls, self time and errors of every layer, plus false shares."""
        totals = {layer: [0, 0, 0] for layer in LAYERS}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _, error), children in zip(self.spans, child_ns):
            row = totals[name]
            row[0] += 1
            row[1] += end - start - children
            row[2] += error
        ops = max(ops, 1)
        out = {}
        for layer, (calls, self_ns, errors) in totals.items():
            out[f"{layer}.calls"] = calls / ops
            out[f"{layer}.self_ms"] = self_ns / 1e6 / ops
            out[f"{layer}.errors"] = errors / ops
        for layer, falses in self._false.items():
            calls = totals[layer][0]
            out[f"{layer}.false_share"] = falses / calls if calls else 0.0
        return out

    def write_spans(self, path):
        """Gzipped, one JSON object per span; times in ns of the perf_counter clock."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, error in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "error": error}) + "\n")
