"""Outside-in tracing of cyclicwave's layers for the benchmark's traced run.

The package is never edited: `Tracer.install` replaces each layer's public
functions with wrappers from this file and `Tracer.uninstall` puts the
originals back, so untimed and timed operations in one process run the same
code.  A wrapped call either records a span (name, start, end, parent index)
in memory or, for calls too small and too frequent to time without the
timer dominating the run, only bumps a counter.
"""

import inspect
import time
import tracemalloc
from collections import Counter

import numpy as np

from cyclicwave import blowup, coeffs, floquet, geometry, pdesim, transform

ROOT = "cli"
_PDESIM = "pdesim.evolve_nonlinear"
_FFT_FUNCS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")

# Counts that a deterministic program must reproduce exactly on every
# traced operation of the same inputs.
EXACT_COUNTS = (
    "coeffs.calls",
    "floquet.trace_curve.lambdas",
    "floquet.monodromy.calls",
    "floquet.propagate.calls",
    "blowup.smallness.calls",
    "pdesim.steps",
    "pdesim.fft_per_step",
)


class Tracer:
    """Spans and counters of one traced operation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self.alloc_peak = 0  # bytes, largest tracemalloc peak in smallness
        self._stack = []
        self._open = Counter()
        self._patched = []

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        self._open[name] += 1

    def _exit(self):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._open[span[0]] -= 1

    def run(self, fn, *args):
        """Run one operation, fn(*args), inside the root span."""
        self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._exit()

    def _patch(self, owner, attr, wrapper_factory):
        orig = getattr(owner, attr)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper_factory(orig))

    def _span(self, owner, attr, name, after=None, alloc=False):
        sig = inspect.signature(getattr(owner, attr)) if after else None

        def factory(orig):
            def traced(*args, **kwargs):
                if alloc:
                    tracemalloc.start()
                self._enter(name)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    self._exit()
                    if alloc:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                        self.alloc_peak = max(self.alloc_peak, peak)
                if after is not None:
                    after(sig.bind(*args, **kwargs).arguments, out)
                return out

            return traced

        self._patch(owner, attr, factory)

    def _count(self, owner, attr, name, only_inside=None):
        counts, open_spans = self.counts, self._open

        def factory(orig):
            def counted(*args, **kwargs):
                if only_inside is None or open_spans[only_inside]:
                    counts[name] += 1
                return orig(*args, **kwargs)

            return counted

        self._patch(owner, attr, factory)

    def install(self):
        counts = self.counts

        def lambdas(args, _out):
            counts["floquet.trace_curve.lambdas"] += int(np.size(args["lams"]))

        def steps(args, out):
            grid = args["grid"]
            counts["pdesim.steps"] += int(round(out.diagnostics["t_final"] / grid.dt))

        for attr in ("q", "alpha"):
            self._count(coeffs.HillPotential, attr, "coeffs.calls")
        self._span(floquet, "trace_curve", "floquet.trace_curve", after=lambdas)
        for attr in ("monodromy", "propagate", "scan_instability", "find_good_lambda"):
            self._span(floquet, attr, "floquet." + attr)
        self._span(blowup, "plan_smallness", "blowup.smallness", alloc=True)
        self._span(blowup, "certify_blowup", "blowup.certify_blowup")
        for attr in ("build_transform", "noc_check"):
            self._span(transform, attr, "transform." + attr)
        self._span(transform.TransformPair, "endpoints", "transform.endpoints")
        for attr in ("G", "H", "Phi"):
            self._count(transform.TransformPair, attr, "transform.eval.calls")
        self._span(geometry, "check_self_coherence", "geometry.check_self_coherence")
        self._span(pdesim, "evolve_nonlinear", _PDESIM, after=steps)
        for attr in _FFT_FUNCS:
            self._count(np.fft, attr, "pdesim.fft", only_inside=_PDESIM)

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def self_times(self):
        """{name: (calls, total seconds, self seconds)} over all spans.

        A span's self time is its duration minus that of its direct children;
        spans nest strictly because the operation runs on one thread.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + (end - start - inner))
        return out

    def metrics(self):
        """Per-layer figures of this operation, keyed by metric name."""
        st = self.self_times()

        def calls(name):
            return st.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return st.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return st.get(name, (0, 0.0, 0.0))[2]

        steps = self.counts["pdesim.steps"]
        return {
            "coeffs.calls": self.counts["coeffs.calls"],
            "floquet.trace_curve.calls": calls("floquet.trace_curve"),
            "floquet.trace_curve.lambdas": self.counts["floquet.trace_curve.lambdas"],
            "floquet.trace_curve.self_s": own("floquet.trace_curve"),
            "floquet.monodromy.calls": calls("floquet.monodromy"),
            "floquet.monodromy.self_s": own("floquet.monodromy"),
            "floquet.propagate.calls": calls("floquet.propagate"),
            "floquet.propagate.self_s": own("floquet.propagate"),
            "floquet.scan_instability.total_s": total("floquet.scan_instability"),
            "floquet.find_good_lambda.total_s": total("floquet.find_good_lambda"),
            "blowup.smallness.calls": calls("blowup.smallness"),
            "blowup.smallness.self_s": own("blowup.smallness"),
            "blowup.smallness.alloc_peak_mb": self.alloc_peak / 2**20,
            "blowup.certify_blowup.self_s": own("blowup.certify_blowup"),
            "transform.build_transform.self_s": own("transform.build_transform"),
            "transform.endpoints.self_s": own("transform.endpoints"),
            "transform.noc_check.self_s": own("transform.noc_check"),
            "transform.eval.calls": self.counts["transform.eval.calls"],
            "geometry.check_self_coherence.self_s": own("geometry.check_self_coherence"),
            "pdesim.steps": steps,
            "pdesim.step_s": own(_PDESIM) / steps if steps else 0.0,
            "pdesim.fft_per_step": self.counts["pdesim.fft"] / steps if steps else 0.0,
            "cli.self_s": own(ROOT),
        }

    def span_records(self, op):
        return [
            {"op": op, "id": i, "name": name, "start": start, "end": end,
             "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
