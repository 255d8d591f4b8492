"""Stage timing, normalised by a reference computation.

The CPU of a small shared machine runs in bursts: the same fixed-work
repetition measured 0.46 s in one 30-second run and 0.68 s in another, and
switches between a fast and a slow speed every few seconds within a run.
Wall time medians therefore disagree by up to half from run to run.
A reference computation that the benchmark owns (no program code) runs
before every stage and after the last one; dividing each stage's time by
the mean of the two references around it cancels the speed the CPU had
while the stage ran.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

import numpy as np

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((12, 64))
_W = _RNG.standard_normal((64, 256))
_P = np.array([0.4, 0.3, 0.1, 0.1, 0.05, 0.05])
_Q = np.full(6, 1.0 / 6.0)
REFERENCE_ITERATIONS = 120


def reference_s() -> float:
    """Wall time of a fixed mix like the program's: router-shape matmuls,
    elementwise ops on six-action distributions and Python containers."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(REFERENCE_ITERATIONS):
        h = np.maximum(_X @ _W, 0.0)
        total += float(h.sum())
        for _ in range(8):
            mix = 0.5 * _P + 0.5 * _Q
            live = mix > 0
            total += float(np.sum(mix[live] * np.log(mix[live] / _Q[live])))
        record = {"t": i, "obs": ("ok", f"p{i % 12}"), "value": total}
        total += len(record["obs"]) * 1e-9
    return time.perf_counter() - t0


class Stages:
    """Times the stages of one repetition.

    With ``reference=True`` the reference runs before every stage and after
    the last; with a tracer every stage is also a span.
    """

    def __init__(self, tracer=None, reference: bool = False):
        self.tracer = tracer
        self.reference = reference
        self.times: list[float] = []
        self.refs: list[float] = []

    @contextmanager
    def stage(self, name: str):
        if self.reference:
            self.refs.append(reference_s())
        span = nullcontext() if self.tracer is None else self.tracer.span(name)
        t0 = time.perf_counter()
        with span:
            yield
        self.times.append(time.perf_counter() - t0)

    def finish(self) -> None:
        if self.reference:
            self.refs.append(reference_s())

    @property
    def wall_s(self) -> float:
        return sum(self.times)

    @property
    def normalised(self) -> float:
        """Sum over stages of stage time / mean of the references around it."""
        return sum(t / (0.5 * (self.refs[k] + self.refs[k + 1]))
                   for k, t in enumerate(self.times))
