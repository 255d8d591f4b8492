"""In-memory spans and counters recorded from the benchmark's own calls.

A span has a name, a start, an end and the index of the span that was open
when it started (its parent). Spans stay in memory and are written as JSONL
once, when the run ends. Policy calls are traced by handing the program a
``PolicyPair`` whose callables wrap the real ones, the same injection point a
remote policy uses, so no program code changes.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from mixroute.env import PolicyPair


# Every policy call inside these stage spans comes from a router-driven
# rollout, so each decision step there is also a router decision.
ROUTER_DRIVEN_STAGES = ("train_grpo", "cli.train_grpo")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def inside(self, names) -> bool:
        """True when a span with one of ``names`` is open."""
        return any(self.spans[i][0] in names for i in self._open)

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Seconds per span name, minus the time its direct children cover.

        Spans never overlap their siblings (one thread), so the children's
        durations add up to the part of the parent they cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans[since:]:
            if parent is not None and parent >= since:
                child_time[parent] += end - start
        out: Counter = Counter()
        for i in range(since, len(self.spans)):
            name, start, end, _ = self.spans[i]
            out[name] += (end - start) - child_time[i]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")
            for name, value in sorted(self.counts.items()):
                f.write(json.dumps({"counter": name, "value": value}) + "\n")


class TracedPolicy:
    """Counts and times every call of one precision's policy.

    A decision step is counted once per distinct state the pair is asked
    about: klst collection queries both policies on the same state.
    """

    def __init__(self, inner, which: str, tracer: Tracer, last_state: list):
        self.inner = inner
        self.which = which
        self.tracer = tracer
        self.last_state = last_state
        self.span_name = f"policy.{which}"

    def __call__(self, state):
        tracer = self.tracer
        if self.last_state[0] is not state:
            self.last_state[0] = state
            tracer.counts["decision_steps"] += 1
            if tracer.inside(ROUTER_DRIVEN_STAGES):
                tracer.counts["router_decisions"] += 1
        tracer.counts[f"policy_calls.{self.which}"] += 1
        with tracer.span(self.span_name):
            return self.inner(state)


def traced_pair(pair: PolicyPair, tracer: Tracer) -> PolicyPair:
    last_state = [None]
    return PolicyPair(
        high=TracedPolicy(pair.high, "high", tracer, last_state),
        low=TracedPolicy(pair.low, "low", tracer, last_state),
        costs=pair.costs,
    )
