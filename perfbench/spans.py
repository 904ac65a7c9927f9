"""In-memory span recorder for the benchmark's traced run.

The traced run wraps public functions of the program at the module
attribute through which their callers look them up (``pp2d.astar_grid_2d``,
``lidar.cast_rays_dda_batch``, ...), plus the benchmark's own calls into
each kernel.  Every call records one span: name, layer, start, end, parent
span and job id.  Spans stay in memory until the run ends and are then
written as Chrome trace-event JSON (viewable in ``chrome://tracing`` or
Perfetto).  A layer's self time is its spans' duration minus the time
covered by their child spans.

Nothing here runs during the untraced, end-to-end measurement: wrappers
are installed with :meth:`Tracer.install` and removed with
:meth:`Tracer.restore`.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

# Span fields, kept as lists for cheap in-place completion.
NAME, LAYER, START, END, PARENT, JOB = range(6)


def call(tracer: "Tracer | None", name: str, layer: str, fn: Callable, *args: Any) -> Any:
    """``fn(*args)``, inside a span when a tracer is given."""
    if tracer is None:
        return fn(*args)
    return tracer.call(name, layer, fn, *args)


class Tracer:
    """Records nested spans and owns the function patches that emit them."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.job = -1
        self._stack: List[int] = []
        self._targets: List[Tuple[Any, str, str, str]] = []
        self._originals: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str, layer: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append(
            [name, layer, time.perf_counter(), 0.0, parent, self.job]
        )

    def end(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter()

    def call(self, name: str, layer: str, fn: Callable, *args: Any) -> Any:
        """Run ``fn(*args)`` inside one span."""
        self.begin(name, layer)
        try:
            return fn(*args)
        finally:
            self.end()

    # -- patching --------------------------------------------------------

    def target(self, owner: Any, attr: str, name: str, layer: str) -> None:
        """Register ``owner.attr`` to be wrapped while the tracer is installed."""
        self._targets.append((owner, attr, name, layer))

    def install(self) -> None:
        for owner, attr, name, layer in self._targets:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, layer))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer.begin(name, layer)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end()

        return traced

    # -- analysis --------------------------------------------------------

    def _child_time(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return covered

    def self_time(self, layer: str, jobs_from: int = 0) -> float:
        """Summed self time of one layer's spans in jobs ``>= jobs_from``."""
        covered = self._child_time()
        return sum(
            span[END] - span[START] - covered[i]
            for i, span in enumerate(self.spans)
            if span[LAYER] == layer and span[JOB] >= jobs_from
        )

    def total(self, name: str, jobs_from: int = 0) -> float:
        """Summed inclusive time of the spans called ``name``."""
        return sum(
            span[END] - span[START]
            for span in self.spans
            if span[NAME] == name and span[JOB] >= jobs_from
        )

    def per_job_median(self, name: str) -> float:
        """Median over jobs of the per-job summed time of ``name`` spans."""
        per_job: Dict[int, float] = {}
        for span in self.spans:
            if span[NAME] == name and span[JOB] >= 0:
                per_job[span[JOB]] = (
                    per_job.get(span[JOB], 0.0) + span[END] - span[START]
                )
        return statistics.median(per_job.values()) if per_job else 0.0

    def write_chrome(self, path: str) -> None:
        """Write every span as a Chrome trace-event ``X`` (complete) event."""
        origin = min((s[START] for s in self.spans), default=0.0)
        events = [
            {
                "name": span[NAME],
                "cat": span[LAYER],
                "ph": "X",
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "pid": os.getpid(),
                "tid": 0,
                "args": {"id": i, "parent": span[PARENT], "job": span[JOB]},
            }
            for i, span in enumerate(self.spans)
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
