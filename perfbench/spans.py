"""Outside-in spans for the benchmark's traced runs.

Spans are recorded from the benchmark's side of imgforge's public seams:
module attributes are wrapped where their callers look them up
(``imgforge.cli.parse_pifile`` and friends), and ``emit``/``render_log``
are timed in executor subclasses.  imgforge itself is not modified.  Spans
stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the durations of its children;
children never overlap because a build runs on one thread.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from imgforge import cli, image, mounts, source
from imgforge.executor import ActionKind, DryRunExecutor, LocalExecutor

TEARDOWN_KINDS = frozenset({ActionKind.UNMOUNT.name, ActionKind.REMOVE_EMULATOR.name,
                            ActionKind.LOOP_DETACH.name})
STAGES = ("setup", "prepare", "chroot")
MiB = 1024 * 1024


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    build: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.build = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self.build, attrs)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def bump(self, key: str, amount: int = 1) -> None:
        """Add to a count on the innermost open span."""
        if self._open:
            attrs = self.spans[self._open[-1]].attrs
            attrs[key] = attrs.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable,
             after: Callable[[Span, object, tuple], None] | None = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if after is not None:
                after(span, result, args)
            return result
        return traced

    def write(self, path: Path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                record = asdict(span)
                record.update(index=index, self=selfs[index])
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[Span], offset: int = 0) -> list[float]:
    """Each span's duration minus its children's.

    ``spans`` is a contiguous slice of a tracer's spans starting at index
    ``offset``, such as the spans of one build.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None and span.parent >= offset:
            child[span.parent - offset] += span.duration
    return [span.duration - child[n] for n, span in enumerate(spans)]


# --- executors that time emit and render_log ----------------------------------


class _TracedEmit:
    tracer: Tracer

    def emit(self, action):
        attrs = {"kind": action.kind.name}
        if action.kind is ActionKind.HOST_EXEC and action.payload.get("stdin"):
            attrs["stdin_bytes"] = len(action.payload["stdin"].encode())
        with self.tracer.span("executor.emit", **attrs):
            return super().emit(action)

    def render_log(self) -> str:
        with self.tracer.span("executor.render_log") as span:
            text = super().render_log()
        span.attrs["bytes"] = len(text.encode())
        return text


class TracedDryRunExecutor(_TracedEmit, DryRunExecutor):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer


class TracedLocalExecutor(_TracedEmit, LocalExecutor):
    def __init__(self, tracer: Tracer, **kwargs) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer


# --- wrapping imgforge's public calls where their callers look them up ----------


def _count(key: str, items: Callable = lambda result: result) -> Callable:
    def after(span: Span, result, args: tuple) -> None:
        span.attrs[key] = len(items(result))
    return after


def _execute_done(span: Span, report, args: tuple) -> None:
    span.attrs["stages"] = dict(report.stage_durations)
    span.attrs["digested"] = report.image_digest is not None


def _copy_done(span: Span, result, args: tuple) -> None:
    span.attrs["alloc_bytes"] = os.stat(args[1]).st_blocks * 512


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap the layer entry points for the duration of the block."""
    def extract(*args, **kwargs):
        called_at = time.time()
        with tracer.span("source.extract") as span:
            out = original[(source, "extract_image")](*args, **kwargs)
        st = os.stat(out)
        span.attrs.update(hit=st.st_mtime < called_at, alloc_bytes=st.st_blocks * 512)
        return out

    targets = {
        (cli, "parse_pifile"): ("pifile.parse", _count("commands", lambda p: p.commands)),
        (cli, "build_plan"): ("plan.build", None),
        (cli, "validate_plan"): ("plan.validate", _count("warnings")),
        (cli, "execute"): ("executor.execute", _execute_done),
        (image, "pump"): ("image.pump", None),
        (source, "copy_image_bytes"): ("source.copy", _copy_done),
        (mounts, "base_mount_actions"): ("mounts.plan", _count("actions")),
        (mounts, "fstab_mount_actions"): ("mounts.plan", _count("actions")),
    }
    original = {key: getattr(*key) for key in [*targets, (source, "extract_image")]}
    try:
        for (module, attr), (name, after) in targets.items():
            setattr(module, attr, tracer.wrap(name, original[(module, attr)], after))
        source.extract_image = extract
        yield
    finally:
        for (module, attr), fn in original.items():
            setattr(module, attr, fn)


# --- per-layer metrics ------------------------------------------------------------


def build_metrics(spans: list[Span], offset: int) -> dict[str, float]:
    """Layer metrics of one traced build from its spans, ``tracer.spans[offset:]``."""
    selfs = self_times(spans, offset)
    m: dict[str, float] = {}

    def total(name: str, attr: str | None = None) -> float:
        return sum((s.attrs.get(attr, 0) if attr else s.duration
                    for s in spans if s.name == name), 0.0)

    m["pifile.parse_s"] = total("pifile.parse")
    m["pifile.commands"] = total("pifile.parse", "commands")
    m["plan.build_s"] = total("plan.build")
    m["plan.validate_s"] = total("plan.validate")
    m["plan.warnings"] = total("plan.validate", "warnings")
    m["mounts.plan_s"] = total("mounts.plan")
    m["mounts.actions"] = total("mounts.plan", "actions")
    for kind in ActionKind:
        emits = [n for n, s in enumerate(spans)
                 if s.name == "executor.emit" and s.attrs["kind"] == kind.name]
        m[f"executor.emit_count.{kind.name}"] = len(emits)
        m[f"executor.action_s.{kind.name}"] = sum(selfs[n] for n in emits)
    m["executor.render_log_s"] = total("executor.render_log")
    m["executor.log_KiB"] = total("executor.render_log", "bytes") / 1024
    execute = [s for s in spans if s.name == "executor.execute"]
    stages = execute[0].attrs.get("stages", {}) if execute else {}
    for stage in STAGES:
        m[f"executor.stage_s.{stage}"] = stages.get(stage, 0.0)
    m["executor.digest_s"] = 0.0
    if execute and execute[0].attrs.get("digested"):
        teardown = sum(s.duration for s in spans
                       if s.name == "executor.emit" and s.attrs["kind"] in TEARDOWN_KINDS)
        m["executor.digest_s"] = execute[0].duration - sum(stages.values()) - teardown
    host = [s for s in spans if s.name == "executor.emit"
            and s.attrs["kind"] == ActionKind.HOST_EXEC.name]
    m["executor.host_output_lines"] = sum(s.attrs.get("lines", 0) for s in host)
    m["executor.host_stdin_KiB"] = sum(s.attrs.get("stdin_bytes", 0) for s in host) / 1024
    m["source.copy_s"] = total("source.copy")
    m["source.copy_alloc_MiB"] = total("source.copy", "alloc_bytes") / MiB
    m["source.extract_s"] = total("source.extract")
    m["source.extract_alloc_MiB"] = total("source.extract", "alloc_bytes") / MiB
    m["image.pump_s"] = total("image.pump")
    return m


def median_metrics(per_build: list[dict[str, float]]) -> dict[str, float]:
    if not per_build:
        return {}
    return {key: statistics.median(b[key] for b in per_build) for key in per_build[0]}


def extract_hits(spans: list[Span]) -> tuple[int, int]:
    """(hits, calls) of source.extract among ``spans``."""
    calls = [s for s in spans if s.name == "source.extract"]
    return sum(1 for s in calls if s.attrs.get("hit")), len(calls)
