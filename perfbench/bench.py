"""imgforge benchmark: real builds through ``imgforge.cli.main``, checked and timed.

Started by ``run.py``, which puts the checkout's ``src/`` on the path.  One
process runs one workload as a closed loop: one build at a time, each
followed by an untimed check of its outputs, and at most one child process
(resize2fs, a HOST shell, e2fsck) alive at once.

A run has three phases:

1. fixtures for the seed are generated by ``fixtures.py`` in a child
   process and cached per seed, so their cost is in no metric;
2. set-up: at least ``SETUPS`` builds (more for fast workloads), each
   against an empty ``--cache``; ``setup_s`` is their median;
3. timed builds until their summed wall time reaches ``--seconds``;
   ``build_s`` is their median.

With ``--trace 1`` the set-up builds and every other timed build run with
spans on, and the run reports per-layer metrics instead: medians over the
traced timed builds (extraction: over the set-up builds, where it does its
work), and the tracing overhead as the traced minus the untraced median
build time.  Spans are written to ``.perfbench_work/results/`` at the end.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give every
metric with its unit and sample count, the environment, and the effects
a rootless build cannot perform, which are never measured or estimated.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import imgforge
from imgforge import cli
from imgforge.executor import DryRunExecutor, Executor, LocalExecutor

import spans
import verify
from fixtures import NODE, sync_tree
from shim import RootlessRunner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("pump-ext4", "xz-host", "plan-5k")
PINNED_ENV = {"PATH": "/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin",
              "NODE": NODE}
# a fixed emulator keeps the planned mounts independent of what the host has installed
EMULATOR = "/usr/bin/qemu-arm-static"
# set-up repeats: at least SETUPS, more while they add up to less than SETUP_MIN_S
SETUPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX = 20
MIN_TIMED_BUILDS = 3
KEEP_SEEDS = 3
DEADLINE_S = 140.0  # stop timing early rather than overrun the 180 s a run may take
MiB = 1024 * 1024

END_TO_END = ("build_s", "setup_s", "peak_rss_MiB")
UNMEASURED = (
    "LOOP_ATTACH, MOUNT_PARTITION, BIND_MOUNT, COPY_EMULATOR, GUEST_EXEC, COPY_IN, "
    "UNMOUNT, REMOVE_EMULATOR, LOOP_DETACH: their real effects need root and are never "
    "estimated; plan-5k times only their dry-run bookkeeping"
)


def unit(name: str) -> str:
    """Unit from the name's first dotted part that carries one: ``action_s.KIND`` is s."""
    for part in name.split("."):
        for suffix, text in (("_s", "s"), ("_MiB", "MiB"), ("_KiB", "KiB"), ("_ratio", "ratio")):
            if part.endswith(suffix):
                return text
    return "count"


def ensure_fixture(workload: str, seed: int, work: Path = WORK) -> Path:
    """The seed's fixture directory, generated once and kept for the latest seeds."""
    base = work / "fixtures" / workload
    target = base / f"seed-{seed}"
    if not (target / "manifest.json").is_file():
        shutil.rmtree(target, ignore_errors=True)
        tmp = base / f".partial-{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run([sys.executable, str(HERE / "fixtures.py"), "--workload", workload,
                        "--seed", str(seed), "--out", str(tmp)],
                       check=True, stdin=subprocess.DEVNULL)
        os.replace(tmp, target)
    os.utime(target)
    others = sorted((p for p in base.glob("seed-*") if p != target),
                    key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in others[KEEP_SEEDS - 1:]:
        shutil.rmtree(stale, ignore_errors=True)
    return target


def allocated_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_blocks * 512
    return sum(p.stat().st_blocks * 512 for p in path.rglob("*") if p.is_file())


def environment(work: Path) -> dict:
    version = subprocess.run(["mke2fs", "-V"], capture_output=True, text=True,
                             stdin=subprocess.DEVNULL).stderr.split("\n")[0]
    real = os.path.realpath(work)
    fs_type, best = "unknown", ""
    with open("/proc/mounts") as fh:
        for line in fh:
            mount_point, kind = line.split()[1:3]
            inside = real == mount_point or real.startswith(mount_point.rstrip("/") + "/")
            if inside and len(mount_point) > len(best):
                fs_type, best = kind, mount_point
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "e2fsprogs": version,
        "workdir_fs": fs_type,
        "page_cache": "warm; never dropped (dropping it needs root and affects the whole host)",
        "dest_fsync": "no; destination writes are not fsynced",
    }


@dataclass
class Outcome:
    wall: float
    traced: bool
    problems: list[str]
    spans: slice
    dest_alloc: int = 0
    setup: bool = False


@dataclass
class Workload:
    """One workload's inputs and the builds made from them."""

    name: str
    fixture: Path
    run_dir: Path
    tracer: spans.Tracer = field(default_factory=spans.Tracer)
    outcomes: list[Outcome] = field(default_factory=list)
    first_log_sha: str | None = None

    def __post_init__(self) -> None:
        self.manifest = json.loads((self.fixture / "manifest.json").read_text())
        if self.name != "plan-5k":
            # relative to the Pifile, so no character of the checkout path reaches the parser
            def rel(name: str) -> str:
                return os.path.relpath(self.fixture / name, self.run_dir)
            lines = [f"FROM {rel(self.manifest['image'])}", "TO out.img",
                     f"PUMP {self.manifest['pump']}"]
            if "fragment" in self.manifest:
                lines.append(f"source {rel(self.manifest['fragment'])}")
            (self.run_dir / "build.Pifile").write_text("\n".join(lines) + "\n")

    def argv(self, cache: Path) -> list[str]:
        common = ["--cache", str(cache), "--emulator", EMULATOR]
        if self.name == "plan-5k":
            # relative to the fixture directory, the working directory during builds, so
            # the dry-run log holds no checkout path
            return [self.manifest["pifile"], "--dry-run", str(self.run_dir / "plan.log"),
                    *common]
        return [str(self.run_dir / "build.Pifile"), *common]

    def factory(self, traced: bool) -> Callable[[cli.CliConfig], Executor]:
        tracer = self.tracer

        def make(config: cli.CliConfig) -> Executor:
            if config.dry_run is not None:
                return spans.TracedDryRunExecutor(tracer) if traced else DryRunExecutor()
            runner = RootlessRunner()
            if traced:
                def on_output(line: str) -> None:
                    tracer.bump("lines")
                    print(f"  {line}")
                backend = spans.TracedLocalExecutor(tracer, runner=runner, on_output=on_output)
            else:
                # the CLI's default line printer, so HOST streaming costs what it costs there
                backend = LocalExecutor(runner=runner, on_output=lambda line: print(f"  {line}"))
            runner.executor = backend
            return backend
        return make

    def build(self, cache: Path, traced: bool, check_digest: bool = False) -> Outcome:
        """One ``cli.main`` build, timed, then checked outside the timed region."""
        argv, factory = self.argv(cache), self.factory(traced)
        stdout, stderr = io.StringIO(), io.StringIO()
        status, error = None, None
        first = len(self.tracer.spans)
        with spans.instrument(self.tracer) if traced else contextlib.nullcontext():
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    with self.tracer.span("build") if traced else contextlib.nullcontext():
                        status = cli.main(argv, PINNED_ENV, executor_factory=factory)
            except Exception as exc:  # a build that raises is a failed build, not a crash
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - started
        outcome = Outcome(wall, traced, [], slice(first, len(self.tracer.spans)))
        if traced:
            self.tracer.build += 1
        if error is not None:
            outcome.problems.append(error)
        elif status != 0:
            outcome.problems.append(f"exit status {status}: {stderr.getvalue().strip()[-300:]}")
        else:
            outcome.problems += self.check(stdout.getvalue(), check_digest, outcome)
        for leftover in (self.run_dir / "out.img", self.run_dir / "plan.log"):
            leftover.unlink(missing_ok=True)
        self.outcomes.append(outcome)
        return outcome

    def check(self, stdout: str, check_digest: bool, outcome: Outcome) -> list[str]:
        if self.name == "plan-5k":
            text = (self.run_dir / "plan.log").read_text()
            sha = hashlib.sha256(text.encode()).hexdigest()
            self.first_log_sha = self.first_log_sha or sha
            problems = verify.check_plan_log(text, self.manifest, PINNED_ENV["PATH"].split(":"))
            if sha != self.first_log_sha:
                problems.append("dry-run log differs from the run's first build")
            return problems
        out = self.run_dir / "out.img"
        problems = verify.check_image(out, self.manifest)
        if "host" in self.manifest:
            problems += verify.check_host_output(stdout, self.manifest["host"])
        if check_digest:
            problems += verify.check_digest(stdout, out)
        outcome.dest_alloc = allocated_bytes(out)
        return problems

    def layer_metrics(self, outcome: Outcome) -> dict[str, float]:
        return spans.build_metrics(self.tracer.spans[outcome.spans], outcome.spans.start)


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p99/p95/p90/p75 that has at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            return f"build_s.p{pct}", statistics.quantiles(values, n=100)[pct - 1]
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path = WORK) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    started = time.monotonic()
    fixture = ensure_fixture(workload, seed, work)
    run_dir = work / "runs" / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = Workload(workload, fixture, run_dir)
    env = environment(work)
    cwd = os.getcwd()
    os.chdir(fixture)
    try:
        setups: list[Outcome] = []
        while len(setups) < SETUPS or (sum(o.wall for o in setups) < SETUP_MIN_S
                                       and len(setups) < SETUP_MAX):
            if setups:
                shutil.rmtree(cache, ignore_errors=True)
            cache = run_dir / f"cache-{len(setups)}"
            setups.append(bench.build(cache, traced=trace, check_digest=not setups))
            setups[-1].setup = True
        if cache.exists():
            sync_tree(cache)  # the kept cache's write-back must not overlap the timed builds
        timed: list[Outcome] = []
        while (sum(o.wall for o in timed) < seconds or len(timed) < MIN_TIMED_BUILDS) \
                and time.monotonic() - started < DEADLINE_S:
            timed.append(bench.build(cache, traced=trace and len(timed) % 2 == 1))
        cache_alloc = allocated_bytes(cache) if cache.exists() else 0
    finally:
        os.chdir(cwd)
        shutil.rmtree(run_dir, ignore_errors=True)

    outcomes = bench.outcomes
    failed = [o for o in outcomes if o.problems]
    untraced = [o.wall for o in timed if not o.traced]
    dest_alloc = statistics.median(o.dest_alloc for o in outcomes) / MiB
    samples: dict[str, tuple[float, int]] = {}
    if trace:
        traced = [o for o in timed if o.traced]
        layer = spans.median_metrics([bench.layer_metrics(o) for o in traced])
        at_setup = [bench.layer_metrics(o) for o in setups]
        for key in ("source.extract_s", "source.extract_alloc_MiB"):
            layer[key] = statistics.median(m[key] for m in at_setup)
        hits, calls = spans.extract_hits([s for o in traced for s in bench.tracer.spans[o.spans]])
        layer["source.extract_hit_ratio"] = hits / calls if calls else 0.0
        layer["dest_alloc_MiB"] = dest_alloc
        layer["cache_alloc_MiB"] = cache_alloc / MiB
        traced_median = statistics.median(o.wall for o in traced)
        layer["trace.build_s"] = traced_median
        layer["trace.overhead_s"] = traced_median - statistics.median(untraced)
        samples = {key: (value, len(traced)) for key, value in layer.items()}
        (work / "results").mkdir(parents=True, exist_ok=True)
        bench.tracer.write(work / "results" / f"spans-{workload}.jsonl")
        reported = layer
    else:
        samples["build_s"] = (statistics.median(untraced), len(untraced))
        tail = tail_percentile(untraced)
        if tail is not None:
            samples[tail[0]] = (tail[1], len(untraced))
        samples["setup_s"] = (statistics.median(o.wall for o in setups), len(setups))
        samples["peak_rss_MiB"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        samples["dest_alloc_MiB"] = (dest_alloc, len(outcomes))
        samples["cache_alloc_MiB"] = (cache_alloc / MiB, 1)
        samples["fail_ratio"] = (len(failed) / len(outcomes), len(outcomes))
        reported = {key: samples[key][0] for key in END_TO_END}

    print(f"perfbench workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for key, (value, count) in samples.items():
        print(f"  {key:<36} {value:>14.6f} {unit(key):<6} n={count}")
    print(f"unmeasured: {UNMEASURED}")
    for outcome in failed[:5]:
        print(f"FAILED build: {'; '.join(outcome.problems)[:500]}", file=sys.stderr)
    (work / "results").mkdir(parents=True, exist_ok=True)
    (work / "results" / f"result-{workload}-trace{int(trace)}.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "unmeasured": UNMEASURED,
        "metrics": {k: {"value": v, "unit": unit(k), "n": n} for k, (v, n) in samples.items()},
        "builds": [{"wall_s": o.wall, "setup": o.setup, "traced": o.traced,
                    "problems": o.problems} for o in outcomes],
    }, indent=1))
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": unit(key)} for key, value in reported.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="imgforge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(imgforge.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported imgforge from {imgforge.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.environ["PATH"] = PINNED_ENV["PATH"]  # HOST shells and e2fsprogs resolve through it
    # configure logging before any build, so imgforge's own basicConfig call does not
    # bind its handler to the first build's captured stderr
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0
