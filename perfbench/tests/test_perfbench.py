"""Tests of the benchmark itself: shim, output checks, spans, fixtures, names.

    python3 -m pytest perfbench/tests -q

They build small seeded images with e2fsprogs, so they need no root.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path

import pytest
from imgforge import cli

import bench
import fixtures
import spans
import verify
from shim import RootlessRunner, ShimRefused

MiB = 1024 * 1024
SMALL_IMAGE = fixtures.ImageSpec(image_bytes=48 * MiB, boot_bytes=4 * MiB, data_bytes=4 * MiB,
                                 pump="16M", pump_bytes=16 * MiB)
SMALL_PLAN = fixtures.PlanSpec(image_bytes=16 * MiB, modules=2, directives_per_module=60,
                               path_dirs_per_module=2)


def _fixture(tmp_path: Path, workload: str, spec, seed: int = 3) -> Path:
    out = tmp_path / f"fixture-{workload}-{seed}"
    out.mkdir()
    fixtures.generate(workload, seed, out, spec)
    return out


def _workload(tmp_path: Path, workload: str, spec) -> bench.Workload:
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    return bench.Workload(workload, _fixture(tmp_path, workload, spec), run_dir)


@pytest.mark.parametrize("argv", [
    ["mount", "/dev/loop7p2", "/tmp/root"],
    ["mount", "--bind", "/dev", "/tmp/root/dev"],
    ["umount", "/tmp/root"],
    ["chroot", "/tmp/root", "/bin/sh", "-c", "true"],
    ["losetup", "--find", "--show", "-P", "image.img"],
])
def test_shim_refuses_guest_access(argv):
    with pytest.raises(ShimRefused):
        RootlessRunner()(argv)


def test_image_check_rejects_flipped_table_byte_and_truncated_tail(tmp_path):
    work = _workload(tmp_path, "pump-ext4", SMALL_IMAGE)
    status = cli.main(work.argv(tmp_path / "cache"), bench.PINNED_ENV,
                      executor_factory=work.factory(traced=False))
    out = work.run_dir / "out.img"
    assert status == 0
    assert verify.check_image(out, work.manifest) == []

    flipped = tmp_path / "flipped.img"
    shutil.copyfile(out, flipped)
    with open(flipped, "r+b") as fh:
        fh.seek(446 + 16 + 12)  # low byte of the root entry's sector count
        byte = fh.read(1)[0]
        fh.seek(-1, 1)
        fh.write(bytes([byte ^ 0x01]))
    assert verify.check_image(flipped, work.manifest)

    truncated = tmp_path / "truncated.img"
    shutil.copyfile(out, truncated)
    with open(truncated, "r+b") as fh:
        fh.truncate(out.stat().st_size - 4096)
    assert verify.check_image(truncated, work.manifest)


def test_plan_check_rejects_a_changed_effect(tmp_path, monkeypatch):
    work = _workload(tmp_path, "plan-5k", SMALL_PLAN)
    monkeypatch.chdir(work.fixture)
    status = cli.main(work.argv(tmp_path / "cache"), bench.PINNED_ENV,
                      executor_factory=work.factory(traced=False))
    assert status == 0
    log = (work.run_dir / "plan.log").read_text()
    host_path = bench.PINNED_ENV["PATH"].split(":")
    assert verify.check_plan_log(log, work.manifest, host_path) == []
    changed = log.replace("HOST_EXEC\tcommand=", "HOST_EXEC\tcommand=x", 1)
    assert verify.check_plan_log(changed, work.manifest, host_path)


def test_span_self_times_sum_to_wall_time(tmp_path, monkeypatch):
    work = _workload(tmp_path, "plan-5k", SMALL_PLAN)
    monkeypatch.chdir(work.fixture)
    plain = work.build(tmp_path / "cache", traced=False)
    traced = work.build(tmp_path / "cache", traced=True)
    assert plain.problems == [] and traced.problems == []
    built = work.tracer.spans[traced.spans]
    assert built[0].name == "build" and built[0].parent is None
    assert {"pifile.parse", "plan.build", "plan.validate", "executor.execute",
            "mounts.plan", "executor.emit", "executor.render_log"} <= {s.name for s in built}
    overhead = max(traced.wall - plain.wall, 1e-3)
    total_self = sum(spans.self_times(built, traced.spans.start))
    assert abs(traced.wall - total_self) <= overhead


@pytest.mark.parametrize("workload, spec", [("pump-ext4", SMALL_IMAGE), ("plan-5k", SMALL_PLAN)])
def test_fixtures_depend_only_on_the_seed(tmp_path, workload, spec):
    def digests(directory: Path) -> dict[str, str]:
        return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(directory.rglob("*")) if p.is_file()}

    made = []
    for name, seed in (("first", 3), ("again", 3), ("other", 4)):
        (tmp_path / name).mkdir()
        made.append(digests(_fixture(tmp_path / name, workload, spec, seed)))
        time.sleep(1.1)  # image metadata must not pick up the wall clock
    first, again, other = made
    assert first == again
    assert first["base.img"] != other["base.img"]


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_reported_metrics_are_those_declared(tmp_path, trace, section):
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())[section]
    result = bench.run("plan-5k", seed=1, seconds=0.2, trace=trace, work=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
