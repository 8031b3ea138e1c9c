import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mbr_oracle
from imgforge.cli import main, render_log
from imgforge.errors import ChrootUnavailable
from imgforge.executor import ActionKind, DryRunExecutor, LocalExecutor
from imgforge.source import SourceKind

ENV = {"PATH": "/usr/bin:/bin"}


class FailingSecondRun(DryRunExecutor):
    def __init__(self):
        super().__init__()
        self.guest_execs = 0

    def _perform(self, action):
        if action.kind is ActionKind.GUEST_EXEC:
            self.guest_execs += 1
            if self.guest_execs == 2:
                return 1
        return 0


class NoChroot(DryRunExecutor):
    def _perform(self, action):
        if action.kind is ActionKind.GUEST_EXEC:
            raise ChrootUnavailable("running guest commands requires root")
        return 0


def write_fixture(tmp_path, name="example.Pifile",
                  text="FROM base.img\nTO out.img\n"):
    mbr_oracle.write_image(tmp_path / "base.img")
    pifile = tmp_path / name
    pifile.write_text(text)
    return pifile


class TestExitCodes:
    def test_success_builds_image(self, tmp_path, capsys):
        pifile = write_fixture(tmp_path)
        assert main([str(pifile)], ENV) == 0
        out_img = tmp_path / "out.img"
        assert out_img.is_file()
        assert (hashlib.sha256(out_img.read_bytes()).hexdigest()
                == hashlib.sha256((tmp_path / "base.img").read_bytes()).hexdigest())

    def test_missing_pifile_is_exit_1_and_named(self, tmp_path, capsys):
        missing = tmp_path / "missing.Pifile"
        assert main([str(missing)], ENV) == 1
        assert "missing.Pifile" in capsys.readouterr().err

    def test_parse_error_is_exit_1(self, tmp_path, capsys):
        pifile = tmp_path / "bad.Pifile"
        pifile.write_text("BOGUS command\n")
        assert main([str(pifile)], ENV) == 1

    def test_plan_error_is_exit_1(self, tmp_path):
        pifile = tmp_path / "empty.Pifile"
        pifile.write_text("RUN x\n")  # no FROM/INPLACE
        assert main([str(pifile)], ENV) == 1

    def test_invalid_install_mode_is_exit_1_before_any_copy(self, tmp_path, capsys):
        pifile = write_fixture(
            tmp_path, text="FROM base.img\nTO out.img\nPUMP 1M\nINSTALL 9999 x /y\n")
        code = main([str(pifile)], ENV,
                    executor_factory=lambda cfg: LocalExecutor(runner=lambda argv, **kw: (0, "")))
        assert code == 1
        assert "octal" in capsys.readouterr().err
        assert not (tmp_path / "out.img").exists()

    def test_command_failure_is_exit_2(self, tmp_path, capsys):
        pifile = write_fixture(
            tmp_path, text="FROM base.img\nRUN first\nRUN second\nRUN third\n")
        code = main([str(pifile)], ENV, executor_factory=lambda cfg: FailingSecondRun())
        assert code == 2

    def test_environment_problem_is_exit_3(self, tmp_path):
        pifile = write_fixture(tmp_path, text="FROM base.img\nRUN x\n")
        code = main([str(pifile)], ENV, executor_factory=lambda cfg: NoChroot())
        assert code == 3

    def test_offline_cache_miss_is_exit_2(self, tmp_path):
        pifile = tmp_path / "url.Pifile"
        pifile.write_text("FROM https://host/base.img\n")
        code = main(["--offline", "--dry-run", str(tmp_path / "plan.log"), str(pifile)],
                    ENV)
        assert code == 2

    def test_help_is_exit_0(self, capsys):
        assert main(["--help"], ENV) == 0

    def test_unknown_flag_is_exit_1(self, capsys):
        assert main(["--bogus"], ENV) == 1

    def test_malformed_env_flag_is_exit_1(self, tmp_path, capsys):
        pifile = write_fixture(tmp_path)
        assert main(["--env", "NOEQUALS", str(pifile)], ENV) == 1


class TestDryRun:
    def test_writes_log_and_nothing_else(self, tmp_path):
        pifile = write_fixture(
            tmp_path,
            text="FROM base.img 2\nTO out.img\nPUMP 16M\nRUN apt-get update\n")
        log = tmp_path / "plan.log"
        before = {p.name for p in tmp_path.iterdir()}
        code = main(["--dry-run", str(log), "--emulator", "/usr/bin/qemu-arm-static",
                     str(pifile)], ENV)
        assert code == 0
        after = {p.name for p in tmp_path.iterdir()}
        assert after - before == {"plan.log"}
        assert not (tmp_path / "out.img").exists()
        content = log.read_text()
        assert "GROW_FILE" in content and "GUEST_EXEC" in content

    def test_log_written_even_on_failure(self, tmp_path):
        pifile = write_fixture(
            tmp_path, text="FROM base.img\nRUN a\nRUN b\nINSTALL x /y\n")
        log = tmp_path / "plan.log"
        code = main(["--dry-run", str(log), "--emulator", "/usr/bin/qemu-arm-static",
                     str(pifile)], ENV, executor_factory=lambda cfg: FailingSecondRun())
        assert code == 2
        content = log.read_text()
        assert "LOOP_DETACH" in content  # teardown made it into the log
        assert "COPY_IN" not in content  # aborted commands did not

    def test_env_flag_feeds_substitution(self, tmp_path):
        mbr_oracle.write_image(tmp_path / "base.img")
        pifile = tmp_path / "env.Pifile"
        pifile.write_text("INPLACE ${DEVICE}\nPUMP $SZ\n")
        log = tmp_path / "plan.log"
        code = main([
            "--dry-run", str(log),
            "--env", f"DEVICE={tmp_path / 'base.img'}",
            "--env", "SZ=16M",
            str(pifile),
        ], ENV)
        assert code == 0
        assert "bytes=16777216" in log.read_text()

    def test_pimod_cache_env_var_selects_cache(self, tmp_path):
        from imgforge.source import fetch_to_cache

        url = "https://host/base.img"
        cache = tmp_path / "prewarmed"
        image_bytes = mbr_oracle.build_sector0(
            mbr_oracle.FIXTURE_DISK_ID, mbr_oracle.FIXTURE_PARTITIONS)
        fetch_to_cache(url, cache, lambda u, dest: Path(dest).write_bytes(
            image_bytes + bytes(1024 * 1024)))

        pifile = tmp_path / "url.Pifile"
        pifile.write_text(f"FROM {url}\nRUN x\n")
        log = tmp_path / "plan.log"
        env = dict(ENV, PIMOD_CACHE=str(cache))
        code = main(["--offline", "--dry-run", str(log),
                     "--emulator", "/usr/bin/qemu-arm-static", str(pifile)], env)
        assert code == 0  # offline run succeeded purely from the prewarmed cache

    def test_device_destination_needs_confirmation(self, tmp_path, capsys, monkeypatch):
        import imgforge.plan as plan_mod

        def fake_probe(locator):
            if locator == "/dev/fake":
                return SourceKind.BLOCK_DEVICE
            if Path(locator).is_file():
                return SourceKind.LOCAL_FILE
            return None

        monkeypatch.setattr(plan_mod, "default_probe", fake_probe)
        pifile = write_fixture(tmp_path, text="FROM base.img\nTO /dev/fake\n")
        code = main([str(pifile)], ENV)
        assert code == 1
        assert "--inplace-device" in capsys.readouterr().err

    def test_device_destination_confirmed_dry_run(self, tmp_path, monkeypatch):
        import imgforge.plan as plan_mod

        def fake_probe(locator):
            if locator == "/dev/fake":
                return SourceKind.BLOCK_DEVICE
            if Path(locator).is_file():
                return SourceKind.LOCAL_FILE
            return None

        monkeypatch.setattr(plan_mod, "default_probe", fake_probe)
        pifile = write_fixture(tmp_path, text="FROM base.img\nTO /dev/fake\n")
        log = tmp_path / "plan.log"
        code = main(["--inplace-device", "--dry-run", str(log), str(pifile)], ENV)
        assert code == 0
        assert "DEVICE_WRITE" in log.read_text()


class TestLogging:
    def test_render_log_with_origin(self):
        line = render_log("chroot", "RUN raspi-config nonint do_serial 0",
                          pifile="example.Pifile", line=8)
        assert line == "[chroot] example.Pifile:8 RUN raspi-config nonint do_serial 0"

    def test_render_log_stage_marker(self):
        assert render_log("prepare", "begin") == "[prepare] begin"

    def test_stage_markers_and_command_lines_on_stdout(self, tmp_path, capsys):
        pifile = write_fixture(
            tmp_path, name="walk.Pifile",
            text="FROM base.img\n\nRUN uname -a\n")
        log = tmp_path / "plan.log"
        assert main(["--dry-run", str(log), "--emulator", "/x/qemu-arm-static",
                     str(pifile)], ENV) == 0
        out = capsys.readouterr().out
        assert "[setup] begin" in out
        assert "[prepare] begin" in out
        assert "[chroot] begin" in out
        assert "[chroot] walk.Pifile:3 RUN uname -a" in out

    def test_failure_line_names_stage_line_and_status(self, tmp_path, capsys):
        pifile = write_fixture(
            tmp_path, name="fail.Pifile",
            text="FROM base.img\nRUN ok\nRUN boom\n")
        code = main(["--dry-run", str(tmp_path / "l.log"),
                     "--emulator", "/x/qemu-arm-static", str(pifile)],
                    ENV, executor_factory=lambda cfg: FailingSecondRun())
        assert code == 2
        err = capsys.readouterr().err
        assert "[chroot]" in err
        assert "fail.Pifile:3" in err
        assert "exit status 1" in err

    def test_guest_output_indented(self, tmp_path, capsys):
        pifile = write_fixture(tmp_path, text="FROM base.img\nHOST echo deep\n")
        assert main([str(pifile)], ENV) == 0
        out = capsys.readouterr().out
        assert "  deep" in out.splitlines()

    def test_done_line_reports_digest(self, tmp_path, capsys):
        pifile = write_fixture(tmp_path)
        assert main([str(pifile)], ENV) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256((tmp_path / "out.img").read_bytes()).hexdigest()
        assert f"sha256={digest}" in out


DEMO_DIR = Path(__file__).parent.parent / "demo"
DATA_DIR = Path(__file__).parent / "data"


@pytest.mark.parametrize("demo", ["serial-console", "sensor-node"])
def test_demo_dry_run_matches_golden(demo, tmp_path, monkeypatch):
    """The demos' dry-run logs, pinned byte for byte with host-independent inputs."""
    work = tmp_path / "demo"
    shutil.copytree(DEMO_DIR, work)
    subprocess.run([sys.executable, str(work / "make-demo-image.py"), str(work / "base.img")],
                   check=True, capture_output=True)
    monkeypatch.chdir(work)
    code = main(["--dry-run", "plan.log", "--emulator", "/usr/bin/qemu-arm-static",
                 "--env", "NODE=alpha", f"{demo}.Pifile"], ENV)
    assert code == 0
    assert (work / "plan.log").read_text() == (DATA_DIR / f"demo-{demo}.log").read_text()
