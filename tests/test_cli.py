import contextlib
import errno
import gzip
import hashlib
import io
import logging
import lzma
import os
import random
import resource
import shutil
import signal
import stat
import subprocess
import sys
import time
import urllib.error
import urllib.request
import zipfile
from pathlib import Path

import pytest

import imgforge.plan as plan_mod
import imgforge.source as source_mod
import mbr_oracle
from imgforge.cli import entrypoint, main
from imgforge.errors import EnvironmentProblem, ExecutionFailure
from imgforge.executor import Action, ActionKind, DryRunExecutor, LocalExecutor
from imgforge.mounts import teardown_actions
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
            raise EnvironmentProblem("running guest commands requires root")
        return 0


def fake_device_probe(locator):
    """Filesystem probe that also sees a block device at /dev/fake."""
    if locator == "/dev/fake":
        return SourceKind.BLOCK_DEVICE
    if Path(locator).is_file():
        return SourceKind.LOCAL_FILE
    return None


def error_line(stderr):
    """The one line of ``stderr`` that is not a plan warning."""
    lines = [line for line in stderr.splitlines() if not line.startswith("warning: ")]
    assert len(lines) == 1, stderr
    return lines[0]


def write_fixture(tmp_path, name="example.Pifile",
                  text="FROM base.img\nTO out.img\n"):
    mbr_oracle.write_image(tmp_path / "base.img")
    pifile = tmp_path / name
    pifile.write_text(text)
    return pifile


def write_packed_fixture(tmp_path, suffix=".xz"):
    """A 1 MiB ``base.img`` packed as ``base.img<suffix>``, and a Pifile that copies it out."""
    raw = mbr_oracle.write_image(tmp_path / "base.img", 1024 * 1024)
    compress = {".xz": lzma.compress, ".gz": gzip.compress}[suffix]
    (tmp_path / f"base.img{suffix}").write_bytes(compress(raw.read_bytes()))
    pifile = tmp_path / "packed.Pifile"
    pifile.write_text(f"FROM base.img{suffix}\nTO out.img\nHOST true\n")
    return pifile


def stub_tool(tmp_path, monkeypatch, name, script):
    """Put an executable ``name`` running the sh ``script`` first on PATH."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir(exist_ok=True)
    (bin_dir / name).write_text(f"#!/bin/sh\n{script}")
    (bin_dir / name).chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}:{os.environ['PATH']}")  # the tool is looked up here


def assert_no_temporary_files(root):
    """No file a build writes before renaming it into place is left under ``root``: a
    ``.<name>.partial``, or the pid-named ``.extract.*`` and ``.partial.*`` that the
    cache once wrote, so that a return to those names fails too."""
    patterns = (".*.partial", ".extract.*", ".partial.*")
    assert [p for pattern in patterns for p in root.rglob(pattern)] == []


def write_unpackable(path):
    """Write at ``path`` a source that fails to unpack in the way its name says.

    A cut archive or one with trailing garbage is told from a good one only
    by its tool's exit status.
    """
    if path.name == "none.zip":
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("README", "no image in here")
    elif path.name == "corrupt.zip":
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
            zf.writestr("base.img", bytes(range(256)) * 4096)
        data = bytearray(path.read_bytes())
        data[30 + len("base.img")] = 0x07  # the first deflate block: final, of invalid type 3
        path.write_bytes(data)
    elif path.name.startswith(("cut.", "trailing.")):
        tool = {".gz": "gzip", ".xz": "xz", ".zst": "zstd"}[path.suffix]
        raw = mbr_oracle.write_image(path.with_name("raw.img"), 1024 * 1024)
        packed = subprocess.run([tool, "-c", str(raw)], check=True, stdout=subprocess.PIPE).stdout
        path.write_bytes(packed + b"garbage" if path.name.startswith("trailing.")
                         else packed[:len(packed) // 2])
    else:
        path.write_bytes(random.Random(0).randbytes(4096))


class TestExitCodes:
    def test_success_builds_image(self, tmp_path, capsys):
        pifile = write_fixture(tmp_path)
        assert main([str(pifile)], ENV) == 0
        out_img = tmp_path / "out.img"
        assert out_img.is_file()
        assert (hashlib.sha256(out_img.read_bytes()).hexdigest()
                == hashlib.sha256((tmp_path / "base.img").read_bytes()).hexdigest())

    @pytest.mark.parametrize("dry_run", [True, False])
    @pytest.mark.parametrize("link", [os.symlink, os.link])
    def test_to_linked_to_the_source_edits_it_in_place(self, tmp_path, capsys, link, dry_run):
        pifile = write_fixture(tmp_path, text="FROM base.img\nTO link.img\nHOST true\n")
        source = tmp_path / "base.img"
        before = hashlib.sha256(source.read_bytes()).hexdigest()
        link(source, tmp_path / "link.img")
        backend = DryRunExecutor() if dry_run else LocalExecutor()
        log = ["--dry-run", str(tmp_path / "plan.log")] if dry_run else []
        assert main([*log, str(pifile)], ENV, executor_factory=lambda cfg: backend) == 0
        assert hashlib.sha256(source.read_bytes()).hexdigest() == before
        assert ActionKind.COPY_IMAGE not in [a.kind for a in backend.actions]
        if not dry_run:
            assert f"sha256={before}" in capsys.readouterr().out

    def test_missing_pifile_is_exit_1_and_named(self, tmp_path, capsys):
        missing = tmp_path / "missing.Pifile"
        assert main([str(missing)], ENV) == 1
        assert "missing.Pifile" in capsys.readouterr().err

    def test_pifile_that_is_a_directory_is_exit_1(self, tmp_path, capsys):
        assert main([str(tmp_path)], ENV) == 1
        assert capsys.readouterr().err == (
            f"[error] cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n")

    def test_second_inplace_is_exit_1_at_its_line(self, tmp_path, capsys):
        pifile = write_fixture(tmp_path, text="INPLACE base.img\nINPLACE base.img\n")
        assert main([str(pifile)], ENV) == 1
        assert capsys.readouterr().err == f"[error] {pifile}:2: multiple INPLACE directives\n"

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

    @pytest.mark.parametrize("dry_run", [True, False])
    def test_install_climbing_out_of_the_guest_is_exit_1_before_any_copy(
            self, tmp_path, capsys, private_tempdir, dry_run):
        pifile = write_fixture(
            tmp_path, text="FROM base.img\nTO out.img\nINSTALL motd ../../dotdot.conf\n")
        (tmp_path / "motd").write_text("hi\n")
        log = ["--dry-run", str(tmp_path / "plan.log")] if dry_run else []
        code = main([*log, str(pifile)], ENV,
                    executor_factory=lambda cfg: LocalExecutor(runner=lambda argv, **kw: (0, "")))
        assert code == 1
        assert error_line(capsys.readouterr().err).startswith(f"[error] {pifile}:3: INSTALL ")
        assert not (tmp_path / "out.img").exists()
        # where the copy would land: two levels above a root made in the temporary directory
        assert not (private_tempdir.parent / "dotdot.conf").exists()

    @pytest.mark.parametrize("dry_run", [True, False])
    @pytest.mark.parametrize("text, line, message", [
        ("FROM base.img 5\nTO out.img\nPUMP 1M\n", 1,
         "partition index must be <= 4, the MBR slots, got 5"),
        ("FROM base.img 5\nTO out.img\nHOST true\n", 1,
         "partition index must be <= 4, the MBR slots, got 5"),
        ("FROM base.img 7\nTO out.img\nRUN true\n", 1,
         "partition index must be <= 4, the MBR slots, got 7"),
        ("FROM base.img\nTO nodir/out.img\nHOST true\n", 2,
         "the directory of TO nodir/out.img does not exist"),
    ], ids=["partition-five-pump", "partition-five-host", "partition-seven-run",
            "to-without-directory"])
    def test_plan_refusal_is_exit_1_at_its_line_before_any_copy(
            self, tmp_path, capsys, dry_run, text, line, message):
        pifile = write_fixture(tmp_path, text=text)
        log = ["--dry-run", str(tmp_path / "plan.log")] if dry_run else []
        code = main([*log, str(pifile)], ENV,
                    executor_factory=lambda cfg: LocalExecutor(runner=lambda argv, **kw: (0, "")))
        assert code == 1
        assert error_line(capsys.readouterr().err) == f"[error] {pifile}:{line}: {message}"
        assert not (tmp_path / "out.img").exists()
        assert not (tmp_path / "nodir").exists()

    def test_missing_emulator_is_exit_3_before_any_copy(self, tmp_path, capsys):
        pifile = write_fixture(
            tmp_path, text="FROM base.img\nTO out.img\nPUMP 1M\nRUN x\n")
        code = main(["--emulator", str(tmp_path / "nonexistent"), str(pifile)], ENV,
                    executor_factory=lambda cfg: LocalExecutor(runner=lambda argv, **kw: (0, "")))
        assert code == 3
        assert error_line(capsys.readouterr().err).startswith(
            f"[setup] emulator is not a file: {tmp_path / 'nonexistent'}")
        assert not (tmp_path / "out.img").exists()

    def test_command_failure_is_exit_2(self, tmp_path, capsys):
        pifile = write_fixture(
            tmp_path, text="FROM base.img\nRUN first\nRUN second\nRUN third\n")
        code = main([str(pifile)], ENV, executor_factory=lambda cfg: FailingSecondRun())
        assert code == 2

    def test_static_table_error_stops_setup_before_to_is_written(self, tmp_path, capsys):
        mbr_oracle.write_image(tmp_path / "gpt.img", partitions=[
            {"index": 1, "type": 0xEE, "start": 1, "size": 2047},
        ])
        pifile = tmp_path / "gpt.Pifile"
        pifile.write_text("FROM gpt.img\nTO out.img\nPUMP 1M\n")
        code = main([str(pifile)], ENV,
                    executor_factory=lambda cfg: LocalExecutor(runner=lambda argv, **kw: (0, "")))
        assert code == 2
        assert "[setup] protective MBR found" in capsys.readouterr().err
        assert not (tmp_path / "out.img").exists()

    @pytest.mark.parametrize("text", [
        "FROM base.img 1\nTO out.img\nPUMP 1M\n",  # partition 2 starts after it
        "FROM base.img 3\nTO out.img\nPUMP 1M\n",  # an empty slot
        "FROM base.img 3\nTO out.img\nRUN true\n",
        "FROM base.img\nTO out.img\nPUMP 2T\n",  # past a 32-bit sector count
    ])
    def test_partition_refusal_stops_setup_before_to_is_written(self, tmp_path, capsys, text):
        pifile = write_fixture(tmp_path, text=text)
        emulator = tmp_path / "qemu-arm-static"
        emulator.write_bytes(b"")
        args = ["--emulator", str(emulator), str(pifile)]
        code = main(args, ENV,
                    executor_factory=lambda cfg: LocalExecutor(runner=lambda argv, **kw: (0, "")))
        assert code == 2
        real_err = capsys.readouterr().err
        assert error_line(real_err).startswith("[setup]")
        assert not (tmp_path / "out.img").exists()
        assert main(["--dry-run", str(tmp_path / "plan.log"), *args], ENV) == 2
        assert capsys.readouterr().err == real_err

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

    def test_stdout_on_a_full_disk_is_exit_2(self, tmp_path, capsys, monkeypatch):
        # /dev/full fails every write with ENOSPC; the first stage line is the first write,
        # so the build stops before TO is written, with the one [error] line on stderr
        pifile = write_fixture(tmp_path, text="FROM base.img\nTO out.img\nHOST true\n")
        # unbuffered, so that no failed line is left to flush when it is closed
        with io.TextIOWrapper(open("/dev/full", "wb", buffering=0), write_through=True) as full:
            monkeypatch.setattr(sys, "stdout", full)
            assert main([str(pifile)], ENV) == 2
        assert capsys.readouterr().err == (
            f"[error] [Errno {errno.ENOSPC}] No space left on device\n")
        assert not (tmp_path / "out.img").exists()

    def test_dry_run_log_onto_a_fifo_is_written_through(self, tmp_path):
        # a log path that is no regular file, such as /dev/null or a FIFO, is written to and
        # never replaced. The test holds the FIFO open for reading and writing, so that the
        # log's open does not wait, and reads what is written without blocking
        pifile = write_fixture(tmp_path)
        assert main(["--dry-run", str(tmp_path / "plan.log"), str(pifile)], ENV) == 0
        fifo = tmp_path / "plan.fifo"
        os.mkfifo(fifo)
        fd = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)
        try:
            assert main(["--dry-run", str(fifo), str(pifile)], ENV) == 0
            log = os.read(fd, 1024 * 1024)
        finally:
            os.close(fd)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert log == (tmp_path / "plan.log").read_bytes()
        assert_no_temporary_files(tmp_path)

    def test_cache_that_is_a_regular_file_is_exit_3_for_a_url(self, tmp_path, capsys,
                                                               monkeypatch):
        def fetch(url, dest):
            raise AssertionError(f"fetched {url}")

        monkeypatch.setattr(source_mod, "_urllib_fetcher", fetch)
        cache = tmp_path / "cache"
        cache.write_text("")
        pifile = tmp_path / "url.Pifile"
        pifile.write_text("FROM https://host/base.img\nTO out.img\nHOST true\n")
        assert main(["--cache", str(cache), str(pifile)], ENV) == 3
        assert capsys.readouterr().err == (
            f"[setup] cannot create cache directory {cache}: "
            f"[Errno {errno.EEXIST}] File exists: '{cache}'\n")
        assert not (tmp_path / "out.img").exists()

    @pytest.mark.parametrize("source, directive, dry_run, limit, error", [
        ("base.img.gz", "HOST true", False, 4096,
         "[setup] cannot unpack {d}/base.img.gz: [Errno 27] File too large"),
        ("base.img.xz", "HOST true", False, 4096,
         "[setup] cannot decompress {d}/base.img.xz: xz: (stdout): Write error: File too large"),
        ("base.img.zst", "HOST true", False, 4096,
         "[setup] cannot decompress {d}/base.img.zst: zstd was killed by SIGXFSZ"),
        ("base.img", "HOST true", False, 4096,
         "[setup] copying {d}/base.img to {d}/out.img failed: [Errno 27] File too large"),
        ("base.img", "PUMP 1M", False, mbr_oracle.FIXTURE_SIZE,
         "warning: no guest modifications: the chroot stage is empty\n"
         "[prepare] cannot grow {d}/out.img: [Errno 27] File too large"),
        ("base.img", "HOST true", True, 64,
         "[error] cannot write {d}/plan.log: [Errno 27] File too large"),
    ], ids=["gz", "xz", "zst", "copy", "grow", "log"])
    def test_write_past_the_file_size_limit_is_exit_2(self, tmp_path, capsys, source, directive,
                                                      dry_run, limit, error):
        # a file size limit below what the site writes makes its write fail with EFBIG, as
        # Python ignores SIGXFSZ; subprocess restores it in its children, so zstd dies of
        # SIGXFSZ (25) while xz reports the error. FROM, TO and HOST mount nothing, so
        # these builds are real; PUMP's runner is never reached, as the copy fits under the
        # limit and the grown image does not. The limit holds for this process until it is
        # restored
        pump = directive.startswith("PUMP")
        raw = mbr_oracle.write_image(tmp_path / "base.img",
                                     mbr_oracle.FIXTURE_SIZE if pump else 1024 * 1024)
        if source != "base.img":
            tool = {".gz": "gzip", ".xz": "xz", ".zst": "zstd"}[Path(source).suffix]
            subprocess.run([tool, "-q", "--keep", str(raw)], check=True)
        pifile = tmp_path / "full.Pifile"
        pifile.write_text(f"FROM {source}\nTO out.img\n{directive}\n")
        log = ["--dry-run", str(tmp_path / "plan.log")] if dry_run else []
        if dry_run:  # a good log from an earlier run, which the failed write must leave alone
            assert main([*log, str(pifile)], ENV) == 0
            good = (tmp_path / "plan.log").read_bytes()
            assert len(good) > limit

        def runner(argv, **kwargs):
            pytest.fail(f"ran {argv}")

        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
        try:
            capsys.readouterr()
            code = main([*log, str(pifile)], ENV, executor_factory=(
                (lambda cfg: LocalExecutor(runner=runner)) if pump else None))
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("[setup] begin\n")
        if pump:
            assert captured.out == (
                "[setup] begin\n[prepare] begin\n[prepare] full.Pifile:3 PUMP 1M\n")
        elif not dry_run:  # a dry run fails only at its log, which it writes after every stage
            assert captured.out == "[setup] begin\n"
        assert captured.err == error.format(d=tmp_path) + "\n"
        if dry_run:
            assert (tmp_path / "plan.log").read_bytes() == good
        assert_no_temporary_files(tmp_path)
        assert not (tmp_path / ".pimod-cache").exists()

    @pytest.mark.parametrize("error, reason", [
        (lambda url: urllib.error.HTTPError(url, 404, "Not Found", None, None),
         "HTTP 404 Not Found"),
        (lambda url: ConnectionResetError(errno.ECONNRESET, "Connection reset by peer"),
         f"[Errno {errno.ECONNRESET}] Connection reset by peer"),
    ])
    def test_failed_download_is_exit_2_in_setup_and_leaves_no_cache_entry(
            self, tmp_path, capsys, monkeypatch, error, reason):
        url = "https://host/base.img"

        def urlopen(url, timeout):
            raise error(url)

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        pifile = tmp_path / "url.Pifile"
        pifile.write_text(f"FROM {url}\nTO out.img\nHOST true\n")
        cache = tmp_path / "cache"
        code = main(["--cache", str(cache), "--dry-run", str(tmp_path / "plan.log"),
                     str(pifile)], ENV)
        assert code == 2
        assert capsys.readouterr().err == f"[setup] fetching {url} failed: {reason}\n"
        assert not cache.exists()

    def test_offline_miss_is_exit_2_and_leaves_no_cache(self, tmp_path, capsys, monkeypatch):
        def fetch(url, dest):
            raise AssertionError(f"fetched {url}")

        monkeypatch.setattr(source_mod, "_urllib_fetcher", fetch)
        url = "https://host/base.img"
        pifile = tmp_path / "url.Pifile"
        pifile.write_text(f"FROM {url}\nTO out.img\nHOST true\n")
        assert main(["--offline", str(pifile)], ENV) == 2
        assert capsys.readouterr().err == f"[setup] offline mode: {url} is not in the cache\n"
        assert not (tmp_path / ".pimod-cache").exists()

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
        assert "\tUNMOUNT\tsource=/dev\t" in content  # teardown made it into the log
        assert "COPY_IN" not in content  # aborted commands did not

    def test_missing_log_directory_is_exit_1_before_parsing(self, tmp_path, capsys):
        log = tmp_path / "nodir" / "plan.log"
        code = main(["--dry-run", str(log), str(tmp_path / "unread.Pifile")], ENV)
        assert code == 1
        err = capsys.readouterr().err
        assert "nodir" in err and "unread.Pifile" not in err

    @pytest.mark.parametrize("flag", ["--dry-run", "--cache"])
    def test_empty_value_is_a_usage_error_before_anything_runs(self, tmp_path, capsys, flag):
        # an unset $LOG in `imgforge --dry-run "$LOG" ...` must not become a real build
        pifile = write_fixture(tmp_path, text="FROM base.img\nTO out.img\nHOST true\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        made = []
        code = main([flag, "", str(pifile)], ENV,
                    executor_factory=lambda ns: made.append(ns) or DryRunExecutor())
        assert code == 1
        assert made == []
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert f"argument {flag}: must not be empty" in capsys.readouterr().err
        assert main([flag, "", str(tmp_path / "unread.Pifile")], ENV) == 1
        assert "unread.Pifile" not in capsys.readouterr().err

    def test_unwritable_log_is_exit_2_without_traceback(self, tmp_path, capsys):
        pifile = write_fixture(tmp_path, text="FROM base.img\nHOST true\n")
        log = tmp_path / "plan.log"
        log.mkdir()  # the write fails the way a denied one does
        assert main(["--dry-run", str(log), str(pifile)], ENV) == 2
        err = capsys.readouterr().err
        assert err.count("[error]") == 1 and "Traceback" not in err

    def test_archive_pump_past_image_end_fails_like_the_real_build(self, tmp_path, capsys):
        # an 8 MiB image whose partition 2 claims 20,000 sectors, known only once unpacked
        raw = mbr_oracle.write_image(tmp_path / "long.img", 8 * 1024 * 1024, partitions=[
            {"index": 1, "type": 0x0C, "start": 2048, "size": 2048},
            {"index": 2, "type": 0x83, "start": 4096, "size": 20000},
        ])
        (tmp_path / "long.img.xz").write_bytes(lzma.compress(raw.read_bytes()))
        raw.unlink()
        pifile = tmp_path / "long.Pifile"
        pifile.write_text("FROM long.img.xz\nTO out.img\nPUMP 1M\n")
        log = tmp_path / "plan.log"
        assert main(["--dry-run", str(log), str(pifile)], ENV) == 2
        dry_err = capsys.readouterr().err
        assert "[setup]" in dry_err and "past the end of the image" in dry_err
        assert "TABLE_WRITE" not in log.read_text()
        code = main([str(pifile)], ENV,
                    executor_factory=lambda cfg: LocalExecutor(runner=lambda argv, **kw: (0, "")))
        assert code == 2
        assert capsys.readouterr().err == dry_err
        assert not (tmp_path / "out.img").exists()

    def test_corrupt_archive_fails_like_the_real_build(self, tmp_path, capsys):
        (tmp_path / "bad.img.xz").write_bytes(random.Random(0).randbytes(4096))
        pifile = tmp_path / "bad.Pifile"
        pifile.write_text("FROM bad.img.xz\nTO out.img\nPUMP 1M\n")
        code = main([str(pifile)], ENV,
                    executor_factory=lambda cfg: LocalExecutor(runner=lambda argv, **kw: (0, "")))
        assert code == 2
        real_err = capsys.readouterr().err
        assert error_line(real_err).startswith("[setup] cannot decompress")
        assert main(["--dry-run", str(tmp_path / "plan.log"), str(pifile)], ENV) == 2
        dry_err = capsys.readouterr().err
        assert dry_err == real_err and "Traceback" not in dry_err
        assert not (tmp_path / "out.img").exists()

    @pytest.mark.parametrize("source", ["bad.img.xz", "base.tar.gz", "z.img.zst"])
    def test_source_refusal_is_the_same_in_both_modes(self, tmp_path, capsys, source):
        (tmp_path / source).write_bytes(random.Random(0).randbytes(4096))
        pifile = tmp_path / "src.Pifile"
        pifile.write_text(f"FROM {source}\nTO out.img\nHOST true\n")
        assert main([str(pifile)], ENV) == 2
        real_err = capsys.readouterr().err
        assert error_line(real_err).startswith("[setup] ")
        assert not (tmp_path / "out.img").exists()
        if source == "base.tar.gz":  # refused by its name, before a cache entry is made
            assert not (tmp_path / ".pimod-cache").exists()
        assert main(["--dry-run", str(tmp_path / "plan.log"), str(pifile)], ENV) == 2
        assert capsys.readouterr().err == real_err

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_zst_source_builds_in_both_modes(self, tmp_path, capsys, dry_run):
        raw = mbr_oracle.write_image(tmp_path / "z.img", 1024 * 1024)
        image = raw.read_bytes()
        subprocess.run(["zstd", "-q", "--rm", str(raw)], check=True)
        pifile = tmp_path / "z.Pifile"
        pifile.write_text("FROM z.img.zst\nTO out.img\nHOST true\n")
        log = ["--dry-run", str(tmp_path / "plan.log")] if dry_run else []
        assert main([*log, str(pifile)], ENV) == 0
        [unpacked] = (tmp_path / ".pimod-cache").glob("*/z.img")
        assert unpacked.read_bytes() == image
        if dry_run:
            assert not (tmp_path / "out.img").exists()
        else:
            assert (tmp_path / "out.img").read_bytes() == image

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_missing_decompressor_is_exit_3_and_leaves_nothing(self, tmp_path, capsys,
                                                              monkeypatch, dry_run):
        raw = mbr_oracle.write_image(tmp_path / "z.img", 1024 * 1024)
        subprocess.run(["zstd", "-q", "--rm", str(raw)], check=True)
        (tmp_path / "bin").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))  # the tool is looked up here
        pifile = tmp_path / "z.Pifile"
        pifile.write_text("FROM z.img.zst\nTO out.img\nHOST true\n")
        log = ["--dry-run", str(tmp_path / "plan.log")] if dry_run else []
        assert main([*log, str(pifile)], ENV) == 3
        assert error_line(capsys.readouterr().err).startswith("[setup] cannot execute zstd: ")
        assert not (tmp_path / ".pimod-cache").exists()
        assert_no_temporary_files(tmp_path)
        assert not (tmp_path / "out.img").exists()

    def test_decompressor_that_cannot_be_started_is_exit_3(self, tmp_path, capsys,
                                                           monkeypatch):
        pifile = write_packed_fixture(tmp_path)
        (tmp_path / "bin").mkdir()
        (tmp_path / "bin" / "xz").write_text("#!/bin/sh\n")  # found on PATH, not executable
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
        assert main([str(pifile)], ENV) == 3
        assert error_line(capsys.readouterr().err) == (
            f"[setup] cannot execute xz: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: 'xz'")
        assert_no_temporary_files(tmp_path)
        assert not (tmp_path / "out.img").exists()

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("source", ["bad.img.xz", "none.zip", "cut.img.xz", "cut.img.zst",
                                        "trailing.img.gz", "corrupt.zip", "bad.zip"])
    def test_failed_unpack_leaves_no_cache_entry(self, tmp_path, capsys, source, dry_run):
        write_unpackable(tmp_path / source)
        pifile = tmp_path / "src.Pifile"
        pifile.write_text(f"FROM {source}\nTO out.img\nHOST true\n")
        args = [str(pifile)]
        if dry_run:
            args = ["--dry-run", str(tmp_path / "plan.log"), *args]
        assert main(args, ENV) == 2
        expected = {"none.zip": "archive contains no .img member",
                    "bad.zip": f"{tmp_path / source} is not a valid zip archive: "}.get(
            source, f"cannot decompress {tmp_path / source}: ")
        assert error_line(capsys.readouterr().err).startswith(f"[setup] {expected}")
        assert not (tmp_path / ".pimod-cache").exists()
        assert_no_temporary_files(tmp_path)
        assert not (tmp_path / "out.img").exists()

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_inplace_packed_image_is_exit_1_before_any_write(self, tmp_path, capsys, dry_run):
        write_packed_fixture(tmp_path)
        archive = (tmp_path / "base.img.xz").read_bytes()
        pifile = tmp_path / "inplace.Pifile"
        pifile.write_text("INPLACE base.img.xz\nPUMP 1M\n")
        args = [str(pifile)]
        if dry_run:
            args = ["--dry-run", str(tmp_path / "plan.log"), *args]
        # a real build gets a runner that does nothing; a dry run keeps its own backend
        factory = None if dry_run else (
            lambda cfg: LocalExecutor(runner=lambda argv, **kw: (0, "")))
        assert main(args, ENV, executor_factory=factory) == 1
        assert f"{pifile}:1: INPLACE cannot edit a packed image" in capsys.readouterr().err
        assert (tmp_path / "base.img.xz").read_bytes() == archive
        assert not (tmp_path / ".pimod-cache").exists()

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("to", ["base.img.xz", "link.xz", "hard.xz"])
    def test_to_naming_the_packed_source_is_exit_1_before_any_write(self, tmp_path, capsys,
                                                                    to, dry_run):
        write_packed_fixture(tmp_path)
        archive = tmp_path / "base.img.xz"
        before = hashlib.sha256(archive.read_bytes()).hexdigest()
        (tmp_path / "link.xz").symlink_to(archive)
        os.link(archive, tmp_path / "hard.xz")
        pifile = tmp_path / "to.Pifile"
        pifile.write_text(f"FROM base.img.xz\nTO {to}\nHOST true\n")
        args = [str(pifile)]
        if dry_run:
            args = ["--dry-run", str(tmp_path / "plan.log"), *args]
        factory = None if dry_run else (
            lambda cfg: LocalExecutor(runner=lambda argv, **kw: (0, "")))
        assert main(args, ENV, executor_factory=factory) == 1
        assert error_line(capsys.readouterr().err) == (
            f"[error] {pifile}:2: TO {to} would overwrite the packed FROM image")
        assert hashlib.sha256(archive.read_bytes()).hexdigest() == before
        assert not (tmp_path / ".pimod-cache").exists()

    def test_dry_run_unpacks_the_archive_the_real_build_reuses(self, tmp_path):
        pifile = write_packed_fixture(tmp_path)
        assert main(["--dry-run", str(tmp_path / "plan.log"), str(pifile)], ENV) == 0
        [unpacked] = (tmp_path / ".pimod-cache").glob("*/base.img")
        stamp = unpacked.with_name(".base.img.source")
        before = [(p.stat().st_ino, p.stat().st_mtime_ns) for p in (unpacked, stamp)]
        assert f"COPY_IMAGE\tsrc={unpacked}\t" in (tmp_path / "plan.log").read_text()
        assert main([str(pifile)], ENV) == 0
        assert [(p.stat().st_ino, p.stat().st_mtime_ns) for p in (unpacked, stamp)] == before
        assert (tmp_path / "out.img").read_bytes() == (tmp_path / "base.img").read_bytes()

    def test_full_cache_while_unpacking_is_a_setup_failure(self, tmp_path, capsys,
                                                           monkeypatch):
        def no_space(src, dst):
            dst.write(b"partial")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(source_mod, "_write_sparse", no_space)
        pifile = write_packed_fixture(tmp_path, ".gz")  # only gzip's output is piped
        assert main([str(pifile)], ENV) == 2
        assert error_line(capsys.readouterr().err).startswith(
            f"[setup] cannot unpack {tmp_path / 'base.img.gz'}: [Errno 28]")
        assert_no_temporary_files(tmp_path)
        assert not (tmp_path / "out.img").exists()
        with pytest.raises(ChildProcessError):  # the gzip child was killed and reaped
            os.waitpid(-1, os.WNOHANG)

    def test_decompressor_failure_writing_the_cache_is_a_setup_failure(self, tmp_path, capsys,
                                                                       monkeypatch):
        stub_tool(tmp_path, monkeypatch, "xz",
                  "printf partial\necho 'xz: (stdout): Write error: No space left on device' >&2\n"
                  "exit 1\n")
        pifile = write_packed_fixture(tmp_path)
        assert main([str(pifile)], ENV) == 2
        assert error_line(capsys.readouterr().err) == (
            f"[setup] cannot decompress {tmp_path / 'base.img.xz'}: "
            "xz: (stdout): Write error: No space left on device")
        assert_no_temporary_files(tmp_path)
        assert not (tmp_path / ".pimod-cache").exists()
        assert not (tmp_path / "out.img").exists()
        with pytest.raises(ChildProcessError):  # the xz child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_sigterm_while_unpacking_kills_the_decompressor(self, tmp_path, capsys,
                                                            monkeypatch):
        def interrupted(src, dst):
            dst.write(b"partial")
            raise ExecutionFailure("interrupted by SIGTERM")

        monkeypatch.setattr(source_mod, "_write_sparse", interrupted)
        pifile = write_packed_fixture(tmp_path, ".gz")  # only gzip's output is piped
        assert main([str(pifile)], ENV) == 2
        assert error_line(capsys.readouterr().err) == "[setup] interrupted by SIGTERM"
        assert_no_temporary_files(tmp_path)
        assert not (tmp_path / ".pimod-cache").exists()
        assert not (tmp_path / "out.img").exists()
        with pytest.raises(ChildProcessError):  # the gzip child was killed and reaped
            os.waitpid(-1, os.WNOHANG)

    def test_sigterm_while_xz_writes_the_cache_kills_it(self, tmp_path, capsys, monkeypatch):
        # main() runs in this process, so $PPID is the build that xz writes for
        stub_tool(tmp_path, monkeypatch, "xz", "printf partial\nkill -TERM $PPID\nexec sleep 30\n")
        pifile = write_packed_fixture(tmp_path)
        assert main([str(pifile)], ENV) == 2
        assert error_line(capsys.readouterr().err) == "[setup] interrupted by SIGTERM"
        assert_no_temporary_files(tmp_path)
        assert not (tmp_path / ".pimod-cache").exists()
        assert not (tmp_path / "out.img").exists()
        with pytest.raises(ChildProcessError):  # the xz child was killed and reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_unusable_cache_for_a_local_archive_is_exit_3(self, tmp_path, capsys, dry_run):
        pifile = write_packed_fixture(tmp_path)
        (tmp_path / "file").write_text("")
        args = ["--cache", str(tmp_path / "file" / "sub"), str(pifile)]
        if dry_run:
            args = ["--dry-run", str(tmp_path / "plan.log"), *args]
        assert main(args, ENV) == 3
        assert error_line(capsys.readouterr().err).startswith(
            f"[setup] cannot create cache directory {tmp_path / 'file' / 'sub'}")
        assert not (tmp_path / "out.img").exists()

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
        monkeypatch.setattr(plan_mod, "default_probe", fake_device_probe)
        pifile = write_fixture(tmp_path, text="FROM base.img\nTO /dev/fake\n")
        code = main([str(pifile)], ENV)
        assert code == 1
        assert "--inplace-device" in capsys.readouterr().err

    def test_device_destination_confirmed_dry_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(plan_mod, "default_probe", fake_device_probe)
        pifile = write_fixture(tmp_path, text="FROM base.img\nTO /dev/fake\n")
        log = tmp_path / "plan.log"
        code = main(["--inplace-device", "--dry-run", str(log), str(pifile)], ENV)
        assert code == 0
        assert "DEVICE_WRITE" in log.read_text()


    def test_pump_onto_device_is_exit_1_before_any_write(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(plan_mod, "default_probe", fake_device_probe)
        pifile = write_fixture(tmp_path, text="FROM base.img\nTO /dev/fake\nPUMP 1M\n")
        log = tmp_path / "plan.log"
        code = main(["--inplace-device", "--dry-run", str(log), str(pifile)], ENV)
        assert code == 1
        assert f"{pifile}:3" in capsys.readouterr().err
        assert not log.exists()

    def test_emulator_found_on_build_path(self, tmp_path):
        bindir = tmp_path / "qemu-bin"
        bindir.mkdir()
        emulator = bindir / "qemu-arm-static"
        emulator.write_bytes(b"\x7fELF")
        emulator.chmod(0o755)
        pifile = write_fixture(tmp_path, text="FROM base.img\nRUN x\n")
        log = tmp_path / "plan.log"
        env = {"PATH": f"{bindir}:{ENV['PATH']}"}
        assert main(["--dry-run", str(log), str(pifile)], env) == 0
        assert f"COPY_EMULATOR\tsource={emulator}\t" in log.read_text()


class TestLogging:
    def test_done_line_is_pinned_for_a_dry_run_and_a_real_build(self, tmp_path, capsys):
        """A build's last stdout line: a dry run's action count, or TO and its SHA-256,
        which ``perfbench/verify.py`` parses."""
        pifile = write_fixture(tmp_path, text="FROM base.img\nTO out.img\nHOST true\n")
        assert main(["--dry-run", str(tmp_path / "plan.log"), str(pifile)], ENV) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "[done] 2 actions"
        assert main([str(pifile)], ENV) == 0
        dest = tmp_path / "out.img"
        digest = hashlib.sha256(dest.read_bytes()).hexdigest()
        assert capsys.readouterr().out.splitlines()[-1] == f"[done] {dest} sha256={digest}"

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

    def test_two_dry_runs_in_one_process_each_name_their_own_files(self, tmp_path, capsys):
        """No Pifile name outlives its build: the second build's Paths, made in the same
        order and with names of the same lengths, may reuse the first's addresses."""
        for name in ("alpha", "omega"):
            build = tmp_path / name
            build.mkdir()
            (build / f"{name}-mod.Pifile").write_text("RUN true\nHOST true\n")
            pifile = write_fixture(build, name=f"{name}.Pifile", text=(
                f"FROM base.img\nTO out.img\nRUN a\nsource {name}-mod.Pifile\nRUN b\n"))
            assert main(["--dry-run", str(build / "plan.log"), "--emulator",
                         "/x/qemu-arm-static", str(pifile)], ENV) == 0
            assert [line for line in capsys.readouterr().out.splitlines()
                    if ".Pifile:" in line] == [f"[chroot] {name}.Pifile:3 RUN a",
                                               f"[chroot] {name}-mod.Pifile:1 RUN true",
                                               f"[chroot] {name}-mod.Pifile:2 HOST true",
                                               f"[chroot] {name}.Pifile:5 RUN b"]

    def test_here_document_stage_line_names_a_delimiter_its_body_lacks(self, tmp_path, capsys):
        pifile = write_fixture(tmp_path, name="doc.Pifile",
                               text="FROM base.img\nTO out.img\nRUN tee /x << END\nEOF\nEND\n")
        assert main(["--dry-run", str(tmp_path / "plan.log"), "--emulator",
                     "/x/qemu-arm-static", str(pifile)], ENV) == 0
        assert "[chroot] doc.Pifile:3 RUN tee /x << EOF_" in capsys.readouterr().out.splitlines()

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
        assert "failed with status 1" in err

    def test_guest_output_indented(self, tmp_path, capsys):
        pifile = write_fixture(tmp_path, text="FROM base.img\nHOST echo deep\n")
        assert main([str(pifile)], ENV) == 0
        out = capsys.readouterr().out
        assert "  deep" in out.splitlines()

    def test_invalid_utf8_output_shown_as_replacement_character(self, tmp_path, capsys):
        pifile = write_fixture(tmp_path, text='FROM base.img\nHOST printf "ok \\377\\376 bad\\n"\n')
        assert main([str(pifile)], ENV) == 0
        assert "  ok \ufffd\ufffd bad" in capsys.readouterr().out.splitlines()

    def test_done_line_reports_digest(self, tmp_path, capsys):
        pifile = write_fixture(tmp_path)
        assert main([str(pifile)], ENV) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256((tmp_path / "out.img").read_bytes()).hexdigest()
        assert f"sha256={digest}" in out


class TestCliBoundary:
    @pytest.mark.parametrize("dry_run", [False, True])
    def test_factory_sees_the_dry_run_log_path_or_none(self, tmp_path, capsys, dry_run):
        pifile = write_fixture(tmp_path, text="FROM base.img\nHOST true\n")
        log = tmp_path / "plan.log"
        args = ["--dry-run", str(log), str(pifile)] if dry_run else [str(pifile)]
        seen = []

        def factory(cfg):
            seen.append(cfg.dry_run)
            return DryRunExecutor() if dry_run else LocalExecutor(
                runner=lambda argv, **kw: (0, ""))

        assert main(args, ENV, executor_factory=factory) == 0
        assert [None if value is None else Path(value) for value in seen] == [
            log if dry_run else None]

    @pytest.mark.parametrize("flags, level", [
        ([], logging.WARNING),
        (["-v"], logging.INFO),
        (["-vv"], logging.DEBUG),
        (["-q"], logging.ERROR),
    ])
    def test_verbosity_flags_set_the_log_level(self, tmp_path, capsys, monkeypatch,
                                               flags, level):
        levels = []
        # pytest's own handlers would turn a real basicConfig call into a no-op
        monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
        assert main([*flags, str(tmp_path / "missing.Pifile")], ENV) == 1
        assert levels == [level]

    def test_failed_run_is_one_stderr_line(self, tmp_path, capsys):
        pifile = write_fixture(tmp_path, name="fail.Pifile",
                               text="FROM base.img\nRUN ok\nRUN boom\n")
        code = main(["--dry-run", str(tmp_path / "l.log"), "--emulator", "/x/qemu-arm-static",
                     str(pifile)], ENV, executor_factory=lambda cfg: FailingSecondRun())
        assert code == 2
        assert error_line(capsys.readouterr().err) == (
            f"[chroot] {pifile}:3: RUN command failed with status 1: boom")

    def test_plan_error_is_one_stderr_line(self, tmp_path, capsys):
        pifile = write_fixture(tmp_path, name="both.Pifile",
                               text="FROM base.img\nINPLACE base.img\n")
        assert main([str(pifile)], ENV) == 1
        assert capsys.readouterr().err == (
            f"[error] {pifile}:2: FROM and INPLACE are mutually exclusive\n")

    @pytest.mark.parametrize("text, code", [
        ("FROM base.img\nHOST true\n", 0),
        ("FROM base.img\nINPLACE base.img\n", 1),
    ])
    def test_entrypoint_exits_with_the_code_of_main(self, tmp_path, capsys, monkeypatch,
                                                    text, code):
        pifile = write_fixture(tmp_path, text=text)
        monkeypatch.setattr(sys, "argv", ["imgforge", "--dry-run", str(tmp_path / "plan.log"),
                                          str(pifile)])
        with pytest.raises(SystemExit) as exit_info:
            entrypoint()
        assert exit_info.value.code == code


@pytest.mark.parametrize("module", ["imgforge", "imgforge.cli"])
@pytest.mark.parametrize("text, code", [
    ("FROM base.img 5\n", 1),
    ("FROM base.img\nTO out.img\nHOST true\n", 0),  # mounts nothing, so safe to run for real
])
def test_python_m_exits_with_the_code_of_main(tmp_path, module, text, code):
    pifile = write_fixture(tmp_path, text=text)
    src = Path(__file__).parent.parent / "src"
    result = subprocess.run([sys.executable, "-m", module, str(pifile)], cwd=tmp_path,
                            env={**ENV, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert result.returncode == code, result.stderr
    assert result.stderr == (
        f"[error] {pifile}:1: partition index must be <= 4, the MBR slots, got 5\n"
        if code else "")
    if not code:
        assert (tmp_path / "out.img").read_bytes() == (tmp_path / "base.img").read_bytes()


def python_m_imgforge(pifile, path, **popen_kwargs):
    """A child ``python -m imgforge`` build of ``pifile``, its tools looked up on ``path``."""
    src = Path(__file__).parent.parent / "src"
    return subprocess.Popen([sys.executable, "-m", "imgforge", str(pifile)], cwd=pifile.parent,
                            env={**ENV, "PATH": path, "PYTHONPATH": str(src)},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            **popen_kwargs)


def test_sigkilled_unpack_is_cleared_by_the_next_build(tmp_path, capsys):
    pifile = write_packed_fixture(tmp_path)
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "xz").write_text("#!/bin/sh\nhead -c 1048576 /dev/urandom\nexec sleep 30\n")
    (bin_dir / "xz").chmod(0o755)
    cache = tmp_path / ".pimod-cache"

    def written():
        with contextlib.suppress(FileNotFoundError):
            return any(p.stat().st_size >= 1024 * 1024 for p in cache.rglob("*") if p.is_file())

    # its own session, so that the xz stub goes with it: the stub's stdout is the
    # build's open file, and while any process holds it, it holds the build's lock
    build = python_m_imgforge(pifile, f"{bin_dir}:{ENV['PATH']}", start_new_session=True)
    try:
        deadline = time.monotonic() + 20
        while not written() and build.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert written(), build.communicate(timeout=10)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(build.pid, signal.SIGKILL)
        build.communicate(timeout=10)
    assert build.returncode == -signal.SIGKILL

    assert main([str(pifile)], ENV) == 0
    archive = os.stat(tmp_path / "base.img.xz")
    [image] = cache.glob("*/base.img")
    assert image.with_name(".base.img.source").read_text() == (
        f"size={archive.st_size}\nmtime_ns={archive.st_mtime_ns}\ninode={archive.st_ino}\n"
        f"image_inode={image.stat().st_ino}\n")
    expected = (tmp_path / "base.img").read_bytes()
    assert image.read_bytes() == (tmp_path / "out.img").read_bytes() == expected
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"[done] {tmp_path / 'out.img'} sha256={hashlib.sha256(expected).hexdigest()}")
    assert_no_temporary_files(tmp_path)


def test_concurrent_builds_of_one_archive_unpack_it_once(tmp_path):
    write_packed_fixture(tmp_path)
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    # counts its runs, then gives the other build time to reach the cache before it unpacks
    (bin_dir / "xz").write_text(f"#!/bin/sh\necho run >> {tmp_path / 'xz-runs'}\nsleep 0.5\n"
                                f"exec {shutil.which('xz')} \"$@\"\n")
    (bin_dir / "xz").chmod(0o755)
    pifiles = []
    for name in ("a", "b"):
        pifiles.append(tmp_path / f"{name}.Pifile")
        pifiles[-1].write_text(f"FROM base.img.xz\nTO {name}.img\nHOST true\n")
    builds = [python_m_imgforge(p, f"{bin_dir}:{ENV['PATH']}") for p in pifiles]
    outputs = [build.communicate(timeout=60) for build in builds]
    assert [build.returncode for build in builds] == [0, 0], outputs
    assert (tmp_path / "xz-runs").read_text() == "run\n"
    expected = (tmp_path / "base.img").read_bytes()
    digest = hashlib.sha256(expected).hexdigest()
    for name, (out, err) in zip("ab", outputs):
        assert (tmp_path / f"{name}.img").read_bytes() == expected
        assert out.splitlines()[-1] == f"[done] {tmp_path / name}.img sha256={digest}"
    assert_no_temporary_files(tmp_path)


def test_local_dry_run_loads_no_network_stack(tmp_path):
    """The HTTP/TLS modules load only when a URL source misses the cache."""
    pifile = write_fixture(tmp_path)
    argv = ["--dry-run", str(tmp_path / "plan.log"), str(pifile)]
    script = (f"import sys\nfrom imgforge.cli import main\nassert main({argv!r}, {ENV!r}) == 0\n"
              "print([m for m in ('urllib.request', 'http.client', 'ssl') if m in sys.modules])")
    src = Path(__file__).parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", script], env={**ENV, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "[]"


def test_pump_build_rewrites_only_the_table_bytes_it_normalises(tmp_path):
    """Sector 0 of a PUMP build's output, pinned byte for byte.

    The build sets the grown slot's size; every occupied slot gets status
    0x80 or 0x00 and CHS FE FF FF, and a degenerate slot (a type without a
    size) becomes 16 zero bytes.  Boot code, disk id, the two bytes before
    the table and the signature are left as they were.
    """
    base = mbr_oracle.write_image(tmp_path / "base.img")
    with open(base, "r+b") as fh:
        fh.write(bytes(range(256)) + bytes(range(184)) + b"\xef\xbe\xad\xde\x5a\xa5")
        fh.seek(446)
        fh.write(b"\x01\x20\x21\x00")  # slot 1: status 0x01, CHS start 20 21 00
        fh.seek(446 + 32 + 4)
        fh.write(b"\x83")  # slot 3: type 0x83 with size 0
    before = base.read_bytes()[:512]
    pifile = tmp_path / "pump.Pifile"
    pifile.write_text("FROM base.img 2\nTO out.img\nPUMP 1M\n")
    code = main([str(pifile)], ENV,
                executor_factory=lambda cfg: LocalExecutor(runner=lambda argv, **kw: (0, "")))
    assert code == 0
    expected = bytearray(before)
    expected[446:450] = b"\x00\xfe\xff\xff"
    expected[482] = 0
    expected[474:478] = (112640 + 2048).to_bytes(4, "little")  # slot 2's size
    out = tmp_path / "out.img"
    assert out.read_bytes()[:512] == bytes(expected)
    assert out.stat().st_size == mbr_oracle.FIXTURE_SIZE + 1024 * 1024


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


# A HOST command that records its shell's pid, then would write late.txt about 3 s on
SLOW_HOST = ("HOST echo $$ > child.pid; for i in $(seq 30); do sleep 0.1; done; "
             "echo late > late.txt\n")

# a real build whose mounts and chroot are faked, and whose HOST commands run for real
GUEST_BUILD = """
import shutil, sys
from pathlib import Path
from imgforge.cli import main
from imgforge.executor import LocalExecutor, run_command

partitions = set()

def runner(argv, **kwargs):
    if argv[:2] == ["/bin/sh", "-c"]:
        return run_command(argv, **kwargs)
    if argv[0] == "mount" and argv[1] != "--bind":
        partitions.add(argv[-1])
        (Path(argv[-1]) / "bin").mkdir(parents=True)
        (Path(argv[-1]) / "bin" / "sh").write_text("")
    elif argv[0] == "umount" and argv[1] in partitions:
        shutil.rmtree(argv[1])
        Path(argv[1]).mkdir()
    return 0, ""

backend = LocalExecutor(runner=runner)
code = main(sys.argv[1:], executor_factory=lambda config: backend)
Path("actions.log").write_text(backend.render_log())
sys.exit(code)
"""


def _interrupted_build(tmp_path, text, signum, script):
    """Run ``script`` on a Pifile of ``text`` in a subprocess, send ``signum`` once
    the HOST command has started, and return (process, stderr, HOST shell pid)."""
    pifile = write_fixture(tmp_path, text=text)
    (tmp_path / "emulator").write_bytes(b"\x7fELF")
    (tmp_path / "tmp").mkdir()
    src = Path(__file__).parent.parent / "src"
    env = {"PATH": os.environ["PATH"], "PYTHONPATH": str(src), "TMPDIR": str(tmp_path / "tmp")}
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "--emulator", str(tmp_path / "emulator"), str(pifile)],
        cwd=tmp_path, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        pid_file = tmp_path / "child.pid"
        deadline = time.monotonic() + 20
        while not pid_file.is_file() or not pid_file.read_text().endswith("\n"):
            assert time.monotonic() < deadline and proc.poll() is None, proc.stderr.read()
            time.sleep(0.05)
        proc.send_signal(signum)
        _, stderr = proc.communicate(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    child = int(pid_file.read_text())
    return proc, stderr, child


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.mark.parametrize("signame", ["SIGTERM", "SIGHUP"])
def test_signal_kills_the_host_command_and_exits_2(tmp_path, signame):
    script = "import sys\nfrom imgforge.cli import main\nsys.exit(main())\n"
    proc, stderr, child = _interrupted_build(
        tmp_path, "FROM base.img\nTO out.img\n" + SLOW_HOST, getattr(signal, signame), script)
    assert proc.returncode == 2
    assert stderr.splitlines()[-1] == f"[chroot] interrupted by {signame}"
    assert _gone(child)
    assert not (tmp_path / "late.txt").exists()


def test_signal_tears_down_the_guest(tmp_path):
    proc, stderr, child = _interrupted_build(
        tmp_path, "FROM base.img\nTO out.img\nRUN true\n" + SLOW_HOST, signal.SIGTERM,
        GUEST_BUILD)
    assert proc.returncode == 2
    assert stderr.splitlines()[-1] == "[chroot] interrupted by SIGTERM"
    assert _gone(child)
    # no payload in this build holds an escaped character, so a plain split decodes it
    actions = [Action(ActionKind[kind], dict(f.split("=", 1) for f in fields))
               for _, kind, *fields in (line.split("\t") for line in
                                        (tmp_path / "actions.log").read_text().splitlines())]
    host = [a.kind for a in actions].index(ActionKind.HOST_EXEC)
    setup = [a for a in actions[:host] if a.kind.undo is not None]
    assert len(setup) == 7  # root mount, 5 binds, emulator copy
    assert actions[host + 1:] == teardown_actions(setup)
    assert list((tmp_path / "tmp").glob("imgforge-root-*")) == []
