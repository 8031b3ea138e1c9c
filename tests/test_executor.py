import errno
import hashlib
import os
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import mbr_oracle
from imgforge.errors import CommandFailed, SourceMissing
from imgforge.executor import (
    Action,
    ActionKind,
    DryRunExecutor,
    GuestEnv,
    LocalExecutor,
    RunOptions,
    _sha256_file,
    compose_guest_path,
    execute,
    install_file,
    render_action,
    run_guest,
    run_host,
    serialize_actions,
)
from imgforge.pifile import parse_pifile_text
from imgforge.plan import build_plan

EMULATOR = "/usr/bin/qemu-arm-static"
FIXED_ENV = {"PATH": "/usr/bin:/bin"}


def make_plan(tmp_path, text, name="build.Pifile", env=None):
    pifile_path = tmp_path / name
    pifile_path.write_text(text)
    pifile = parse_pifile_text(text, env or {}, source_path=pifile_path)
    return build_plan(pifile)


def guest_env(root="<root>", extensions=(), host=("/usr/bin", "/bin")):
    return GuestEnv(root=root, path_var=compose_guest_path(list(extensions), list(host)))


class ScriptedExecutor(DryRunExecutor):
    """Dry-run backend whose nth guest command reports a failure status."""

    def __init__(self, fail_guest_exec_number):
        super().__init__()
        self.fail_at = fail_guest_exec_number
        self.guest_execs = 0

    def _perform(self, action):
        if action.kind is ActionKind.GUEST_EXEC:
            self.guest_execs += 1
            if self.guest_execs == self.fail_at:
                return 1
        return 0


class TestGuestPath:
    def test_extensions_prepend(self):
        assert compose_guest_path(["/opt/bin"], ["/usr/bin", "/bin"]) == (
            "/opt/bin", "/usr/bin", "/bin",
        )

    def test_duplicates_keep_first(self):
        assert compose_guest_path(["/bin", "/opt"], ["/usr/bin", "/bin", "/opt"]) == (
            "/bin", "/opt", "/usr/bin",
        )

    @given(st.lists(st.sampled_from(["/a", "/b", "/c", "/d"]), max_size=6),
           st.lists(st.sampled_from(["/a", "/x", "/y"]), max_size=6))
    def test_order_and_uniqueness(self, extensions, host):
        composed = compose_guest_path(extensions, host)
        assert len(set(composed)) == len(composed)
        remaining = list(composed)
        for entry in extensions + host:
            if entry in remaining and composed.index(entry) >= 0:
                pass
        # first occurrence order is preserved
        seen = []
        for entry in extensions + host:
            if entry not in seen:
                seen.append(entry)
        assert list(composed) == seen


class TestRunHost:
    def test_success_on_real_shell(self):
        backend = LocalExecutor()
        assert run_host("true", backend) == 0

    def test_failure_raises_with_status(self):
        backend = LocalExecutor()
        with pytest.raises(CommandFailed) as err:
            run_host("false", backend)
        assert err.value.status == 1

    def test_output_streams_to_callback(self):
        lines = []
        backend = LocalExecutor(on_output=lines.append)
        run_host("echo hello; echo world", backend)
        assert lines == ["hello", "world"]

    def test_heredoc_reaches_stdin(self):
        lines = []
        backend = LocalExecutor(on_output=lines.append)
        run_host("cat", backend, stdin="from-heredoc\n")
        assert lines == ["from-heredoc"]

    def test_runs_in_given_cwd(self, tmp_path):
        lines = []
        backend = LocalExecutor(on_output=lines.append)
        run_host("pwd", backend, cwd=str(tmp_path))
        assert lines == [str(tmp_path)]

    def test_dry_run_records_payload(self):
        backend = DryRunExecutor()
        run_host("make dtnd", backend, cwd=".")
        action = backend.actions[0]
        assert action.kind is ActionKind.HOST_EXEC
        assert action.payload["command"] == "make dtnd"
        assert action.payload["cwd"] == "."


class TestRunGuest:
    def test_records_exact_command_string(self):
        backend = DryRunExecutor()
        run_guest("raspi-config nonint do_serial 0", guest_env(), backend)
        action = backend.actions[0]
        assert action.kind is ActionKind.GUEST_EXEC
        assert action.payload["command"] == "raspi-config nonint do_serial 0"

    def test_env_prefix_passes_verbatim(self):
        backend = DryRunExecutor()
        cmd = "DEBIAN_FRONTEND=noninteractive apt-get dist-upgrade -y"
        run_guest(cmd, guest_env(), backend)
        assert backend.actions[0].payload["command"] == cmd

    def test_path_extension_leads_path_var(self):
        backend = DryRunExecutor()
        run_guest("x", guest_env(extensions=["/opt/bin"]), backend)
        assert backend.actions[0].payload["path"].startswith("/opt/bin:")

    def test_heredoc_lands_in_payload(self):
        backend = DryRunExecutor()
        run_guest("tee /etc/x", guest_env(), backend, stdin="a\nb\n")
        assert backend.actions[0].payload["stdin"] == "a\nb\n"

    def test_failure_aborts_with_origin(self, tmp_path):
        from imgforge.pifile import SourceLine

        backend = ScriptedExecutor(fail_guest_exec_number=1)
        origin = SourceLine(tmp_path / "x.Pifile", 7, "RUN boom")
        with pytest.raises(CommandFailed) as err:
            run_guest("boom", guest_env(), backend, origin=origin)
        assert err.value.status == 1
        assert err.value.origin.line_no == 7


class TestInstallFile:
    def test_mode_recorded(self):
        backend = DryRunExecutor()
        install_file("id_ed25519.pub", "/root/.ssh/authorized_keys", "700", backend)
        action = backend.actions[0]
        assert action.kind is ActionKind.COPY_IN
        assert action.payload["mode"] == "700"

    def test_no_mode_preserves_source_permissions(self, tmp_path):
        src = tmp_path / "a.conf"
        src.write_text("x=1\n")
        src.chmod(0o640)
        root = tmp_path / "root"
        backend = LocalExecutor(runner=lambda argv, **kw: (0, ""))
        install_file(src, "/etc/a.conf", None, backend, root=str(root))
        installed = root / "etc/a.conf"
        assert installed.read_text() == "x=1\n"
        assert installed.stat().st_mode & 0o777 == 0o640

    def test_mode_applied(self, tmp_path):
        src = tmp_path / "tool"
        src.write_text("#!/bin/sh\n")
        root = tmp_path / "root"
        backend = LocalExecutor(runner=lambda argv, **kw: (0, ""))
        install_file(src, "/usr/local/bin/tool", "755", backend, root=str(root))
        assert (root / "usr/local/bin/tool").stat().st_mode & 0o777 == 0o755

    def test_directory_copied_recursively(self, tmp_path):
        src = tmp_path / "conf.d"
        (src / "sub").mkdir(parents=True)
        (src / "sub" / "x.conf").write_text("1")
        root = tmp_path / "root"
        backend = LocalExecutor(runner=lambda argv, **kw: (0, ""))
        install_file(src, "/etc/conf.d", None, backend, root=str(root))
        assert (root / "etc/conf.d/sub/x.conf").read_text() == "1"

    def test_missing_source_fails_on_real_backend(self, tmp_path):
        backend = LocalExecutor(runner=lambda argv, **kw: (0, ""))
        with pytest.raises(SourceMissing):
            install_file(tmp_path / "ghost", "/etc/ghost", None, backend,
                         root=str(tmp_path / "root"))

    def test_missing_source_fine_in_dry_run(self):
        backend = DryRunExecutor()
        install_file("built-later", "/usr/bin/tool", None, backend)
        assert backend.actions[0].payload["src"] == "built-later"


class TestActionLog:
    def test_multiline_payload_stays_one_line(self):
        action = Action(ActionKind.GUEST_EXEC, {
            "command": "tee /x", "stdin": "a\nb\t c\\d\n",
        })
        action.ordinal = 0
        line = render_action(action)
        assert "\n" not in line
        assert "\\n" in line and "\\t" in line and "\\\\" in line

    def test_serialization_round_trips_escapes(self):
        action = Action(ActionKind.GUEST_EXEC, {"stdin": "a\nb\n"})
        action.ordinal = 0
        line = render_action(action)
        key, value = line.split("\t")[2].split("=", 1)
        assert value.replace("\\n", "\n") == "a\nb\n"

    def test_ordinals_strictly_increase(self):
        backend = DryRunExecutor()
        for _ in range(5):
            backend.emit(Action(ActionKind.FETCH, {"url": "u"}))
        assert [a.ordinal for a in backend.actions] == list(range(5))

    def test_empty_log_serializes_empty(self):
        assert serialize_actions([]) == ""

    def test_both_backends_cover_every_kind(self):
        local = LocalExecutor(runner=lambda argv, **kw: (0, ""))
        assert set(local._handlers) == set(ActionKind)
        dry = DryRunExecutor()
        for kind in ActionKind:
            assert dry._perform(Action(kind, {})) == 0


class RecordingRunner:
    """Stub command runner that logs argv and scripts losetup output."""

    def __init__(self, loop_device="/dev/loop7"):
        self.calls = []
        self.loop_device = loop_device

    def __call__(self, argv, **kwargs):
        self.calls.append((list(argv), kwargs))
        if argv[:3] == ["losetup", "--find", "--show"]:
            return 0, self.loop_device
        return 0, ""


class TestLocalBackendCommands:
    def test_loop_attach_then_mount_substitutes_device(self, tmp_path):
        runner = RecordingRunner()
        backend = LocalExecutor(runner=runner)
        backend.emit(Action(ActionKind.LOOP_ATTACH,
                            {"source": "disk.img", "target": "<loop>"}))
        backend.emit(Action(ActionKind.MOUNT_PARTITION,
                            {"source": "<loop>p2", "target": str(tmp_path / "root")}))
        assert runner.calls[0][0] == ["losetup", "--find", "--show", "-P", "disk.img"]
        assert runner.calls[1][0] == ["mount", "/dev/loop7p2", str(tmp_path / "root")]

    def test_fs_resize_attaches_resizes_detaches(self, tmp_path):
        runner = RecordingRunner()
        backend = LocalExecutor(runner=runner)
        backend.emit(Action(ActionKind.FS_RESIZE, {
            "image": "out.img", "partition": "2", "command": "resize2fs <loop>p2",
        }))
        argvs = [call[0] for call in runner.calls]
        assert argvs == [
            ["losetup", "--find", "--show", "-P", "out.img"],
            ["resize2fs", "/dev/loop7p2"],
            ["losetup", "-d", "/dev/loop7"],
        ]

    def test_guest_exec_chroots_with_guest_path(self, tmp_path):
        root = tmp_path / "root"
        (root / "bin").mkdir(parents=True)
        (root / "bin" / "sh").write_text("")
        runner = RecordingRunner()
        backend = LocalExecutor(runner=runner)
        env = guest_env(root=str(root), extensions=["/opt/bin"])
        run_guest("uname -a", env, backend, stdin="body\n")
        argv, kwargs = runner.calls[0]
        assert argv == ["chroot", str(root), "/bin/sh", "-c", "uname -a"]
        assert kwargs["env"]["PATH"] == "/opt/bin:/usr/bin:/bin"
        assert kwargs["stdin_text"] == "body\n"

    def test_guest_exec_falls_back_to_bash(self, tmp_path):
        root = tmp_path / "root"
        (root / "bin").mkdir(parents=True)
        (root / "bin" / "bash").write_text("")
        runner = RecordingRunner()
        backend = LocalExecutor(runner=runner)
        run_guest("true", guest_env(root=str(root)), backend)
        assert runner.calls[0][0][2] == "/bin/bash"

    def test_guest_without_shell_is_environment_problem(self, tmp_path):
        from imgforge.errors import ShellUnavailable

        root = tmp_path / "root"
        root.mkdir()
        backend = LocalExecutor(runner=RecordingRunner())
        with pytest.raises(ShellUnavailable):
            run_guest("true", guest_env(root=str(root)), backend)

    def test_unmount_failure_is_best_effort(self, tmp_path):
        def failing_umount(argv, **kwargs):
            return (32, "target is busy") if argv[0] == "umount" else (0, "")

        backend = LocalExecutor(runner=failing_umount)
        status = backend.emit(Action(ActionKind.UNMOUNT,
                                     {"source": "x", "target": "/somewhere"}))
        assert status == 0  # teardown soldiers on

    def test_device_write_does_not_truncate_target(self, tmp_path):
        src = tmp_path / "src.img"
        src.write_bytes(b"NEW!")
        device = tmp_path / "fake-device"
        device.write_bytes(b"OLDCONTENTPADDING")
        backend = LocalExecutor(runner=RecordingRunner())
        backend.emit(Action(ActionKind.DEVICE_WRITE,
                            {"src": str(src), "dst": str(device)}))
        assert device.read_bytes() == b"NEW!ONTENTPADDING"

    def test_bind_mount_creates_file_target_for_file_source(self, tmp_path):
        runner = RecordingRunner()
        backend = LocalExecutor(runner=runner)
        target = tmp_path / "root" / "etc" / "resolv.conf"
        backend.emit(Action(ActionKind.BIND_MOUNT,
                            {"source": "/etc/resolv.conf", "target": str(target)}))
        assert target.is_file()  # bind target must exist before mounting
        assert runner.calls[0][0] == ["mount", "--bind", "/etc/resolv.conf", str(target)]

    def test_bind_mount_creates_directory_target_for_dir_source(self, tmp_path):
        runner = RecordingRunner()
        backend = LocalExecutor(runner=runner)
        target = tmp_path / "root" / "dev"
        backend.emit(Action(ActionKind.BIND_MOUNT,
                            {"source": "/dev", "target": str(target)}))
        assert target.is_dir()

    def test_copy_emulator_sets_exec_bit(self, tmp_path):
        emulator = tmp_path / "qemu-arm-static"
        emulator.write_bytes(b"\x7fELF")
        target = tmp_path / "root" / "usr" / "bin" / "qemu-arm-static"
        backend = LocalExecutor(runner=RecordingRunner())
        backend.emit(Action(ActionKind.COPY_EMULATOR,
                            {"source": str(emulator), "target": str(target)}))
        assert target.stat().st_mode & 0o111
        backend.emit(Action(ActionKind.REMOVE_EMULATOR,
                            {"source": str(emulator), "target": str(target)}))
        assert not target.exists()


class TestExecutePipeline:
    LISTING = (
        "FROM base.img 2\n"
        "TO out.img\n"
        "PUMP 16M\n"
        "RUN raspi-config nonint do_serial 0\n"
        "RUN DEBIAN_FRONTEND=noninteractive apt-get update\n"
        "INSTALL 600 key.pub /root/key.pub\n"
    )

    def _fixture(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        mbr_oracle.write_image(tmp_path / "base.img")
        (tmp_path / "key.pub").write_text("ssh-ed25519 AAAA\n")

    def test_dry_run_action_order(self, tmp_path, monkeypatch):
        self._fixture(tmp_path, monkeypatch)
        plan = make_plan(tmp_path, self.LISTING)
        backend = DryRunExecutor()
        execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[EMULATOR]))
        kinds = [a.kind for a in backend.actions]
        assert kinds == [
            ActionKind.COPY_IMAGE,
            ActionKind.GROW_FILE,
            ActionKind.TABLE_WRITE,
            ActionKind.FS_RESIZE,
            ActionKind.LOOP_ATTACH,
            ActionKind.MOUNT_PARTITION,
            ActionKind.BIND_MOUNT,  # /dev
            ActionKind.BIND_MOUNT,  # /sys
            ActionKind.BIND_MOUNT,  # /proc
            ActionKind.BIND_MOUNT,  # /dev/pts
            ActionKind.BIND_MOUNT,  # resolv.conf
            ActionKind.COPY_EMULATOR,
            ActionKind.GUEST_EXEC,
            ActionKind.GUEST_EXEC,
            ActionKind.COPY_IN,
            ActionKind.REMOVE_EMULATOR,
            ActionKind.UNMOUNT,  # resolv.conf
            ActionKind.UNMOUNT,  # /dev/pts
            ActionKind.UNMOUNT,  # /proc
            ActionKind.UNMOUNT,  # /sys
            ActionKind.UNMOUNT,  # /dev
            ActionKind.UNMOUNT,  # root
            ActionKind.LOOP_DETACH,
        ]

    def test_dry_run_touches_nothing(self, tmp_path, monkeypatch):
        self._fixture(tmp_path, monkeypatch)
        plan = make_plan(tmp_path, self.LISTING)
        before = sorted(p.name for p in tmp_path.iterdir())
        digest = hashlib.sha256((tmp_path / "base.img").read_bytes()).hexdigest()
        execute(plan, DryRunExecutor(), RunOptions(env=FIXED_ENV, emulators=[EMULATOR]))
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert hashlib.sha256((tmp_path / "base.img").read_bytes()).hexdigest() == digest

    def test_dry_run_is_deterministic(self, tmp_path, monkeypatch):
        self._fixture(tmp_path, monkeypatch)
        logs = []
        for _ in range(2):
            plan = make_plan(tmp_path, self.LISTING)
            backend = DryRunExecutor()
            execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[EMULATOR]))
            logs.append(backend.render_log())
        assert logs[0] == logs[1]

    def test_minimal_plan_copy_only(self, tmp_path, monkeypatch):
        self._fixture(tmp_path, monkeypatch)
        plan = make_plan(tmp_path, "FROM base.img\n")
        backend = DryRunExecutor()
        report = execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[]))
        kinds = [a.kind for a in backend.actions]
        assert kinds == [ActionKind.COPY_IMAGE]
        assert report.action_count == 1

    def test_real_backend_copies_and_pumps(self, tmp_path, monkeypatch):
        self._fixture(tmp_path, monkeypatch)
        plan = make_plan(tmp_path, "FROM base.img 2\nTO out.img\nPUMP 16M\n")
        backend = LocalExecutor(runner=lambda argv, **kw: (0, ""))
        report = execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[]))
        out = tmp_path / "out.img"
        assert out.stat().st_size == 83886080
        oracle = mbr_oracle.read_table(out)
        assert oracle["entries"][1]["size"] == 112640 + 32768
        # source untouched
        assert (tmp_path / "base.img").stat().st_size == 67108864
        assert mbr_oracle.read_table(tmp_path / "base.img")["entries"][1]["size"] == 112640
        assert report.image_digest == hashlib.sha256(out.read_bytes()).hexdigest()
        assert set(report.stage_durations) == {"setup", "prepare", "chroot"}

    def test_failing_second_run_aborts_but_tears_down(self, tmp_path, monkeypatch):
        self._fixture(tmp_path, monkeypatch)
        plan = make_plan(tmp_path, self.LISTING)
        backend = ScriptedExecutor(fail_guest_exec_number=2)
        with pytest.raises(CommandFailed) as err:
            execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[EMULATOR]))
        assert err.value.stage == "chroot"
        kinds = [a.kind for a in backend.actions]
        # the failed command is the last non-teardown record
        assert kinds.count(ActionKind.GUEST_EXEC) == 2
        assert ActionKind.COPY_IN not in kinds  # remaining commands aborted
        failed_at = len(kinds) - 1 - kinds[::-1].index(ActionKind.GUEST_EXEC)
        teardown = kinds[failed_at + 1:]
        assert teardown == [
            ActionKind.REMOVE_EMULATOR,
            ActionKind.UNMOUNT, ActionKind.UNMOUNT, ActionKind.UNMOUNT,
            ActionKind.UNMOUNT, ActionKind.UNMOUNT, ActionKind.UNMOUNT,
            ActionKind.LOOP_DETACH,
        ]

    def test_failing_host_aborts_but_tears_down(self, tmp_path, monkeypatch):
        class FailingHost(DryRunExecutor):
            def _perform(self, action):
                return 1 if action.kind is ActionKind.HOST_EXEC else 0

        self._fixture(tmp_path, monkeypatch)
        plan = make_plan(
            tmp_path, "FROM base.img\nRUN ok\nHOST false\nRUN never\n")
        backend = FailingHost()
        with pytest.raises(CommandFailed):
            execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[EMULATOR]))
        kinds = [a.kind for a in backend.actions]
        assert kinds.count(ActionKind.GUEST_EXEC) == 1  # the RUN after HOST aborted
        assert kinds[-1] is ActionKind.LOOP_DETACH  # teardown still ran

    def test_progressive_path_extensions(self, tmp_path, monkeypatch):
        self._fixture(tmp_path, monkeypatch)
        text = ("FROM base.img\nRUN before\nPATH /opt/bin\nRUN after\n")
        plan = make_plan(tmp_path, text)
        backend = DryRunExecutor()
        execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[EMULATOR]))
        guest = [a for a in backend.actions if a.kind is ActionKind.GUEST_EXEC]
        assert guest[0].payload["path"] == "/usr/bin:/bin"
        assert guest[1].payload["path"] == "/opt/bin:/usr/bin:/bin"

    def test_host_cwd_is_pifile_directory(self, tmp_path, monkeypatch):
        self._fixture(tmp_path, monkeypatch)
        plan = make_plan(tmp_path, "FROM base.img\nHOST make\n")
        backend = DryRunExecutor()
        execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[]))
        host = next(a for a in backend.actions if a.kind is ActionKind.HOST_EXEC)
        assert host.payload["cwd"] == str(tmp_path)

    def test_fstab_override_adds_boot_mount(self, tmp_path, monkeypatch):
        class GuestWithFstab(DryRunExecutor):
            def read_guest_file(self, root, path):
                assert (root, path) == ("<root>", "etc/fstab")
                return "PARTUUID=deadbeef-01 /boot vfat defaults 0 2\n"

        self._fixture(tmp_path, monkeypatch)
        plan = make_plan(tmp_path, "FROM base.img\nRUN x\n")
        backend = GuestWithFstab()
        execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[]))
        targets = [a.payload.get("target") for a in backend.actions]
        assert "<root>/boot" in targets

    def test_url_source_fetches_into_cache(self, tmp_path, monkeypatch):
        self._fixture(tmp_path, monkeypatch)
        image_bytes = (tmp_path / "base.img").read_bytes()

        calls = []

        def fetcher(url, dest):
            calls.append(url)
            Path(dest).write_bytes(image_bytes)

        plan = make_plan(tmp_path, "FROM https://host/base.img\nTO out.img\nRUN x\n")
        backend = DryRunExecutor()
        cache = tmp_path / "cache"
        execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[],
                                          cache_dir=cache, fetcher=fetcher))
        assert calls == ["https://host/base.img"]
        assert backend.actions[0].kind is ActionKind.FETCH
        assert (cache / "__present__").exists() is False  # sanity: key-named dirs only
        assert any(p.name == "image" for p in cache.rglob("*"))

    def test_setup_failure_produces_no_teardown(self, tmp_path, monkeypatch):
        from imgforge.errors import IoFailure

        monkeypatch.chdir(tmp_path)
        mbr_oracle.write_image(tmp_path / "base.img")
        plan = make_plan(tmp_path, "FROM base.img\nPUMP 1M\nRUN x\n")
        (tmp_path / "base.img").unlink()  # vanish between planning and execution
        backend = DryRunExecutor()
        with pytest.raises(IoFailure):
            execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[]))
        assert all(a.kind is ActionKind.COPY_IMAGE for a in backend.actions)


MiB = 1024 * 1024

# (apparent size, [(offset, data), ...]); everything not written is a hole
DIGEST_LAYOUTS = {
    "empty": (0, []),
    "dense": (3 * MiB + 17, [(0, bytes(range(256)) * (12 * 1024) + b"x" * 17)]),
    "leading-hole": (2 * MiB + 9, [(2 * MiB + 5, b"data")]),
    "trailing-hole": (5 * MiB, [(0, b"data" * 1000)]),
    "last-byte-only": (4 * MiB + 1, [(4 * MiB, b"\x01")]),
    "unaligned-hole": (3 * MiB, [(0, b"a" * 1000), (MiB + MiB // 2 + 123, b"b" * 70000)]),
}


def write_layout(path, size, extents):
    with open(path, "wb") as fh:
        fh.truncate(size)
        for offset, data in extents:
            fh.seek(offset)
            fh.write(data)


class TestDigest:
    @pytest.mark.parametrize("layout", sorted(DIGEST_LAYOUTS))
    def test_digest_covers_every_apparent_byte(self, tmp_path, layout):
        path = tmp_path / "image"
        write_layout(path, *DIGEST_LAYOUTS[layout])
        assert _sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_digest_reads_whole_file_without_seek_data(self, tmp_path, monkeypatch):
        path = tmp_path / "image"
        write_layout(path, *DIGEST_LAYOUTS["unaligned-hole"])
        real_lseek = os.lseek
        calls = []

        def no_seek_data(fd, pos, how):
            if how == os.SEEK_DATA:
                calls.append(pos)
                raise OSError(errno.EINVAL, "SEEK_DATA unsupported")
            return real_lseek(fd, pos, how)

        monkeypatch.setattr(os, "lseek", no_seek_data)
        assert _sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()
        assert calls == [0]
