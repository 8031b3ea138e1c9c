import errno
import hashlib
import lzma
import os
import re
import shutil
import signal
import subprocess
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import imgforge.executor as executor_mod
import imgforge.mounts as mounts_mod
import imgforge.source as source_mod
import mbr_oracle
from imgforge.child import interrupt
from imgforge.cli import main
from imgforge.errors import EnvironmentProblem, ExecutionFailure
from imgforge.executor import (
    Action,
    ActionKind,
    DryRunExecutor,
    LocalExecutor,
    RunOptions,
    _sha256_file,
    command_action,
    compose_guest_path,
    execute,
    plan_actions,
    render_action,
    run_command,
    serialize_actions,
)
from imgforge.mounts import teardown_actions
from imgforge.pifile import Command, CommandKind, parse_pifile_text
from imgforge.plan import Stage, build_plan

EMULATOR = "/usr/bin/qemu-arm-static"
FIXED_ENV = {"PATH": "/usr/bin:/bin"}


def make_plan(tmp_path, text, name="build.Pifile", env=None):
    pifile_path = tmp_path / name
    pifile_path.write_text(text)
    pifile = parse_pifile_text(text, env or {}, source_path=pifile_path)
    return build_plan(pifile)


def emit_command(backend, text, *, pifile=Path("x.Pifile"), root=None, extensions=(),
                 host=("/usr/bin", "/bin")):
    """Emit the action of the one command in ``text``, a Pifile at ``pifile``.

    ``root`` is where a local backend finds the mounted guest.
    """
    command = parse_pifile_text(text, {}, source_path=pifile).commands[0]
    guest_path = ":".join(compose_guest_path(list(extensions), list(host)))
    if root is not None:
        backend.root_dir = root
    return backend.emit(command_action(command, guest_path, str(pifile.parent)))


def run_pifile(tmp_path, text, backend):
    """Execute ``text`` against a fixture ``base.img`` beside it."""
    mbr_oracle.write_image(tmp_path / "base.img")
    execute(make_plan(tmp_path, text), backend, RunOptions(env=FIXED_ENV, emulators=[]))


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
        assert emit_command(backend, "HOST true") == 0

    def test_failure_raises_with_status(self, tmp_path):
        backend = LocalExecutor()
        assert emit_command(backend, "HOST false") == 1
        with pytest.raises(ExecutionFailure, match="failed with status 1") as err:
            run_pifile(tmp_path, "INPLACE base.img\nHOST false\n", backend)

    def test_output_streams_to_callback(self):
        lines = []
        backend = LocalExecutor(on_output=lines.append)
        emit_command(backend, "HOST echo hello; echo world")
        assert lines == ["hello", "world"]

    def test_heredoc_reaches_stdin(self):
        lines = []
        backend = LocalExecutor(on_output=lines.append)
        emit_command(backend, "HOST cat << EOF\nfrom-heredoc\nEOF\n")
        assert lines == ["from-heredoc"]

    def test_runs_in_given_cwd(self, tmp_path):
        lines = []
        backend = LocalExecutor(on_output=lines.append)
        emit_command(backend, "HOST pwd", pifile=tmp_path / "x.Pifile")
        assert lines == [str(tmp_path)]

    def test_dry_run_records_payload(self):
        backend = DryRunExecutor()
        emit_command(backend, "HOST make dtnd")
        action = backend.actions[0]
        assert action.kind is ActionKind.HOST_EXEC
        assert action.payload["command"] == "make dtnd"
        assert action.payload["cwd"] == "."


def traced_peak(fn):
    """``fn()`` and the peak bytes Python allocated while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class InOrderSink:
    """Counts the lines ``seq 1 N`` streams, checking each without keeping it."""

    def __init__(self):
        self.count = 0
        self.in_order = True

    def __call__(self, line):
        self.count += 1
        self.in_order = self.in_order and line == str(self.count)


@pytest.fixture
def alarm():
    """Fails a test whose command hangs, after 10 s, instead of holding the suite."""
    def expire(signum, frame):
        raise TimeoutError("run_command did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


MIB_BODY = "x" * (1 << 20)


class TestRunCommand:
    def test_streamed_lines_are_delivered_and_not_kept(self):
        sink = InOrderSink()
        (status, text), peak = traced_peak(
            lambda: run_command(["seq", "1", "50000"], on_output=sink))
        assert (status, text) == (0, "")
        assert sink.count == 50000 and sink.in_order
        assert peak < 1024 * 1024

    def test_host_output_not_kept_without_a_listener(self):
        backend = LocalExecutor()
        status, peak = traced_peak(lambda: emit_command(backend, "HOST seq 1 50000"))
        assert status == 0
        assert peak < 1024 * 1024

    def test_output_returned_without_a_listener(self):
        assert run_command(["printf", "a\nb\n"]) == (0, "a\nb")

    @pytest.mark.parametrize("stdin_text", [None, "body\n"])
    def test_a_missing_program_is_an_environment_problem(self, tmp_path, stdin_text):
        with pytest.raises(EnvironmentProblem, match="cannot execute"):
            run_command([str(tmp_path / "absent")], stdin_text=stdin_text)

    def test_carriage_returns_end_lines(self):
        lines = []
        run_command(["printf", "a\r\nb\rc\n"], on_output=lines.append)
        assert lines == ["a", "b", "c"]

    def test_a_body_is_fed_while_output_streams(self, alarm):
        """The command writes 200,000 lines before it reads a 1 MiB body."""
        sink, tail = InOrderSink(), []

        def listen(line):
            if sink.count < 200000:
                sink(line)
            else:
                tail.append(line)

        status, text = run_command(["/bin/sh", "-c", "seq 1 200000; wc -c"],
                                   stdin_text=MIB_BODY, on_output=listen)
        assert (status, text) == (0, "")
        assert sink.count == 200000 and sink.in_order
        assert tail == ["1048576"]

    def test_a_body_starts_no_thread(self, alarm):
        before = threading.active_count()
        seen = set()
        status, _ = run_command(["/bin/sh", "-c", "seq 1 1000; wc -c"], stdin_text=MIB_BODY,
                                on_output=lambda line: seen.add(threading.active_count()))
        assert status == 0
        assert seen == {before}

    @pytest.mark.parametrize("argv, output", [(["true"], ""), (["head", "-c", "10"], "x" * 10)])
    def test_a_body_read_in_part_or_not_at_all(self, alarm, argv, output):
        assert run_command(argv, stdin_text=MIB_BODY) == (0, output)

    def test_a_lone_surrogate_in_a_body_is_fed_as_a_question_mark(self, alarm):
        """A non-UTF-8 byte of the environment reaches a body as a lone surrogate."""
        status, text = run_command(["od", "-An", "-c"], stdin_text="a\udcffb")
        assert (status, text.split()) == (0, ["a", "?", "b"])

    def test_an_exception_from_the_listener_kills_the_command(self, alarm):
        class Stop(Exception):
            pass

        def listen(line):
            lines.append(line)
            if len(lines) == 4:  # the shell's pid, then 1, 2 and 3
                raise Stop

        lines = []
        fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(Stop):
            run_command(["/bin/sh", "-c", "echo $$; seq 1 5; exec sleep 30"],
                        stdin_text=MIB_BODY, on_output=listen)
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(int(lines[0]), 0)
        assert sorted(os.listdir("/proc/self/fd")) == fds


class TestSignalWhileStarting:
    """A SIGTERM handled as ``cli.main`` handles it, and sent while a command is being
    started, still kills and reaps that command."""

    @pytest.fixture
    def started(self, monkeypatch):
        """The Popen of every command started from now on, with the handler installed."""
        popens, real = [], subprocess.Popen._execute_child

        def execute_child(self, *args, **kwargs):
            real(self, *args, **kwargs)
            popens.append(self)
        monkeypatch.setattr(subprocess.Popen, "_execute_child", execute_child)
        previous = signal.signal(signal.SIGTERM, interrupt)
        yield popens
        signal.signal(signal.SIGTERM, previous)
        for popen in popens:  # one that a failing test left running
            popen.kill()
            popen.wait()

    def test_a_signal_as_the_command_starts_kills_it(self, started, monkeypatch):
        real = subprocess.Popen._execute_child

        def execute_child(self, *args, **kwargs):
            real(self, *args, **kwargs)
            os.kill(os.getpid(), signal.SIGTERM)
        monkeypatch.setattr(subprocess.Popen, "_execute_child", execute_child)
        with pytest.raises(ExecutionFailure, match="^interrupted by SIGTERM$"):
            run_command(["sleep", "5"])
        [popen] = started
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(popen.pid, 0)

    def test_a_signal_as_the_body_closes_kills_the_command(self, started, monkeypatch):
        class SignalOnClose:
            def __init__(self, file):
                self.file = file

            def __getattr__(self, name):
                return getattr(self.file, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.file.close()
                os.kill(os.getpid(), signal.SIGTERM)

        real = tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile",
                            lambda *args, **kwargs: SignalOnClose(real(*args, **kwargs)))
        with pytest.raises(ExecutionFailure, match="^interrupted by SIGTERM$"):
            run_command(["sleep", "1"], stdin_text="body\n")
        [popen] = started
        with pytest.raises(ProcessLookupError):
            os.kill(popen.pid, 0)

    def test_a_start_that_fails_leaves_signals_raised_at_once(self, started):
        with pytest.raises(ValueError, match="embedded null byte"):
            run_command(["sleep\0"])
        with pytest.raises(ExecutionFailure, match="^interrupted by SIGTERM$"):
            os.kill(os.getpid(), signal.SIGTERM)
        assert started == []

    def test_a_command_starts_with_no_signal_blocked(self, started):
        """So a ``timeout`` in a RUN or HOST can still stop the program it runs."""
        assert run_command(["grep", "^SigBlk:", "/proc/self/status"]) == (
            0, "SigBlk:\t0000000000000000")


class TestRunGuest:
    def test_records_exact_command_string(self):
        backend = DryRunExecutor()
        emit_command(backend, "RUN raspi-config nonint do_serial 0")
        action = backend.actions[0]
        assert action.kind is ActionKind.GUEST_EXEC
        assert action.payload["command"] == "raspi-config nonint do_serial 0"

    def test_env_prefix_passes_verbatim(self):
        backend = DryRunExecutor()
        cmd = "DEBIAN_FRONTEND=noninteractive apt-get dist-upgrade -y"
        emit_command(backend, f"RUN {cmd}")
        assert backend.actions[0].payload["command"] == cmd

    def test_path_extension_leads_path_var(self):
        backend = DryRunExecutor()
        emit_command(backend, "RUN x", extensions=["/opt/bin"])
        assert backend.actions[0].payload["path"].startswith("/opt/bin:")

    def test_heredoc_lands_in_payload(self):
        backend = DryRunExecutor()
        emit_command(backend, "RUN tee /etc/x << EOF\na\nb\nEOF\n")
        assert backend.actions[0].payload["stdin"] == "a\nb\n"

    def test_failure_aborts_with_origin(self, tmp_path):
        backend = ScriptedExecutor(fail_guest_exec_number=1)
        with pytest.raises(ExecutionFailure, match="failed with status 1") as err:
            run_pifile(tmp_path, "INPLACE base.img\n" + "\n" * 5 + "RUN boom\n", backend)
        assert err.value.origin.line_no == 7


class TestInstallFile:
    def test_mode_recorded(self):
        backend = DryRunExecutor()
        emit_command(backend, "INSTALL 700 id_ed25519.pub /root/.ssh/authorized_keys")
        action = backend.actions[0]
        assert action.kind is ActionKind.COPY_IN
        assert action.payload["mode"] == "700"

    def test_no_mode_preserves_source_permissions(self, tmp_path):
        src = tmp_path / "a.conf"
        src.write_text("x=1\n")
        src.chmod(0o640)
        root = tmp_path / "root"
        backend = LocalExecutor(runner=lambda argv, **kw: (0, ""))
        emit_command(backend, f"INSTALL {src} /etc/a.conf", root=str(root))
        installed = root / "etc/a.conf"
        assert installed.read_text() == "x=1\n"
        assert installed.stat().st_mode & 0o777 == 0o640

    def test_mode_applied(self, tmp_path):
        src = tmp_path / "tool"
        src.write_text("#!/bin/sh\n")
        root = tmp_path / "root"
        backend = LocalExecutor(runner=lambda argv, **kw: (0, ""))
        emit_command(backend, f"INSTALL 755 {src} /usr/local/bin/tool", root=str(root))
        assert (root / "usr/local/bin/tool").stat().st_mode & 0o777 == 0o755

    def test_directory_copied_recursively(self, tmp_path):
        src = tmp_path / "conf.d"
        (src / "sub").mkdir(parents=True)
        (src / "sub" / "x.conf").write_text("1")
        root = tmp_path / "root"
        backend = LocalExecutor(runner=lambda argv, **kw: (0, ""))
        emit_command(backend, f"INSTALL {src} /etc/conf.d", root=str(root))
        assert (root / "etc/conf.d/sub/x.conf").read_text() == "1"

    def test_relative_source_anchored_at_pifile(self, tmp_path):
        (tmp_path / "files").mkdir()
        (tmp_path / "files" / "motd").write_text("hi\n")
        root = tmp_path / "root"
        backend = LocalExecutor(runner=lambda argv, **kw: (0, ""))
        emit_command(backend, "INSTALL files/motd /etc/motd",
                     pifile=tmp_path / "x.Pifile", root=str(root))
        assert backend.actions[0].payload["src"] == str(tmp_path / "files" / "motd")
        assert (root / "etc/motd").read_text() == "hi\n"

    def test_missing_source_fails_on_real_backend(self, tmp_path):
        backend = LocalExecutor(runner=lambda argv, **kw: (0, ""))
        with pytest.raises(ExecutionFailure, match="INSTALL source does not exist"):
            emit_command(backend, f"INSTALL {tmp_path / 'ghost'} /etc/ghost",
                         root=str(tmp_path / "root"))

    def test_missing_source_fine_in_dry_run(self):
        backend = DryRunExecutor()
        emit_command(backend, "INSTALL built-later /usr/bin/tool")
        assert backend.actions[0].payload["src"] == "built-later"


class TestGuestConfinement:
    """A guest path that leaves the guest root through a symlink is refused before
    anything is written; ``outside`` stands for the host."""

    @pytest.fixture
    def guest(self, tmp_path):
        root, outside = tmp_path / "root", tmp_path / "outside"
        (root / "var").mkdir(parents=True)
        (root / "etc").mkdir()
        outside.mkdir()
        os.symlink(outside, root / "var" / "run")  # like Debian's absolute /var/run -> /run
        runner = RecordingRunner()
        backend = LocalExecutor(runner=runner)
        backend.root_dir = str(root)
        return backend, runner, root, outside

    def test_install_through_an_absolute_symlink_is_refused(self, tmp_path, guest):
        backend, _, root, outside = guest
        (tmp_path / "motd").write_text("hi\n")
        with pytest.raises(ExecutionFailure, match="leaves the guest root"):
            emit_command(backend, f"INSTALL {tmp_path / 'motd'} /var/run/x.conf", root=str(root))
        assert list(outside.iterdir()) == []

    def test_directory_install_checks_every_path_before_writing_any(self, tmp_path, guest):
        backend, _, root, outside = guest
        src = tmp_path / "tree"
        (src / "a").mkdir(parents=True)
        (src / "a" / "first").write_text("1")
        (src / "run" / "sub").mkdir(parents=True)
        (src / "run" / "sub" / "x").write_text("2")
        with pytest.raises(ExecutionFailure, match="leaves the guest root"):
            emit_command(backend, f"INSTALL {src} /var", root=str(root))
        assert list(outside.iterdir()) == []
        assert sorted(p.name for p in (root / "var").iterdir()) == ["run"]  # nothing copied

    def test_relative_symlink_inside_the_guest_is_followed(self, tmp_path, guest):
        backend, _, root, _ = guest
        (root / "run").mkdir()
        os.symlink("../run/motd", root / "etc" / "motd")
        (tmp_path / "motd").write_text("hi\n")
        emit_command(backend, f"INSTALL {tmp_path / 'motd'} /etc/motd", root=str(root))
        assert (root / "run" / "motd").read_text() == "hi\n"

    def test_install_mode_reaches_only_the_copied_files(self, tmp_path, guest):
        backend, _, root, _ = guest
        (root / "etc" / "passwd").write_text("root:x:0:0\n")
        (root / "etc" / "passwd").chmod(0o644)
        src = tmp_path / "etc"
        src.mkdir()
        (src / "key").write_text("k\n")
        emit_command(backend, f"INSTALL 600 {src} /etc", root=str(root))
        assert (root / "etc" / "key").stat().st_mode & 0o777 == 0o600
        assert (root / "etc" / "passwd").stat().st_mode & 0o777 == 0o644

    def test_file_installed_into_an_existing_directory_gets_the_mode(self, tmp_path, guest):
        backend, _, root, _ = guest
        (root / "etc").chmod(0o755)
        (tmp_path / "motd").write_text("hi\n")
        emit_command(backend, f"INSTALL 600 {tmp_path / 'motd'} /etc", root=str(root))
        assert (root / "etc" / "motd").stat().st_mode & 0o777 == 0o600
        assert (root / "etc").stat().st_mode & 0o777 == 0o755

    @pytest.mark.parametrize("kind, source, target", [
        (ActionKind.BIND_MOUNT, "/etc/resolv.conf", "<root>/etc/resolv.conf"),
        (ActionKind.COPY_EMULATOR, "emulator", "<root>/usr/bin/qemu-arm-static"),
        (ActionKind.MOUNT_PARTITION, "/dev/sdz1", "<root>/boot"),
    ])
    def test_setup_target_through_an_absolute_symlink_is_refused(
            self, tmp_path, guest, kind, source, target):
        backend, runner, root, outside = guest
        (tmp_path / "emulator").write_bytes(b"\x7fELF")
        for link in ("etc/resolv.conf", "usr", "boot"):
            (root / link).parent.mkdir(parents=True, exist_ok=True)
            os.symlink(outside, root / link)
        with pytest.raises(ExecutionFailure, match="leaves the guest root"):
            backend.emit(Action(kind, {"source": str(tmp_path / source), "target": target}))
        assert runner.calls == []
        assert list(outside.iterdir()) == []

    def test_cli_reports_the_escape_in_chroot_with_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        outside = tmp_path / "outside"
        outside.mkdir()

        class DebianRunner(GuestRunner):
            def __call__(self, argv, **kwargs):
                status = super().__call__(argv, **kwargs)
                if argv[0] == "mount" and argv[1] != "--bind":
                    (Path(argv[-1]) / "var").mkdir()
                    os.symlink(outside, Path(argv[-1]) / "var" / "run")
                return status

        mbr_oracle.write_image(tmp_path / "base.img")
        (tmp_path / "motd").write_text("hi\n")
        pifile = tmp_path / "t.Pifile"
        pifile.write_text("FROM base.img\nTO out.img\nINSTALL motd /var/run/x.conf\n")
        real = LocalExecutor(runner=DebianRunner())
        code = main(["--emulator", str(tmp_path / "motd"), str(pifile)], FIXED_ENV,
                    executor_factory=lambda cfg: real)
        assert code == 2
        assert capsys.readouterr().err.startswith("[chroot] <root>/var/run/x.conf leaves")
        assert list(outside.iterdir()) == []
        assert real.actions[-1].payload["target"] == "<root>"  # the teardown ran
        assert root_dirs_left() == []


class TestStageLines:
    def test_no_stage_line_is_rendered_without_a_listener(self, tmp_path, monkeypatch):
        def refuse(command):
            raise AssertionError(f"rendered {command}")
        monkeypatch.setattr(executor_mod, "render_first_line", refuse)
        backend = DryRunExecutor()
        run_pifile(tmp_path, "FROM base.img\nTO out.img\nPATH /opt/bin\n"
                             "HOST cat << EOF\nbody\nEOF\n", backend)
        assert backend.actions[-1].kind is ActionKind.HOST_EXEC

    def test_a_listener_gets_the_first_line_of_each_command(self, tmp_path):
        mbr_oracle.write_image(tmp_path / "base.img")
        plan = make_plan(tmp_path, "FROM base.img\nTO out.img\nPATH /opt/bin\n"
                                   "HOST cat << EOF\nbody\nEOF\n")
        lines = []
        execute(plan, DryRunExecutor(), RunOptions(
            env=FIXED_ENV, emulators=[],
            on_log=lambda stage, origin, message: lines.append((stage, origin, message))))
        assert [(stage, origin.line_no, message) for stage, origin, message in lines
                if origin is not None] == [("chroot", 3, "PATH /opt/bin"),
                                           ("chroot", 4, "HOST cat << EOF")]

    def test_pump_zero_gets_its_stage_line_and_grows_nothing(self, tmp_path):
        mbr_oracle.write_image(tmp_path / "base.img")
        plan = make_plan(tmp_path, "FROM base.img\nTO out.img\nPUMP 0\nPATH /opt/bin\n"
                                   "HOST true\n")
        lines, backend = [], DryRunExecutor()
        execute(plan, backend, RunOptions(
            env=FIXED_ENV, emulators=[],
            on_log=lambda stage, origin, message: lines.append((stage, origin, message))))
        assert [(stage, origin.line_no if origin else None, message)
                for stage, origin, message in lines] == [
            ("setup", None, "begin"), ("prepare", None, "begin"), ("prepare", 3, "PUMP 0"),
            ("chroot", None, "begin"), ("chroot", 4, "PATH /opt/bin"), ("chroot", 5, "HOST true")]
        assert [a.kind for a in backend.actions] == [ActionKind.COPY_IMAGE, ActionKind.HOST_EXEC]


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
        calls = []
        local = LocalExecutor(runner=lambda argv, **kw: calls.append(argv) or (0, ""))
        assert local._perform(Action(ActionKind.FETCH, {})) == 0
        # the two loop kinds stay in the vocabulary, but nothing emits them; every
        # other kind has a case, which reads its payload before any effect
        for kind in set(ActionKind) - {ActionKind.FETCH, ActionKind.LOOP_ATTACH,
                                       ActionKind.LOOP_DETACH}:
            with pytest.raises(KeyError):
                local._perform(Action(kind, {}))
        assert calls == [] and local.root_dir is None
        dry = DryRunExecutor()
        for kind in ActionKind:
            assert dry._perform(Action(kind, {})) == 0

    def test_a_root_action_with_nothing_mounted_is_refused(self):
        calls = []
        local = LocalExecutor(runner=lambda argv, **kw: calls.append(argv) or (0, ""))
        with pytest.raises(ExecutionFailure) as err:
            local.emit(Action(ActionKind.REMOVE_EMULATOR, {
                "source": EMULATOR, "target": "<root>/usr/bin/qemu-arm-static"}))
        assert str(err.value) == (
            "no guest root is mounted to satisfy '<root>/usr/bin/qemu-arm-static'")
        assert err.value.exit_code == 2
        assert calls == []

    @pytest.mark.parametrize("kind", [ActionKind.LOOP_ATTACH, ActionKind.LOOP_DETACH])
    def test_kind_without_handler_is_an_io_failure(self, kind):
        calls = []
        local = LocalExecutor(runner=lambda argv, **kw: calls.append(argv) or (0, ""))
        with pytest.raises(ExecutionFailure, match=f"cannot perform {kind.name}"):
            local.emit(Action(kind, {"image": "out.img", "device": "/dev/loop7"}))
        assert calls == []


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
    def test_mount_passes_options_before_source_and_target(self, tmp_path):
        runner = RecordingRunner()
        backend = LocalExecutor(runner=runner)
        backend.emit(Action(ActionKind.MOUNT_PARTITION, {
            "source": "disk.img", "target": "<root>",
            "options": "loop,offset=9437184,sizelimit=57671680"}))
        backend.emit(Action(ActionKind.MOUNT_PARTITION,
                            {"source": "/dev/sdz1", "target": "<root>/boot"}))
        root = backend.root_dir
        assert [argv for argv, _ in runner.calls] == [
            ["mount", "-o", "loop,offset=9437184,sizelimit=57671680", "disk.img", root],
            ["mount", "/dev/sdz1", f"{root}/boot"],  # a device partition: no -o
        ]
        os.rmdir(f"{root}/boot")
        os.rmdir(root)

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
        emit_command(backend, "RUN uname -a << EOF\nbody\nEOF\n", root=str(root),
                     extensions=["/opt/bin"])
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
        emit_command(backend, "RUN true", root=str(root))
        assert runner.calls[0][0][2] == "/bin/bash"

    def test_guest_without_shell_is_environment_problem(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        backend = LocalExecutor(runner=RecordingRunner())
        with pytest.raises(EnvironmentProblem, match="has neither /bin/sh nor /bin/bash"):
            emit_command(backend, "RUN true", root=str(root))

    @pytest.mark.parametrize("kind, target", [(ActionKind.UNMOUNT, "/somewhere")])
    def test_teardown_failure_raises(self, kind, target):
        def stuck(argv, **kwargs):
            return (32, "target is busy") if argv[0] == "umount" else (0, "")

        backend = LocalExecutor(runner=stuck)
        with pytest.raises(ExecutionFailure, match="failed with status 32: target is busy"):
            backend.emit(Action(kind, {"source": "disk.img", "target": target}))

    @pytest.mark.parametrize("fails, reported", [
        ({"losetup -d /dev/loop7"}, "losetup -d /dev/loop7 failed"),
        ({"resize2fs /dev/loop7p2", "losetup -d /dev/loop7"}, "resize2fs /dev/loop7p2 failed"),
    ])
    def test_fs_resize_always_detaches_and_a_resize_failure_wins(self, fails, reported):
        runner = RecordingRunner()

        def failing(argv, **kwargs):
            status, out = runner(argv, **kwargs)
            return (1, "busy") if " ".join(argv) in fails else (status, out)

        backend = LocalExecutor(runner=failing)
        with pytest.raises(ExecutionFailure, match=f"^{reported}"):
            backend.emit(Action(ActionKind.FS_RESIZE, {
                "image": "out.img", "partition": "2", "command": "resize2fs <loop>p2",
            }))
        assert runner.calls[-1][0] == ["losetup", "-d", "/dev/loop7"]

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
        ]

    def test_pumped_root_is_mounted_at_its_grown_size(self, tmp_path, monkeypatch):
        self._fixture(tmp_path, monkeypatch)
        backend = DryRunExecutor()
        execute(make_plan(tmp_path, self.LISTING), backend,
                RunOptions(env=FIXED_ENV, emulators=[EMULATOR]))
        mounts = [a.payload for a in backend.actions if a.kind is ActionKind.MOUNT_PARTITION]
        assert mounts == [{"source": str(tmp_path / "out.img"), "target": "<root>",
                           "options": f"loop,offset={18432 * 512},"
                                      f"sizelimit={(112640 + 32768) * 512}"}]

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
        execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[]))
        kinds = [a.kind for a in backend.actions]
        assert kinds == [ActionKind.COPY_IMAGE]

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
        with pytest.raises(ExecutionFailure, match="failed with status 1") as err:
            execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[EMULATOR]))
        assert err.value.stage == "chroot"
        assert err.value.origin.line_no == 5
        assert err.value.args[0] == (
            "RUN command failed with status 1: DEBIAN_FRONTEND=noninteractive apt-get update")
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
        ]

    def test_failing_host_aborts_but_tears_down(self, tmp_path, monkeypatch):
        class FailingHost(DryRunExecutor):
            def _perform(self, action):
                return 1 if action.kind is ActionKind.HOST_EXEC else 0

        self._fixture(tmp_path, monkeypatch)
        plan = make_plan(
            tmp_path, "FROM base.img\nRUN ok\nHOST false\nRUN never\n")
        backend = FailingHost()
        with pytest.raises(ExecutionFailure, match="failed with status 1") as err:
            execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[EMULATOR]))
        assert err.value.origin.line_no == 3
        assert err.value.args[0] == "HOST command failed with status 1: false"
        kinds = [a.kind for a in backend.actions]
        assert kinds.count(ActionKind.GUEST_EXEC) == 1  # the RUN after HOST aborted
        assert backend.actions[-1].payload["target"] == "<root>"  # teardown still ran

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

    def test_url_source_fetches_into_cache(self, tmp_path, monkeypatch):
        self._fixture(tmp_path, monkeypatch)
        image_bytes = (tmp_path / "base.img").read_bytes()

        calls = []

        def fetcher(url, dest):
            calls.append(url)
            Path(dest).write_bytes(image_bytes)

        monkeypatch.setattr(source_mod, "_urllib_fetcher", fetcher)
        plan = make_plan(tmp_path, "FROM https://host/base.img\nTO out.img\nRUN x\n")
        backend = DryRunExecutor()
        cache = tmp_path / "cache"
        execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[], cache_dir=cache))
        assert calls == ["https://host/base.img"]
        assert backend.actions[0].kind is ActionKind.FETCH
        assert (cache / "__present__").exists() is False  # sanity: key-named dirs only
        assert any(p.name == "image" for p in cache.rglob("*"))

    def test_pump_takes_source_length_from_open_file(self, tmp_path, monkeypatch):
        # a block device's st_size is 0; seeking to its end gives its length
        self._fixture(tmp_path, monkeypatch)
        monkeypatch.setattr(os.path, "getsize", lambda path: 0)
        plan = make_plan(tmp_path, "FROM base.img\nTO out.img\nPUMP 1M\n")
        backend = DryRunExecutor()
        execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[]))
        assert backend.actions[-1].kind is ActionKind.FS_RESIZE

    def test_setup_failure_produces_no_teardown(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        mbr_oracle.write_image(tmp_path / "base.img")
        plan = make_plan(tmp_path, "FROM base.img\nPUMP 1M\nRUN x\n")
        (tmp_path / "base.img").unlink()  # vanish between planning and execution
        backend = DryRunExecutor()
        with pytest.raises(ExecutionFailure, match="cannot read the partition table of"):
            execute(plan, backend, RunOptions(env=FIXED_ENV, emulators=[]))
        assert all(a.kind is ActionKind.COPY_IMAGE for a in backend.actions)


class GuestRunner(RecordingRunner):
    """Stub runner for a real build: a partition mount shows a guest with
    /bin/sh at its target, and unmounting the partition empties the target."""

    def __init__(self):
        super().__init__()
        self.partitions = set()

    def __call__(self, argv, **kwargs):
        if argv[0] == "mount" and argv[1] != "--bind":
            target = argv[-1]  # after any "-o <options>" and the source
            self.partitions.add(target)
            (Path(target) / "bin").mkdir(parents=True)
            (Path(target) / "bin" / "sh").write_text("")
        elif argv[0] == "umount" and argv[1] in self.partitions:
            shutil.rmtree(argv[1])  # the guest's files leave with the partition
            os.mkdir(argv[1])
        return super().__call__(argv, **kwargs)


def root_dirs_left():
    return sorted(Path(tempfile.gettempdir()).glob("imgforge-root-*"))


_UNESCAPE = {"\\\\": "\\", "\\t": "\t", "\\n": "\n"}


def parse_log(text):
    """The actions a dry-run log records: the inverse of ``render_action``."""
    actions = []
    for ordinal, line in enumerate(text.split("\n")[:-1]):
        number, kind, *fields = line.split("\t")
        assert number == str(ordinal)
        payload = {}
        for field in fields:
            key, _, value = field.partition("=")
            payload[key] = re.sub(r"\\[\\tn]", lambda m: _UNESCAPE[m.group()], value)
        actions.append(Action(ActionKind[kind], payload))
    return actions


def test_parse_log_inverts_render_action():
    action = Action(ActionKind.HOST_EXEC, {"command": "a\tb\\n\nc", "cwd": "x=y", "stdin": ""})
    action.ordinal = 0
    [parsed] = parse_log(serialize_actions([action]))
    assert (parsed.kind, parsed.payload) == (action.kind, action.payload)


class TestRealBuildLog:
    LISTING = (
        "TO out.img\n"
        "PUMP 1M\n"
        "RUN tee /etc/issue << EOF\nwelcome\nEOF\n"
        "PATH /opt/bin\n"
        "HOST make\n"
        "INSTALL 644 motd /etc/motd\n"
        "RUN true\n"
    )

    @pytest.mark.parametrize("source", ["base.img", "base.img.xz"])
    def test_real_build_records_the_dry_run_log(self, tmp_path, monkeypatch, source):
        monkeypatch.chdir(tmp_path)
        raw = mbr_oracle.write_image(tmp_path / "base.img")
        if source.endswith(".xz"):
            (tmp_path / source).write_bytes(lzma.compress(raw.read_bytes(), preset=0))
        (tmp_path / "motd").write_text("hi\n")
        emulator = tmp_path / "qemu-arm-static"
        emulator.write_bytes(b"\x7fELF")
        options = RunOptions(env=FIXED_ENV, emulators=[str(emulator)])
        listing = f"FROM {source}\n{self.LISTING}"
        dry = DryRunExecutor()
        execute(make_plan(tmp_path, listing), dry, options)
        runner = GuestRunner()
        real = LocalExecutor(runner=runner)
        report = execute(make_plan(tmp_path, listing), real, options)
        assert real.render_log() == dry.render_log()
        assert report.image_digest is not None
        chroots = [argv for argv, _ in runner.calls if argv[0] == "chroot"]
        assert len(chroots) == 2 and chroots[0][1] in runner.partitions
        assert real.root_dir is None and root_dirs_left() == []

        # replay: the logged payloads alone rebuild the same image
        (tmp_path / "out.img").unlink()
        replay = LocalExecutor(runner=GuestRunner())
        for action in parse_log(dry.render_log()):
            assert replay.emit(action) == 0
        assert replay.render_log() == dry.render_log()
        assert _sha256_file(tmp_path / "out.img") == report.image_digest
        assert replay.root_dir is None and root_dirs_left() == []

    def test_failed_root_mount_removes_root_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        mbr_oracle.write_image(tmp_path / "base.img")
        runner = RecordingRunner()

        def failing_mount(argv, **kwargs):
            return (32, "no medium") if argv[0] == "mount" else runner(argv, **kwargs)

        backend = LocalExecutor(runner=failing_mount)
        with pytest.raises(ExecutionFailure, match="mount .* failed with status 32: no medium"):
            execute(make_plan(tmp_path, "FROM base.img\nTO out.img\nRUN true\n"), backend,
                    RunOptions(env=FIXED_ENV, emulators=[]))
        assert [a.kind for a in backend.actions][-2:] == [
            ActionKind.COPY_IMAGE, ActionKind.MOUNT_PARTITION]  # nothing to tear down
        assert backend.root_dir is None and root_dirs_left() == []


class StuckRunner(GuestRunner):
    """A guest runner whose unmounts fail, as for a busy guest; HOST commands
    run for real."""

    def __call__(self, argv, **kwargs):
        if argv[0] == "umount":
            self.calls.append((list(argv), kwargs))
            return 1, "target is busy"
        if argv[:2] == ["/bin/sh", "-c"]:
            return run_command(argv, **kwargs)
        return super().__call__(argv, **kwargs)


class TestTeardownFailure:
    LISTING = "FROM base.img\nTO out.img\nINSTALL file.txt /etc/x\n"

    @pytest.fixture(autouse=True)
    def _fixture(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        mbr_oracle.write_image(tmp_path / "base.img")
        (tmp_path / "file.txt").write_text("x\n")
        yield
        for root in root_dirs_left():  # a busy root stays for inspection
            shutil.rmtree(root)

    def test_every_teardown_action_is_tried_then_the_first_failure_raised(
            self, tmp_path, caplog):
        runner = StuckRunner()
        with pytest.raises(ExecutionFailure, match="umount .*/etc/resolv.conf failed") as err:
            execute(make_plan(tmp_path, self.LISTING), LocalExecutor(runner=runner),
                    RunOptions(env=FIXED_ENV, emulators=[]))
        argvs = [argv for argv, _ in runner.calls]
        mounted = [argv[-1] for argv in argvs if argv[0] == "mount"]
        assert [argv[1] for argv in argvs if argv[0] == "umount"] == mounted[::-1]
        [root] = root_dirs_left()
        assert argvs[-1] == ["umount", str(root)]
        assert err.value.stage == "chroot"
        assert err.value.args[0].startswith(f"umount {root}/etc/resolv.conf failed")
        failures = [r for r in caplog.records if r.getMessage().startswith("teardown: ")]
        assert len(failures) == len(mounted)

    def test_cli_exits_2_with_no_digest(self, tmp_path, capsys):
        (tmp_path / "t.Pifile").write_text(self.LISTING)
        code = main(["--emulator", str(tmp_path / "file.txt"), str(tmp_path / "t.Pifile")],
                    FIXED_ENV, executor_factory=lambda cfg: LocalExecutor(runner=StuckRunner()))
        out, err = capsys.readouterr()
        assert code == 2
        assert "sha256=" not in out
        assert err.splitlines()[-1].startswith("[chroot] umount ")

    def test_a_command_failure_in_flight_wins(self, tmp_path):
        listing = "FROM base.img\nTO out.img\nRUN true\nHOST false\nRUN never\n"
        runner = StuckRunner()
        with pytest.raises(ExecutionFailure, match="failed with status 1") as err:
            execute(make_plan(tmp_path, listing), LocalExecutor(runner=runner),
                    RunOptions(env=FIXED_ENV, emulators=[]))
        assert err.value.args[0] == "HOST command failed with status 1: false"
        assert err.value.origin.line_no == 4
        assert runner.calls[-1][0] == ["umount", str(root_dirs_left()[0])]


PRIVILEGED = {"losetup", "mount", "umount", "chroot", "resize2fs"}


@pytest.fixture
def non_root(monkeypatch):
    """This process as uid 1000.  Every command started is recorded, and a privileged
    one fails the test rather than run with the real uid."""
    monkeypatch.setattr(os, "geteuid", lambda: 1000)
    started = []
    real_popen = subprocess.Popen

    def popen(argv, *args, **kwargs):
        started.append(list(argv))
        if os.path.basename(argv[0]) in PRIVILEGED:
            pytest.fail(f"a non-root build ran {argv}")
        return real_popen(argv, *args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", popen)
    return started


class TestHostGate:
    """Setup refuses a real build that the host cannot run, before TO is written."""

    GATED = ["FROM base.img\nTO out.img\nPUMP 1M\n", "FROM base.img\nTO out.img\nRUN true\n"]

    @pytest.fixture(autouse=True)
    def _fixture(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        mbr_oracle.write_image(tmp_path / "base.img")
        (tmp_path / "qemu-arm-static").write_bytes(b"\x7fELF")

    def build(self, tmp_path, text, *args, **kwargs):
        (tmp_path / "t.Pifile").write_text(text)
        return main([*args, "--emulator", str(tmp_path / "qemu-arm-static"),
                     str(tmp_path / "t.Pifile")], FIXED_ENV, **kwargs)

    @pytest.mark.parametrize("text", GATED)
    def test_non_root_is_refused_before_anything_runs(self, tmp_path, capsys, non_root,
                                                      text):
        assert self.build(tmp_path, text) == 3
        error = capsys.readouterr().err.splitlines()[-1]  # after any plan warning
        assert error.startswith("[setup] ") and "require root" in error
        assert not (tmp_path / "out.img").exists()
        assert non_root == []  # not even the fstab read

    @pytest.mark.parametrize("text", GATED)
    def test_injected_runner_and_dry_run_are_not_refused(self, tmp_path, non_root, text):
        assert self.build(tmp_path, text, "--dry-run", str(tmp_path / "plan.log")) == 0
        assert self.build(tmp_path, text,
                          executor_factory=lambda cfg: LocalExecutor(runner=GuestRunner())) == 0

    def test_host_only_build_is_not_refused(self, tmp_path, non_root):
        assert self.build(tmp_path, "FROM base.img\nTO out.img\nHOST true\n") == 0
        assert (tmp_path / "out.img").is_file()

    def test_a_build_that_never_enters_the_guest_looks_for_no_emulator(self, tmp_path,
                                                                       monkeypatch):
        def discover_emulators(path_var):
            raise AssertionError(f"looked for emulators on {path_var}")

        monkeypatch.setattr(mounts_mod, "discover_emulators", discover_emulators)
        (tmp_path / "t.Pifile").write_text("FROM base.img\nTO out.img\nHOST true\n")
        assert main([str(tmp_path / "t.Pifile")], FIXED_ENV) == 0
        assert (tmp_path / "out.img").is_file()

    def test_a_dry_run_copies_each_emulator_on_the_build_path(self, tmp_path):
        bindir = tmp_path / "bin"
        bindir.mkdir()
        stubs = [bindir / "qemu-aarch64-static", bindir / "qemu-arm-static"]
        for stub in stubs:
            stub.write_bytes(b"\x7fELF")
            stub.chmod(0o755)
        backend = DryRunExecutor()
        execute(make_plan(tmp_path, "FROM base.img\nRUN true\n"), backend,
                RunOptions(env={"PATH": f"{bindir}:/usr/bin:/bin"}))
        assert [a.payload["source"] for a in backend.actions
                if a.kind is ActionKind.COPY_EMULATOR] == [str(stub) for stub in stubs]

    def test_missing_binfmt_misc_warns_once(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(executor_mod, "BINFMT_MISC", str(tmp_path / "absent"))
        runner = GuestRunner()
        execute(make_plan(tmp_path, "FROM base.img\nTO out.img\n" + "RUN true\n" * 5),
                LocalExecutor(runner=runner), RunOptions(env=FIXED_ENV, emulators=[]))
        assert len([argv for argv, _ in runner.calls if argv[0] == "chroot"]) == 5
        warnings = [r for r in caplog.records if "binfmt_misc is not" in r.getMessage()]
        assert len(warnings) == 1 and warnings[0].levelname == "WARNING"


def write_ext4_root(image, files):
    """Put an ext4 filesystem holding ``files`` (guest path: text) on partition 2 of
    the fixture ``image``; partition 1 stays unformatted."""
    tree = image.parent / "guest-tree"
    tree.mkdir()
    for name, text in files.items():
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        (tree / name).write_text(text)
    root = mbr_oracle.FIXTURE_PARTITIONS[1]
    subprocess.run(["mkfs.ext4", "-q", "-F", "-E", f"offset={root['start'] * 512}",
                    "-d", str(tree), str(image), f"{root['size'] // 2}k"],
                   check=True, capture_output=True, stdin=subprocess.DEVNULL)


class TestGuestFstab:
    """The guest's /etc/fstab is read from the source in setup, in both modes."""

    BOOT_FSTAB = (f"PARTUUID={mbr_oracle.FIXTURE_DISK_ID:08x}-01 /boot vfat defaults 0 2\n"
                  f"PARTUUID={mbr_oracle.FIXTURE_DISK_ID:08x}-02 / ext4 defaults 0 1\n")
    # the fixture's partitions as byte ranges of the image
    BOOT_OPTIONS = f"options=loop,offset={2048 * 512},sizelimit={16384 * 512}"
    ROOT_OPTIONS = f"options=loop,offset={18432 * 512},sizelimit={112640 * 512}"

    def _build(self, tmp_path, dry_run):
        """Dry run or real build (with a stub runner) of ``RUN true``; (exit, log, runner)."""
        emulator = tmp_path / "qemu-arm-static"
        emulator.write_bytes(b"\x7fELF")
        pifile = tmp_path / "fstab.Pifile"
        pifile.write_text("FROM base.img\nTO out.img\nRUN true\n")
        args = ["--emulator", str(emulator), str(pifile)]
        if dry_run:
            log = tmp_path / "plan.log"
            code = main(["--dry-run", str(log), *args], FIXED_ENV)
            return code, log.read_text() if log.exists() else "", None
        runner = GuestRunner()
        real = LocalExecutor(runner=runner)
        code = main(args, FIXED_ENV, executor_factory=lambda config: real)
        return code, real.render_log(), runner

    def test_real_build_mounts_the_boot_partition_of_the_dry_run_log(self, tmp_path,
                                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_ext4_root(mbr_oracle.write_image(tmp_path / "base.img"),
                        {"etc/fstab": self.BOOT_FSTAB})
        code, dry_log, _ = self._build(tmp_path, dry_run=True)
        assert code == 0
        boot = f"source={tmp_path}/out.img\ttarget=<root>/boot\t{self.BOOT_OPTIONS}"
        assert f"MOUNT_PARTITION\t{boot}\n" in dry_log
        assert f"UNMOUNT\t{boot}\n" in dry_log
        code, real_log, runner = self._build(tmp_path, dry_run=False)
        assert code == 0
        assert real_log == dry_log
        mounts = [argv for argv, _ in runner.calls if argv[:2] == ["mount", "-o"]]
        assert [argv[2:4] for argv in mounts] == [
            [self.ROOT_OPTIONS.removeprefix("options="), f"{tmp_path}/out.img"],
            [self.BOOT_OPTIONS.removeprefix("options="), f"{tmp_path}/out.img"]]
        assert mounts[1][4].endswith("/boot")
        assert root_dirs_left() == []

    def test_a_boot_line_without_dump_and_pass_is_mounted(self, tmp_path, monkeypatch, caplog):
        """fstab(5) reads a missing dump or pass field as 0; the line is not skipped."""
        monkeypatch.chdir(tmp_path)
        write_ext4_root(mbr_oracle.write_image(tmp_path / "base.img"),
                        {"etc/fstab": self.BOOT_FSTAB.replace(" defaults 0 2\n", " defaults\n")})
        code, log, _ = self._build(tmp_path, dry_run=True)
        assert code == 0
        boot = f"source={tmp_path}/out.img\ttarget=<root>/boot\t{self.BOOT_OPTIONS}"
        assert f"MOUNT_PARTITION\t{boot}\n" in log
        assert [r for r in caplog.records if r.name == "imgforge.mounts"] == []

    @staticmethod
    def _debugfs_runs(monkeypatch):
        """The argv of every debugfs that ``subprocess.Popen`` starts from now on."""
        runs, real = [], subprocess.Popen

        def popen(argv, *args, **kwargs):
            if Path(argv[0]).name == "debugfs":
                runs.append(list(argv))
            return real(argv, *args, **kwargs)
        monkeypatch.setattr(subprocess, "Popen", popen)
        return runs

    @pytest.mark.parametrize("dry_run", [True, False])
    def test_root_without_a_filesystem_warns_once_and_mounts_only_the_base(
            self, tmp_path, monkeypatch, caplog, dry_run):
        monkeypatch.chdir(tmp_path)
        mbr_oracle.write_image(tmp_path / "base.img")
        debugfs_runs = self._debugfs_runs(monkeypatch)
        code, log, _ = self._build(tmp_path, dry_run)
        assert code == 0
        warnings = [r for r in caplog.records if r.name == "imgforge.mounts"]
        assert len(warnings) == 1
        assert "holds no ext2/3/4 filesystem" in warnings[0].getMessage()
        assert log.count("MOUNT_PARTITION") == 1
        assert debugfs_runs == []  # no ext superblock magic at the root partition's +1080

    @pytest.mark.parametrize("dry_run", [True, False])
    def test_root_with_only_the_ext_magic_starts_debugfs_and_mounts_only_the_base(
            self, tmp_path, monkeypatch, caplog, dry_run):
        monkeypatch.chdir(tmp_path)
        image = mbr_oracle.write_image(tmp_path / "base.img")
        with open(image, "r+b") as fh:  # s_magic of an ext2/3/4 superblock, and nothing else
            fh.seek(mbr_oracle.FIXTURE_PARTITIONS[1]["start"] * 512 + 1080)
            fh.write(b"\x53\xef")
        debugfs_runs = self._debugfs_runs(monkeypatch)
        code, log, _ = self._build(tmp_path, dry_run)
        assert code == 0
        assert len(debugfs_runs) == 1
        # debugfs 1.47 reports the corrupt superblock on stderr but exits 0; this root
        # still gets the one warning a root with no magic gets
        warnings = [r for r in caplog.records if r.name == "imgforge.mounts"]
        assert len(warnings) == 1
        assert "holds no ext2/3/4 filesystem" in warnings[0].getMessage()
        assert log.count("MOUNT_PARTITION") == 1

    @pytest.mark.parametrize("dry_run", [True, False])
    def test_ext_root_without_fstab_mounts_only_the_base(self, tmp_path, monkeypatch, caplog,
                                                          dry_run):
        monkeypatch.chdir(tmp_path)
        write_ext4_root(mbr_oracle.write_image(tmp_path / "base.img"),
                        {"etc/hostname": "guest\n"})
        code, log, _ = self._build(tmp_path, dry_run)
        assert code == 0
        assert [r for r in caplog.records if r.name == "imgforge.mounts"] == []
        assert log.count("MOUNT_PARTITION") == 1

    @pytest.mark.parametrize("line, message", [
        ("/dev/mmcblk0p3 /data ext4 defaults 0 2\n",
         "fstab names partition 3, which is an empty slot"),
        (f"PARTUUID={mbr_oracle.FIXTURE_DISK_ID:08x}-05 /data ext4 defaults 0 2\n",
         f"fstab device PARTUUID={mbr_oracle.FIXTURE_DISK_ID:08x}-05 names partition 5, "
         "outside the 4 MBR slots"),
    ])
    def test_an_entry_naming_no_partition_warns_and_mounts_only_the_base(
            self, tmp_path, monkeypatch, caplog, line, message):
        monkeypatch.chdir(tmp_path)
        write_ext4_root(mbr_oracle.write_image(tmp_path / "base.img"), {"etc/fstab": line})
        code, log, _ = self._build(tmp_path, dry_run=True)
        assert code == 0
        assert [r.getMessage() for r in caplog.records if r.name == "imgforge.mounts"] == [
            message]
        assert log.count("MOUNT_PARTITION") == 1

    @pytest.mark.parametrize("dry_run", [True, False])
    def test_missing_debugfs_is_exit_3_in_setup_before_to_is_written(
            self, tmp_path, monkeypatch, capsys, dry_run):
        monkeypatch.chdir(tmp_path)
        mbr_oracle.write_image(tmp_path / "base.img")
        (tmp_path / "no-debugfs").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "no-debugfs"))
        code, log, _ = self._build(tmp_path, dry_run)
        assert code == 3
        assert capsys.readouterr().err.startswith("[setup] cannot execute debugfs")
        assert not (tmp_path / "out.img").exists()
        assert "COPY_IMAGE" not in log


def test_the_planned_actions_are_the_dry_run_log_and_write_no_to(tmp_path, monkeypatch):
    """``plan_actions`` returns every action a dry run logs, before ``TO`` exists: numbered
    in order and followed by the teardown of its chroot setup, it is that log."""
    monkeypatch.chdir(tmp_path)
    write_ext4_root(mbr_oracle.write_image(tmp_path / "base.img"),
                    {"etc/fstab": TestGuestFstab.BOOT_FSTAB})
    (tmp_path / "motd").write_text("hi\n")
    listing = f"FROM base.img\n{TestRealBuildLog.LISTING}"
    stages = plan_actions(make_plan(tmp_path, listing, name="split.Pifile"),
                          RunOptions(env=FIXED_ENV, emulators=[EMULATOR]))
    assert not (tmp_path / "out.img").exists()
    # a PUMP or PATH directive stands in its stage's list as itself
    assert [(stage, step.kind) for stage, steps in stages.items() for step in steps
            if isinstance(step, Command)] == [(Stage.PREPARE, CommandKind.PUMP),
                                              (Stage.CHROOT, CommandKind.PATH)]
    planned = [step for steps in stages.values() for step in steps if isinstance(step, Action)]
    planned += teardown_actions([a for a in planned if a.kind.undo is not None])
    for ordinal, action in enumerate(planned):
        action.ordinal = ordinal
    assert main(["--dry-run", "plan.log", "--emulator", EMULATOR,
                 str(tmp_path / "split.Pifile")], FIXED_ENV) == 0
    log = (tmp_path / "plan.log").read_text()
    assert "target=<root>/boot" in log
    assert serialize_actions(planned) == log


class FailingAt(LocalExecutor):
    """A real backend with a stub guest runner whose action ``k`` fails."""

    def __init__(self, k):
        super().__init__(runner=GuestRunner())
        self.k = k

    def _perform(self, action):
        if action.ordinal == self.k:
            raise ExecutionFailure(f"injected failure of action {self.k}")
        return super()._perform(action)


def test_fault_injection_sweep(tmp_path, monkeypatch):
    """Whichever action of a real build fails, the build exits 2 and undoes exactly
    the chroot setup it applied.  Nothing is asserted about TO: a failed build still
    leaves it until builds publish through a ``.partial`` file."""
    monkeypatch.chdir(tmp_path)
    image = mbr_oracle.write_image(tmp_path / "base.img")
    write_ext4_root(image, {"etc/fstab": TestGuestFstab.BOOT_FSTAB})
    (tmp_path / "base.img.xz").write_bytes(lzma.compress(image.read_bytes(), preset=0))
    (tmp_path / "motd").write_text("hi\n")
    (tmp_path / "qemu-arm-static").write_bytes(b"\x7fELF")
    pifile = tmp_path / "sweep.Pifile"
    pifile.write_text("FROM base.img.xz\nTO out.img\nPUMP 8M\nHOST true\n"
                      "INSTALL 644 motd /etc/motd\n")
    cache = tmp_path / "cache"
    argv = ["--cache", str(cache), "--emulator", str(tmp_path / "qemu-arm-static"), str(pifile)]

    def build(backend):
        return main(argv, FIXED_ENV, executor_factory=lambda config: backend), backend.actions

    code, full = build(FailingAt(-1))
    assert code == 0
    kinds = [a.kind for a in full]
    assert kinds.count(ActionKind.MOUNT_PARTITION) == 2  # the root and the fstab's /boot
    teardown_from = len(full) - sum(1 for a in full if a.kind.undo is not None)
    for k in range(len(full)):
        code, actions = build(FailingAt(k))
        assert code == 2
        assert actions[:k + 1] == full[:k + 1]
        if k < teardown_from:
            applied = [a for a in actions[:k] if a.kind.undo is not None]
            assert [(a.kind, a.payload) for a in actions[k + 1:]] == [
                (a.kind, a.payload) for a in teardown_actions(applied)]
        else:  # a failed teardown action: every other one is still tried
            assert actions == full
        left = root_dirs_left()
        if full[k].payload.get("target") == "<root>" and k >= teardown_from:
            [root] = left  # a root whose unmount failed stays for inspection
            shutil.rmtree(root)
        else:
            assert left == []
        assert [d for d in cache.rglob("*") if d.is_dir() and not any(d.iterdir())] == []


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
