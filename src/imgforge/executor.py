"""The single gateway for externally observable effects.

Every side effect of a build — copying images, growing files, rewriting
partition tables, mounting, running host and guest commands, installing
files — is an :class:`~imgforge.actions.Action` emitted to an executor
backend.  The two backends accept exactly the same vocabulary, and each
action's payload is all a backend needs to perform it:

* :class:`DryRunExecutor` records every action and performs nothing.
* :class:`LocalExecutor` records every action and performs it, shelling
  out to mount/umount/losetup/chroot/resize2fs where system state is
  involved.  The command runner is injectable, which is how tests drive
  the privileged paths without privileges.

The pipeline in :func:`execute` is the same for both.  Where a dry run
and a real build differ in what they read, a backend method answers:
:meth:`Executor.image_to_read` names the image the partition table comes
from and :meth:`Executor.read_guest_file` reads a file inside the
mounted guest.

Loop devices are only known after attachment, so recorded commands name
them through the ``<loop>`` placeholder in both backends; the local
backend substitutes the real device when it invokes a command.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, ContextManager, Mapping, Sequence

from . import image as image_mod
from . import mounts as mounts_mod
from . import source as source_mod
# the vocabulary and its log format stay importable from here
from .actions import Action, ActionKind, render_action, serialize_actions  # noqa: F401
from .errors import (
    ChrootUnavailable,
    CommandFailed,
    ImgforgeError,
    IoFailure,
    PrivilegeRequired,
    ShellUnavailable,
    SourceMissing,
)
from .pifile import CommandKind, SourceLine, render_command
from .plan import ExecutionPlan, Stage

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GuestEnv:
    """Execution environment inside the chroot.

    ``path_var`` starts with the Pifile's PATH extensions in declaration
    order, followed by the host's PATH entries, first occurrence winning.
    """

    root: str
    path_var: tuple[str, ...]


def compose_guest_path(extensions: Sequence[str], host_path: Sequence[str]) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for entry in (*extensions, *host_path):
        if entry and entry not in seen:
            seen[entry] = None
    return tuple(seen)


# A command runner takes argv and returns (exit status, captured stdout).
Runner = Callable[..., tuple[int, str]]


def run_command(argv: Sequence[str], *, stdin_text: str | None = None,
                cwd: str | None = None, env: Mapping[str, str] | None = None,
                on_output: Callable[[str], None] | None = None) -> tuple[int, str]:
    """Run a command, streaming its combined output line by line.

    Standard input is fed from a helper thread so a command that writes
    output while reading a large here-document cannot deadlock the pipes.
    """
    try:
        proc = subprocess.Popen(
            list(argv),
            stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=cwd,
            env=dict(env) if env is not None else None,
            text=True,
        )
    except FileNotFoundError as exc:
        raise ShellUnavailable(f"cannot execute {argv[0]}: {exc}") from exc
    with proc:  # closes the pipes on every way out
        feeder = None
        if stdin_text is not None:
            assert proc.stdin is not None

            def _feed(stdin=proc.stdin) -> None:
                with contextlib.suppress(OSError), stdin:  # a command may not read it all
                    stdin.write(stdin_text)

            feeder = threading.Thread(target=_feed, daemon=True)
            feeder.start()
        collected: list[str] = []
        assert proc.stdout is not None
        for line in proc.stdout:
            line = line.rstrip("\n")
            collected.append(line)
            if on_output:
                on_output(line)
        status = proc.wait()
        if feeder is not None:
            feeder.join(timeout=10)
    return status, "\n".join(collected)


class Executor:
    """Base backend: assigns ordinals, keeps the action log, performs per subclass."""

    performs_effects = False

    def __init__(self) -> None:
        self.actions: list[Action] = []

    def emit(self, action: Action) -> int:
        """Record the action and perform it; returns the exit status for
        command actions (always 0 for everything else)."""
        action.ordinal = len(self.actions)
        self.actions.append(action)
        return self._perform(action)

    def _perform(self, action: Action) -> int:
        raise NotImplementedError

    def render_log(self) -> str:
        return serialize_actions(self.actions)

    def image_to_read(self, dest: Path, source: Path,
                      name_hint: str) -> ContextManager[Path | BinaryIO]:
        """The current image, for reading its partition table.

        A dry run never materializes the destination, so it reads the
        source: the file itself, or a fresh decompressing stream when the
        source is an archive.  Each call opens its own stream.
        """
        if source_mod.is_archive(name_hint):
            return source_mod.open_image_stream(source, name_hint)
        return contextlib.nullcontext(source)

    def read_guest_file(self, root: str, path: str) -> str | None:
        """Text of ``path`` inside the mounted guest at ``root``; None when unavailable."""
        return None


class DryRunExecutor(Executor):
    """Records every would-be effect; performs none of them."""

    def _perform(self, action: Action) -> int:
        return 0


class LocalExecutor(Executor):
    """Performs actions on the local system.

    File-level actions (copy, grow, table write, install) are direct I/O;
    anything touching mounts, loop devices, or the chroot shells out via
    ``runner`` and needs root when the default runner is used.  Injecting a
    runner replaces that boundary wholesale, privilege checks included.
    """

    performs_effects = True

    def __init__(self, runner: Runner | None = None,
                 on_output: Callable[[str], None] | None = None) -> None:
        super().__init__()
        self._default_runner = runner is None
        self.runner: Runner = runner if runner is not None else run_command
        self.on_output = on_output
        self.loop_device: str | None = None
        self._handlers: dict[ActionKind, Callable[[Action], int]] = {
            ActionKind.FETCH: lambda action: 0,  # the pipeline fetches before emitting
            ActionKind.COPY_IMAGE: self._copy_image,
            ActionKind.DEVICE_WRITE: self._device_write,
            ActionKind.GROW_FILE: self._grow_file,
            ActionKind.TABLE_WRITE: self._table_write,
            ActionKind.FS_RESIZE: self._fs_resize,
            ActionKind.LOOP_ATTACH: self._loop_attach,
            ActionKind.MOUNT_PARTITION: self._mount,
            ActionKind.BIND_MOUNT: self._bind_mount,
            ActionKind.COPY_EMULATOR: self._copy_emulator,
            ActionKind.UNMOUNT: self._unmount,
            ActionKind.REMOVE_EMULATOR: self._remove_emulator,
            ActionKind.LOOP_DETACH: self._loop_detach,
            ActionKind.HOST_EXEC: self._host_exec,
            ActionKind.GUEST_EXEC: self._guest_exec,
            ActionKind.COPY_IN: self._copy_in,
        }

    def _perform(self, action: Action) -> int:
        return self._handlers[action.kind](action)

    def image_to_read(self, dest: Path, source: Path,
                      name_hint: str) -> ContextManager[Path | BinaryIO]:
        return contextlib.nullcontext(dest)

    def read_guest_file(self, root: str, path: str) -> str | None:
        guest_path = Path(root) / path.lstrip("/")
        return guest_path.read_text() if guest_path.is_file() else None

    # -- helpers ------------------------------------------------------------

    def _sub_loop(self, text: str) -> str:
        if mounts_mod.LOOP_TOKEN in text:
            if self.loop_device is None:
                raise IoFailure(f"no loop device attached to satisfy {text!r}")
            return text.replace(mounts_mod.LOOP_TOKEN, self.loop_device)
        return text

    def _require_root(self, what: str) -> None:
        # an injected runner owns the privilege boundary; only gate the real one
        if self._default_runner and os.geteuid() != 0:
            raise PrivilegeRequired(f"{what} requires root; re-run with sudo")

    def _attach(self, image: str) -> str:
        """Attach ``image`` to a free loop device with partition scanning; returns it."""
        status, out = self.runner(["losetup", "--find", "--show", "-P", image])
        if status != 0:
            raise IoFailure(f"losetup failed for {image}: {out}")
        return out.strip()

    # -- file-level actions ---------------------------------------------------

    def _copy_image(self, action: Action) -> int:
        source_mod.copy_image_bytes(action.payload["src"], action.payload["dst"])
        return 0

    def _device_write(self, action: Action) -> int:
        source_mod.write_to_device(action.payload["src"], action.payload["dst"])
        return 0

    def _grow_file(self, action: Action) -> int:
        image_mod.grow_image_file(action.payload["path"], int(action.payload["bytes"]))
        return 0

    def _table_write(self, action: Action) -> int:
        image_mod.resize_partition_entry(action.payload["path"], int(action.payload["partition"]),
                                         int(action.payload["lba_size"]))
        return 0

    def _copy_in(self, action: Action) -> int:
        src = Path(action.payload["src"])
        if not src.exists():
            raise SourceMissing(f"INSTALL source does not exist: {src}")
        root = Path(action.payload["root"])
        dst = root / action.payload["dst"].lstrip("/")
        dst.parent.mkdir(parents=True, exist_ok=True)
        if src.is_dir():
            shutil.copytree(src, dst, dirs_exist_ok=True)
        else:
            shutil.copy2(src, dst)
        mode = action.payload.get("mode", "")
        if mode:
            _chmod_recursive(dst, int(mode, 8))
        return 0

    # -- privileged actions ---------------------------------------------------

    def _fs_resize(self, action: Action) -> int:
        self._require_root("resizing a filesystem")
        device = self._attach(action.payload["image"])
        try:
            partition = mounts_mod.partition_device(device, int(action.payload["partition"]))
            status, out = self.runner(["resize2fs", partition])
            if status != 0:
                raise IoFailure(f"resize2fs {partition} failed with status {status}: {out}")
        finally:
            self.runner(["losetup", "-d", device])
        return 0

    def _loop_attach(self, action: Action) -> int:
        self._require_root("attaching a loop device")
        self.loop_device = self._attach(action.payload["source"])
        return 0

    def _mount(self, action: Action) -> int:
        self._require_root("mounting a partition")
        target = action.payload["target"]
        os.makedirs(target, exist_ok=True)
        status, out = self.runner(["mount", self._sub_loop(action.payload["source"]), target])
        if status != 0:
            raise IoFailure(f"mount {target} failed with status {status}: {out}")
        return 0

    def _bind_mount(self, action: Action) -> int:
        self._require_root("bind mounting")
        source = action.payload["source"]
        target = Path(action.payload["target"])
        if Path(source).is_dir():
            target.mkdir(parents=True, exist_ok=True)
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.touch(exist_ok=True)
        status, out = self.runner(["mount", "--bind", source, str(target)])
        if status != 0:
            raise IoFailure(f"bind mount {target} failed with status {status}: {out}")
        return 0

    def _copy_emulator(self, action: Action) -> int:
        target = Path(action.payload["target"])
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(action.payload["source"], target)
        target.chmod(0o755)
        return 0

    def _unmount(self, action: Action) -> int:
        status, out = self.runner(["umount", action.payload["target"]])
        if status != 0:
            # teardown is best effort; a stuck mount must not mask the real error
            logger.warning("umount %s failed with status %d: %s",
                           action.payload["target"], status, out)
        return 0

    def _remove_emulator(self, action: Action) -> int:
        Path(action.payload["target"]).unlink(missing_ok=True)
        return 0

    def _loop_detach(self, action: Action) -> int:
        if self.loop_device is not None:
            status, out = self.runner(["losetup", "-d", self.loop_device])
            if status != 0:
                logger.warning("losetup -d %s failed with status %d: %s",
                               self.loop_device, status, out)
            self.loop_device = None
        return 0

    # -- command actions --------------------------------------------------------

    def _host_exec(self, action: Action) -> int:
        status, _ = self.runner(
            ["/bin/sh", "-c", action.payload["command"]],
            stdin_text=action.payload.get("stdin") or None,
            cwd=action.payload.get("cwd") or None,
            on_output=self.on_output,
        )
        return status

    def _guest_exec(self, action: Action) -> int:
        if self._default_runner and os.geteuid() != 0:
            raise ChrootUnavailable(
                "running guest commands requires root for chroot; re-run with sudo"
            )
        root = action.payload["root"]
        shell = _guest_shell(root)
        _check_binfmt()
        status, _ = self.runner(
            ["chroot", root, shell, "-c", action.payload["command"]],
            stdin_text=action.payload.get("stdin") or None,
            env={"PATH": action.payload["path"]},
            on_output=self.on_output,
        )
        return status


def _chmod_recursive(path: Path, mode: int) -> None:
    path.chmod(mode)
    if path.is_dir():
        for child in path.rglob("*"):
            child.chmod(mode)


def _guest_shell(root: str) -> str:
    for shell in ("/bin/sh", "/bin/bash"):
        if (Path(root) / shell.lstrip("/")).exists():
            return shell
    raise ShellUnavailable(f"guest at {root} has neither /bin/sh nor /bin/bash")


def _check_binfmt() -> None:
    binfmt = Path("/proc/sys/fs/binfmt_misc")
    if not binfmt.is_dir():
        logger.warning(
            "binfmt_misc is not mounted; foreign-architecture guest binaries will not run "
            "(mount binfmt_misc and register qemu-user-static handlers)"
        )


# --- the high-level operations ------------------------------------------------


def run_host(cmd: str, executor: Executor, *,
             origin: SourceLine | None = None, cwd: str = ".",
             stdin: str | None = None) -> int:
    """Run a command on the build host under a shell; nonzero status aborts."""
    action = Action(ActionKind.HOST_EXEC, {
        "command": cmd,
        "cwd": cwd,
        "stdin": stdin or "",
    })
    status = executor.emit(action)
    if status != 0:
        raise CommandFailed(f"HOST command failed with status {status}: {cmd}",
                            status=status, origin=origin)
    return status


def run_guest(cmd: str, env: GuestEnv, executor: Executor, *,
              origin: SourceLine | None = None, stdin: str | None = None) -> int:
    """Run a command inside the guest image via chroot; nonzero status aborts.

    The here-document body, when present, is supplied on standard input.
    """
    action = Action(ActionKind.GUEST_EXEC, {
        "command": cmd,
        "root": env.root,
        "path": ":".join(env.path_var),
        "stdin": stdin or "",
    })
    status = executor.emit(action)
    if status != 0:
        raise CommandFailed(f"RUN command failed with status {status}: {cmd}",
                            status=status, origin=origin)
    return status


def install_file(src: str | Path, dst: str, mode: str | None, executor: Executor, *,
                 root: str = mounts_mod.ROOT_TOKEN) -> None:
    """Copy a host file or directory into the guest, optionally chmodding it.

    ``mode`` is an octal string; ``build_plan`` has already checked it.
    """
    executor.emit(Action(ActionKind.COPY_IN, {
        "src": str(src),
        "dst": dst,
        "mode": mode or "",
        "root": root,
    }))


@dataclass
class RunOptions:
    """Knobs the pipeline needs beyond the plan itself."""

    env: Mapping[str, str] | None = None  # host environment; None means os.environ
    cache_dir: str | Path | None = None
    refresh: bool = False
    offline: bool = False
    emulators: Sequence[str] | None = None
    fetcher: source_mod.Fetcher | None = None
    on_log: Callable[[str, SourceLine | None, str], None] | None = None


@dataclass
class BuildReport:
    stage_durations: dict[str, float]
    action_count: int
    image_digest: str | None


def execute(plan: ExecutionPlan, backend: Executor,
            options: RunOptions | None = None) -> BuildReport:
    """Run the plan: setup, prepare, then the chroot stage, with guaranteed teardown.

    The first failing action aborts the remaining commands but never the
    teardown; the raised error carries the stage and Pifile line it came
    from.  On success the report holds per-stage durations, the action
    count, and the SHA-256 of the final image (real backends only).
    """
    opts = options or RunOptions()
    env = dict(opts.env) if opts.env is not None else dict(os.environ)
    log = opts.on_log or (lambda stage, origin, message: None)
    real = backend.performs_effects
    durations: dict[str, float] = {}
    stage_label = Stage.SETUP.label

    applied_mounts: list[Action] = []
    root_dir: str | None = None
    dest = Path(plan.destination.path)
    try:
        # --- setup: resolve source, materialize destination -----------------
        started = time.monotonic()
        log(Stage.SETUP.label, None, "begin")
        resolved, name_hint = _resolve_source(plan, opts, backend, env, log)
        src_image = resolved
        if real and source_mod.is_archive(name_hint):
            src_image = source_mod.extract_image(
                resolved, _extraction_workspace(plan, opts, env, resolved),
                name_hint=name_hint,
            )
        dest = source_mod.materialize_destination(plan, backend, resolved_source=src_image)
        durations[Stage.SETUP.label] = time.monotonic() - started

        # --- prepare: pump ---------------------------------------------------
        started = time.monotonic()
        stage_label = Stage.PREPARE.label
        log(stage_label, None, "begin")
        if plan.pump_bytes > 0:
            for command in plan.staged[Stage.PREPARE]:
                log(stage_label, command.origin, render_command(command))
            with backend.image_to_read(dest, src_image, name_hint) as image:
                image_mod.pump(plan, backend, table_source=image)
        durations[stage_label] = time.monotonic() - started

        # --- chroot: mounts, commands, installs ------------------------------
        started = time.monotonic()
        stage_label = Stage.CHROOT.label
        log(stage_label, None, "begin")
        chroot_commands = plan.staged[Stage.CHROOT]
        # HOST and PATH never touch the guest filesystem; mount only when
        # something will actually run or copy inside the image
        needs_guest = any(c.kind in (CommandKind.RUN, CommandKind.INSTALL)
                          for c in chroot_commands)
        root = mounts_mod.ROOT_TOKEN
        if needs_guest:
            with backend.image_to_read(dest, src_image, name_hint) as image:
                table = image_mod.read_partition_table(image)
            if real:
                root = root_dir = tempfile.mkdtemp(prefix="imgforge-root-")
            for action in mounts_mod.base_mount_actions(plan, table, root=root,
                                                        emulators=opts.emulators):
                backend.emit(action)
                applied_mounts.append(action)
            fstab_text = backend.read_guest_file(root, "etc/fstab")
            if fstab_text is not None:
                mounted = {a.payload["target"] for a in applied_mounts
                           if a.kind is not ActionKind.LOOP_ATTACH}
                for action in mounts_mod.fstab_mount_actions(plan, table, fstab_text, root=root,
                                                             already_mounted=mounted):
                    backend.emit(action)
                    applied_mounts.append(action)

        if chroot_commands:
            host_path = [p for p in env.get("PATH", "").split(os.pathsep) if p]
            extensions: list[str] = []
            for command in chroot_commands:
                log(stage_label, command.origin, render_command(command).split("\n")[0])
                if command.kind is CommandKind.PATH:
                    extensions.append(command.args[0])
                    continue
                if command.kind is CommandKind.RUN:
                    guest_env = GuestEnv(
                        root=root, path_var=compose_guest_path(extensions, host_path)
                    )
                    run_guest(command.args[0], guest_env, backend,
                              origin=command.origin, stdin=command.heredoc)
                elif command.kind is CommandKind.HOST:
                    run_host(command.args[0], backend, origin=command.origin,
                             cwd=str(command.origin.file.parent), stdin=command.heredoc)
                elif command.kind is CommandKind.INSTALL:
                    src = Path(command.args[-2])
                    if not src.is_absolute():
                        src = command.origin.file.parent / src
                    mode = command.args[0] if len(command.args) == 3 else None
                    install_file(src, command.args[-1], mode, backend, root=root)
        durations[stage_label] = time.monotonic() - started
    except ImgforgeError as exc:
        if exc.stage is None:
            exc.stage = stage_label
        if exc.origin is not None:
            log(stage_label, exc.origin, f"failed: {exc.args[0]}")
        raise
    finally:
        for action in mounts_mod.teardown_actions(applied_mounts):
            backend.emit(action)
        if root_dir is not None:
            try:
                os.rmdir(root_dir)
            except OSError:
                pass  # left behind for inspection when still busy

    digest = None
    if real and plan.destination.kind is source_mod.TargetKind.LOCAL_FILE and dest.is_file():
        digest = _sha256_file(dest)
    return BuildReport(
        stage_durations=durations,
        action_count=len(backend.actions),
        image_digest=digest,
    )


def _resolve_source(plan: ExecutionPlan, opts: RunOptions, backend: Executor,
                    env: Mapping[str, str],
                    log: Callable[[str, SourceLine | None, str], None]) -> tuple[Path, str]:
    """Fetch URL sources into the cache; local sources resolve to themselves.

    Downloads happen in both backends — a dry run still needs the real
    bytes to inspect partition tables — so the FETCH action in the log
    records work the pipeline has already done.
    """
    spec = plan.source
    if spec.kind is source_mod.SourceKind.URL:
        cache_dir = resolve_cache_dir(opts.cache_dir, env, plan.pifile_path)
        fetched = source_mod.fetch_to_cache(
            spec.locator, cache_dir, opts.fetcher,
            refresh=opts.refresh, offline=opts.offline,
        )
        backend.emit(Action(ActionKind.FETCH, {"url": spec.locator, "dest": str(fetched)}))
        log(Stage.SETUP.label, None, f"fetched {spec.locator}")
        name_hint = Path(urllib.parse.urlsplit(spec.locator).path).name or "image"
        return fetched, name_hint
    path = Path(spec.locator)
    return path, path.name


def _extraction_workspace(plan: ExecutionPlan, opts: RunOptions,
                          env: Mapping[str, str], resolved: Path) -> Path:
    """Directory where an archive unpacks: its cache entry, keyed by locator."""
    if plan.source.kind is source_mod.SourceKind.URL:
        return resolved.parent
    cache_dir = resolve_cache_dir(opts.cache_dir, env, plan.pifile_path)
    entry = Path(cache_dir) / source_mod.cache_key(f"file://{resolved.resolve()}")
    entry.mkdir(parents=True, exist_ok=True)
    return entry


def resolve_cache_dir(explicit: str | Path | None, env: Mapping[str, str],
                      pifile_path: Path) -> Path:
    """--cache flag wins, then $PIMOD_CACHE, then .pimod-cache beside the Pifile."""
    if explicit is not None:
        return Path(explicit)
    if env.get("PIMOD_CACHE"):
        return Path(env["PIMOD_CACHE"])
    return pifile_path.parent / ".pimod-cache"


def _sha256_file(path: Path) -> str:
    """SHA-256 of every apparent byte of ``path``; holes are hashed, never read."""
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        for _, chunk in source_mod.iter_chunks(fh, fill_holes=True):
            digest.update(chunk)
    return digest.hexdigest()
