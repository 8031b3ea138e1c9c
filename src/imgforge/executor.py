"""The single gateway for externally observable effects.

Every side effect of a build — copying images, growing files, rewriting
partition tables, mounting, running host and guest commands, installing
files — is an :class:`~imgforge.actions.Action` emitted to an executor
backend.  The two backends accept exactly the same vocabulary, and each
action's payload is all a backend needs to perform it:

* :class:`DryRunExecutor` records every action and performs nothing.
* :class:`LocalExecutor` records every action and performs it, shelling
  out to mount/umount/chroot/resize2fs where system state is involved.
  The command runner is injectable, which is how tests drive the
  privileged paths without privileges.

A build is planned, then performed.  In setup, :func:`plan_actions` makes
every read and refusal and returns every action of each stage before
``TO`` is written; :func:`execute` then emits them, stops at the first
nonzero status of a RUN or HOST, and tears down.  A dry run and a real
build share every line of it: a backend decides only how an action is
performed, and only :class:`LocalExecutor` checks the host and hashes ``TO``.

The chroot directory only exists once the build has mounted the guest
root, so actions name it through the ``<root>`` placeholder in both
backends; the local backend resolves it when it performs an action, and so
records exactly the log a dry run predicts.  It refuses a guest path that,
with its symlinks followed, leaves that directory.  Only FS_RESIZE attaches
a loop device itself, and detaches it again before it returns.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import child
from . import image as image_mod
from . import mounts as mounts_mod
from . import source as source_mod
# the vocabulary and its log format stay importable from here
from .actions import Action, ActionKind, render_action, serialize_actions  # noqa: F401
from .errors import EnvironmentProblem, ExecutionFailure, ImgforgeError
from .pifile import Command, CommandKind, pathlib_join, render_first_line
from .plan import ExecutionPlan, Stage

logger = logging.getLogger(__name__)

BINFMT_MISC = "/proc/sys/fs/binfmt_misc"


def compose_guest_path(extensions: Sequence[str], host_path: Sequence[str]) -> tuple[str, ...]:
    """The guest PATH: the Pifile's PATH extensions in declaration order, then
    the host's PATH entries; an entry listed twice keeps its first position.
    """
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

    Lines streamed to ``on_output`` are not kept and the returned text is
    empty; without ``on_output`` the output is collected and returned.  It
    is decoded as UTF-8, an invalid byte becoming U+FFFD.  Standard input is
    ``stdin_text`` in an unnamed temporary file, as bash makes for a
    here-document, encoded as UTF-8 with a lone surrogate as ``?``; a file
    never fills, so no thread is started.  An exception that leaves this
    function, a signal's for one, kills the command first.
    """
    with (tempfile.TemporaryFile("w+", encoding="utf-8", errors="replace")
          if stdin_text is not None else contextlib.nullcontext()) as body:
        if body is not None:  # closed only once the command is reaped
            body.write(stdin_text)
            body.seek(0)
        with child.started(list(argv), stdin=subprocess.DEVNULL if body is None else body,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=cwd,
                           env=dict(env) if env is not None else None,
                           text=True, encoding="utf-8", errors="replace") as proc:
            collected: list[str] = []
            sink = on_output or collected.append
            assert proc.stdout is not None
            for line in proc.stdout:
                sink(line.rstrip("\n"))
            status = proc.wait()
    return status, "\n".join(collected)


class Executor:
    """Base backend: assigns ordinals and keeps the action log; performs nothing."""

    def __init__(self) -> None:
        self.actions: list[Action] = []

    def check_host(self, plan: ExecutionPlan, emulators: Sequence[str] | None) -> None:
        """Refuse a host that cannot perform ``plan``; nothing is, so nothing is refused."""

    def emit(self, action: Action) -> int:
        """Record the action and perform it; returns the exit status for
        command actions (always 0 for everything else)."""
        action.ordinal = len(self.actions)
        self.actions.append(action)
        return self._perform(action)

    def _perform(self, action: Action) -> int:
        return 0

    def digest(self, image: Path) -> str | None:
        """The SHA-256 of the built ``image``: None, as nothing was built."""

    def render_log(self) -> str:
        return serialize_actions(self.actions)


class DryRunExecutor(Executor):
    """Records every would-be effect; performs none of them."""


class LocalExecutor(Executor):
    """Performs actions on the local system.

    One ``match`` on the action's kind in :meth:`_perform` says what this
    backend does for each kind.  A kind whose effect is one call makes it
    there; FS_RESIZE, MOUNT_PARTITION, BIND_MOUNT, UNMOUNT and COPY_IN,
    which take several steps, each have a method that takes the payload.
    Every case reads its payload before any effect, and a kind with no case
    raises ExecutionFailure.

    File-level actions (copy, grow, table write, install) are direct I/O;
    anything touching mounts, loop devices, or the chroot shells out via
    ``runner`` and needs root when the default runner is used, which
    :meth:`check_host` checks in setup.  Injecting a runner replaces that
    boundary wholesale, the root check included.

    ``root_dir`` resolves ``<root>``.  A mount at ``<root>`` makes it, a
    temporary directory, and its unmount removes it again unless the mount
    is still busy.
    """

    def __init__(self, runner: Runner | None = None,
                 on_output: Callable[[str], None] | None = None) -> None:
        super().__init__()
        self.runner: Runner = runner if runner is not None else run_command
        self.on_output = on_output
        self.root_dir: str | None = None

    def check_host(self, plan: ExecutionPlan, emulators: Sequence[str] | None) -> None:
        """Refuse to grow the image or enter the guest (``emulators`` is not None) with an
        emulator that is no file or, with the default runner, without root; warn once when
        the guest will be entered without binfmt_misc."""
        if emulators is None and plan.pump_bytes <= 0:
            return
        missing = [e for e in emulators or () if not os.path.isfile(e)]
        if missing:
            raise EnvironmentProblem(f"emulator is not a file: {', '.join(missing)}")
        # an injected runner owns the privilege boundary; only gate the real one
        if self.runner is run_command and os.geteuid() != 0:
            raise EnvironmentProblem("PUMP, RUN and INSTALL require root; re-run with sudo")
        if emulators is not None and not os.path.isdir(BINFMT_MISC):
            logger.warning(
                "binfmt_misc is not mounted; foreign-architecture guest binaries will not "
                "run (mount binfmt_misc and register qemu-user-static handlers)")

    def digest(self, image: Path) -> str | None:
        """SHA-256 of the built ``image``; None for a device, which is no file."""
        return _sha256_file(image) if image.is_file() else None

    def _perform(self, action: Action) -> int:
        payload = action.payload
        match action.kind:
            case ActionKind.FETCH:
                pass  # setup fetched it while planning
            case ActionKind.COPY_IMAGE:
                source_mod.copy_image_bytes(payload["src"], payload["dst"])
            case ActionKind.DEVICE_WRITE:
                source_mod.write_to_device(payload["src"], payload["dst"])
            case ActionKind.GROW_FILE:
                image_mod.grow_image_file(payload["path"], int(payload["bytes"]))
            case ActionKind.TABLE_WRITE:
                image_mod.resize_partition_entry(payload["path"], int(payload["partition"]),
                                                 int(payload["lba_size"]))
            case ActionKind.FS_RESIZE:
                self._fs_resize(payload)
            case ActionKind.MOUNT_PARTITION:
                self._mount(payload)
            case ActionKind.BIND_MOUNT:
                self._bind_mount(payload)
            case ActionKind.COPY_EMULATOR:
                target = self._in_root(payload["target"])
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(payload["source"], target)
                target.chmod(0o755)
            case ActionKind.UNMOUNT:
                self._unmount(payload)
            case ActionKind.REMOVE_EMULATOR:
                self._in_root(payload["target"]).unlink(missing_ok=True)
            case ActionKind.HOST_EXEC:
                return self._exec(["/bin/sh", "-c", payload["command"]], payload,
                                  cwd=payload.get("cwd") or None)
            case ActionKind.GUEST_EXEC:
                root = self._sub(payload["root"])
                return self._exec(["chroot", root, _guest_shell(root), "-c", payload["command"]],
                                  payload, env={"PATH": payload["path"]})
            case ActionKind.COPY_IN:
                self._copy_in(payload)
            case _:
                raise ExecutionFailure(f"the local backend cannot perform {action.kind.name}")
        return 0

    # -- helpers ------------------------------------------------------------

    def _sub(self, text: str) -> str:
        """``text`` with the ``<root>`` placeholder resolved."""
        if mounts_mod.ROOT_TOKEN in text:
            if self.root_dir is None:
                raise ExecutionFailure(f"no guest root is mounted to satisfy {text!r}")
            text = text.replace(mounts_mod.ROOT_TOKEN, self.root_dir)
        return text

    def _in_root(self, text: str | Path) -> Path:
        """``text`` resolved: ``<root>`` substituted and every symlink followed.

        While a guest root is mounted, a path that then leaves it, through an
        absolute symlink of the guest for one, raises ExecutionFailure.
        """
        path = os.path.realpath(self._sub(str(text)))
        if self.root_dir is not None:
            root = os.path.realpath(self.root_dir)
            if os.path.commonpath([root, path]) != root:
                raise ExecutionFailure(f"{text} leaves the guest root: it resolves to {path}")
        return Path(path)

    def _run_checked(self, argv: list[str], what: str) -> str:
        """Run ``argv``; a nonzero status raises ExecutionFailure.  Returns the output."""
        status, out = self.runner(argv)
        if status != 0:
            raise ExecutionFailure(f"{what} failed with status {status}: {out}")
        return out

    def _exec(self, argv: list[str], payload: Mapping[str, str], **kw) -> int:
        """Run a HOST or guest command, streaming its output unkept; returns its status."""
        status, _ = self.runner(argv, stdin_text=payload.get("stdin") or None,
                                on_output=self.on_output or (lambda line: None), **kw)
        return status

    # -- actions of several steps ---------------------------------------------

    def _copy_in(self, payload: Mapping[str, str]) -> None:
        src = Path(payload["src"])
        if not src.exists():
            raise ExecutionFailure(f"INSTALL source does not exist: {src}")
        dst = self._in_root(f"{payload['root']}/{payload['dst'].lstrip('/')}")
        if not src.is_dir() and dst.is_dir():
            dst = self._in_root(dst / src.name)  # where copy2 would write
        # every path the copy writes, each checked before anything is written
        written = [dst]
        if src.is_dir():
            for folder, dirs, files in os.walk(src, followlinks=True):
                written += (self._in_root(dst / os.path.relpath(folder, src) / name)
                            for name in (*dirs, *files))
        dst.parent.mkdir(parents=True, exist_ok=True)
        if src.is_dir():
            shutil.copytree(src, dst, dirs_exist_ok=True)
        else:
            shutil.copy2(src, dst)
        mode = payload.get("mode", "")
        if mode:
            for path in written:
                path.chmod(int(mode, 8))

    def _fs_resize(self, payload: Mapping[str, str]) -> None:
        image = payload["image"]
        device = self._run_checked(["losetup", "--find", "--show", "-P", image],
                                   f"losetup {image}").strip()
        try:
            partition = mounts_mod.partition_device(device, int(payload["partition"]))
            self._run_checked(["resize2fs", partition], f"resize2fs {partition}")
        except BaseException:
            self.runner(["losetup", "-d", device])  # unchecked: the resize2fs failure wins
            raise
        self._run_checked(["losetup", "-d", device], f"losetup -d {device}")

    def _mount(self, payload: Mapping[str, str]) -> None:
        if payload["target"] == mounts_mod.ROOT_TOKEN:
            self.root_dir = target = tempfile.mkdtemp(prefix="imgforge-root-")
        else:
            target = str(self._in_root(payload["target"]))
        os.makedirs(target, exist_ok=True)
        options = payload.get("options")
        try:
            self._run_checked(["mount", *(["-o", options] if options else []),
                               payload["source"], target], f"mount {target}")
        except BaseException:
            if target == self.root_dir:
                os.rmdir(target)
                self.root_dir = None
            raise

    def _bind_mount(self, payload: Mapping[str, str]) -> None:
        source = payload["source"]
        target = self._in_root(payload["target"])
        if Path(source).is_dir():
            target.mkdir(parents=True, exist_ok=True)
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.touch(exist_ok=True)
        self._run_checked(["mount", "--bind", source, str(target)], f"bind mount {target}")

    def _unmount(self, payload: Mapping[str, str]) -> None:
        target = self._sub(payload["target"])
        self._run_checked(["umount", target], f"umount {target}")  # a busy root stays
        if payload["target"] == mounts_mod.ROOT_TOKEN:
            with contextlib.suppress(OSError):  # left behind for inspection when not empty
                os.rmdir(self.root_dir)
            self.root_dir = None


def _guest_shell(root: str) -> str:
    for shell in ("/bin/sh", "/bin/bash"):
        if (Path(root) / shell.lstrip("/")).exists():
            return shell
    raise EnvironmentProblem(f"guest at {root} has neither /bin/sh nor /bin/bash")


# --- the high-level operations ------------------------------------------------

# read for every command: a member read through its class is a slow lookup on 3.11
_RUN, _HOST, _PATH = CommandKind.RUN, CommandKind.HOST, CommandKind.PATH
_GUEST_EXEC, _HOST_EXEC, _COPY_IN = ActionKind.GUEST_EXEC, ActionKind.HOST_EXEC, ActionKind.COPY_IN


def command_action(command: Command, guest_path: str, here: str) -> Action:
    """The action a RUN, HOST or INSTALL command becomes; its ``origin`` is ``command``.

    RUN executes in the guest with ``guest_path``, the composed PATH text
    (entries joined with ":"), as its PATH, HOST executes in ``here``, the text
    of the directory of the command's Pifile, and a relative INSTALL source is
    anchored there.  A here-document body is its standard input.
    """
    if command.kind is _RUN:
        return Action(_GUEST_EXEC, {
            "command": command.args[0],
            "root": mounts_mod.ROOT_TOKEN,
            "path": guest_path,
            "stdin": command.heredoc or "",
        }, command)
    if command.kind is _HOST:
        return Action(_HOST_EXEC, {
            "command": command.args[0],
            "cwd": here,
            "stdin": command.heredoc or "",
        }, command)
    return Action(_COPY_IN, {
        "src": pathlib_join(here, command.args[-2]),
        "dst": command.args[-1],
        "mode": command.args[0] if len(command.args) == 3 else "",
        "root": mounts_mod.ROOT_TOKEN,
    }, command)


@dataclass
class RunOptions:
    """Knobs the pipeline needs beyond the plan itself."""

    env: Mapping[str, str] | None = None  # host environment; None means os.environ
    cache_dir: str | Path | None = None
    refresh: bool = False
    offline: bool = False
    emulators: Sequence[str] | None = None
    on_log: Callable[[str, Command | None, str], None] | None = None


@dataclass
class BuildReport:
    stage_durations: dict[str, float]
    image_digest: str | None


def plan_actions(plan: ExecutionPlan, options: RunOptions | None = None, *,
                 check_host: Callable[..., None] = lambda plan, emulators: None,
                 ) -> dict[Stage, list[Action | Command]]:
    """Setup's reads and refusals, then each stage's actions in order; ``TO`` is not written.

    ``check_host`` first gets the guest's emulators (``opts.emulators``, else the
    qemu-*-static binaries on the build environment's PATH), or None when no
    RUN or INSTALL enters the guest.  The source is then fetched and unpacked
    into the cache, and its partition table, length and guest fstab are read
    as PUMP and the guest need them.  A PUMP or PATH directive stands in its
    stage's list as its Command, for its stage line; it performs nothing.
    """
    opts = options or RunOptions()
    env = dict(opts.env) if opts.env is not None else dict(os.environ)
    chroot_commands = plan.staged[Stage.CHROOT]
    emulators: list[str] | None = None
    # HOST and PATH never touch the guest filesystem; mount only when
    # something will actually run or copy inside the image
    if any(c.kind in (CommandKind.RUN, CommandKind.INSTALL) for c in chroot_commands):
        emulators = (list(opts.emulators) if opts.emulators is not None
                     else mounts_mod.discover_emulators(env.get("PATH", "")))
    check_host(plan, emulators)

    setup: list[Action | Command] = []
    spec = plan.source
    cache_dir = source_mod.resolve_cache_dir(opts.cache_dir, env, plan.pifile_path)
    src_image = Path(spec.locator)
    if spec.kind is source_mod.SourceKind.URL:
        src_image = source_mod.fetch_to_cache(spec.locator, cache_dir, refresh=opts.refresh,
                                              offline=opts.offline)
        setup.append(Action(ActionKind.FETCH, {"url": spec.locator, "dest": str(src_image)}))
        if opts.on_log is not None:
            opts.on_log(Stage.SETUP.label, None, f"fetched {spec.locator}")
    if source_mod.is_archive(spec.name):
        src_image = source_mod.extract_image(
            src_image, source_mod.cache_entry(cache_dir, spec), name_hint=spec.name)
    if plan.pump_bytes > 0 or emulators is not None:
        try:
            with open(src_image, "rb") as image:
                table = image_mod.read_partition_table(image)
                # the open file's length, not st_size, which is 0 for a block device
                image_bytes = image.seek(0, os.SEEK_END)
        except OSError as exc:
            raise ExecutionFailure(
                f"cannot read the partition table of {src_image}: {exc}") from exc
        image_mod.check_partition(plan, table, image_bytes)
    if emulators is not None:
        fstab_text = mounts_mod.read_guest_fstab(src_image, table, plan.partition_index)
    setup += source_mod.materialize_destination(plan, src_image)

    prepare: list[Action | Command] = [*plan.staged[Stage.PREPARE]]
    if plan.pump_bytes > 0:
        grow, table = image_mod.pump(plan, table)
        prepare += grow

    chroot: list[Action | Command] = []
    if emulators is not None:
        base = mounts_mod.base_mount_actions(plan, table, emulators=emulators)
        mounted = {a.payload["target"] for a in base}
        chroot += base + mounts_mod.fstab_mount_actions(plan, table, fstab_text,
                                                        already_mounted=mounted)
    host_path = env.get("PATH", "").split(os.pathsep)
    extensions: list[str] = []
    # joined once per PATH line: every RUN until the next one shares the text
    guest_path = ":".join(compose_guest_path(extensions, host_path))
    file = here = None
    for command in chroot_commands:
        if command.kind is _PATH:
            extensions.append(command.args[0])
            guest_path = ":".join(compose_guest_path(extensions, host_path))
            chroot.append(command)
        else:
            if command.file is not file:  # one Pifile's commands share one Path
                file, here = command.file, str(command.file.parent)
            chroot.append(command_action(command, guest_path, here))
    return {Stage.SETUP: setup, Stage.PREPARE: prepare, Stage.CHROOT: chroot}


def execute(plan: ExecutionPlan, backend: Executor,
            options: RunOptions | None = None) -> BuildReport:
    """Plan the whole build in setup, before ``TO`` is written, then perform it.

    Each stage prints its ``begin`` line and each directive its stage line.
    The first failing action aborts the rest but never the teardown, which
    undoes the chroot setup actions applied, last first; the raised error
    carries its stage and Pifile line.  The report holds the stage durations,
    setup's with the planning, and the backend's digest of ``TO``.
    """
    opts = options or RunOptions()
    log = opts.on_log or (lambda stage, command, message: None)
    durations: dict[str, float] = {}
    label = Stage.SETUP.label
    applied: list[Action] = []
    try:
        started = time.monotonic()
        log(label, None, "begin")
        stages = plan_actions(plan, opts, check_host=backend.check_host)
        for stage, steps in stages.items():
            if stage is not Stage.SETUP:  # setup's line came before its reads
                started, label = time.monotonic(), stage.label
                log(label, None, "begin")
            for step in steps:
                origin = step if type(step) is Command else step.origin
                if origin is not None and opts.on_log is not None:  # rendered only to be read
                    log(label, origin, render_first_line(origin))
                if origin is step:
                    continue  # PUMP and PATH perform nothing
                status = backend.emit(step)
                if step.kind.undo is not None:
                    applied.append(step)
                if status != 0:
                    raise ExecutionFailure(
                        f"{origin.kind.value} command failed with status {status}: "
                        f"{origin.args[0]}", origin=origin)
            durations[label] = time.monotonic() - started
    except ImgforgeError as exc:
        if exc.stage is None:
            exc.stage = label
        if exc.origin is not None:
            log(label, exc.origin, f"failed: {exc.args[0]}")
        raise
    finally:
        teardown_failures: list[ImgforgeError] = []
        for action in mounts_mod.teardown_actions(applied):
            try:
                backend.emit(action)
            except ImgforgeError as exc:
                logger.warning("teardown: %s", exc.args[0])
                teardown_failures.append(exc)
    if teardown_failures:  # reached only when no other error is propagating
        teardown_failures[0].stage = Stage.CHROOT.label
        raise teardown_failures[0]
    return BuildReport(stage_durations=durations,
                       image_digest=backend.digest(Path(plan.destination.path)))


def _sha256_file(path: Path) -> str:
    """SHA-256 of every apparent byte of ``path``; holes are hashed, never read."""
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        for _, chunk in source_mod.iter_chunks(fh, fill_holes=True):
            digest.update(chunk)
    return digest.hexdigest()
