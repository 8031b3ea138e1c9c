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

The pipeline in :func:`execute` is the same for both.  Each RUN, HOST and
INSTALL command becomes its action in :func:`command_action`, and a
nonzero status from a RUN or HOST aborts the build.  The backends differ
only in ``performs_effects``: a dry run neither checks the host (emulator
files, root, binfmt_misc) nor hashes the output.  Both fetch and unpack the
source into the cache, whose layout :mod:`~imgforge.source` owns, so both
copy the same file to the destination, and both read the guest's
/etc/fstab from that file in setup, so both plan the same mounts.

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

from . import image as image_mod
from . import mounts as mounts_mod
from . import source as source_mod
# the vocabulary and its log format stay importable from here
from .actions import Action, ActionKind, render_action, serialize_actions  # noqa: F401
from .errors import CommandFailed, EnvironmentProblem, ExecutionFailure, ImgforgeError
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
        if body is not None:  # closed once the command holds its own descriptor
            body.write(stdin_text)
            body.seek(0)
        try:
            proc = subprocess.Popen(
                list(argv),
                stdin=subprocess.DEVNULL if body is None else body,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                cwd=cwd,
                env=dict(env) if env is not None else None,
                text=True, encoding="utf-8", errors="replace",
            )
        except FileNotFoundError as exc:
            raise EnvironmentProblem(f"cannot execute {argv[0]}: {exc}") from exc
    with proc:  # closes the pipe on every way out
        collected: list[str] = []
        sink = on_output or collected.append
        assert proc.stdout is not None
        try:
            for line in proc.stdout:
                sink(line.rstrip("\n"))
            status = proc.wait()
        except BaseException:
            proc.kill()
            raise
    return status, "\n".join(collected)


class Executor:
    """Base backend: assigns ordinals and keeps the action log; performs nothing."""

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
        return 0

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
    :func:`execute` checks in setup.  Injecting a runner replaces that
    boundary wholesale, the root check included.

    ``root_dir`` resolves ``<root>``.  A mount at ``<root>`` makes it, a
    temporary directory, and its unmount removes it again unless the mount
    is still busy.
    """

    performs_effects = True

    def __init__(self, runner: Runner | None = None,
                 on_output: Callable[[str], None] | None = None) -> None:
        super().__init__()
        self.runner: Runner = runner if runner is not None else run_command
        self.on_output = on_output
        self.root_dir: str | None = None

    def _perform(self, action: Action) -> int:
        payload = action.payload
        match action.kind:
            case ActionKind.FETCH:
                pass  # the pipeline fetches before emitting
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


def command_action(command: Command, guest_path: str, here: str | None = None) -> Action:
    """The action a RUN, HOST or INSTALL command becomes.

    RUN executes in the guest with ``guest_path``, the composed PATH text
    (entries joined with ":"), as its PATH, HOST executes in the Pifile's
    directory ``here`` (by default its file's parent, as text), and a relative
    INSTALL source is anchored there.  A here-document body is its standard input.
    """
    here = str(command.file.parent) if here is None else here
    if command.kind is _RUN:
        return Action(_GUEST_EXEC, {
            "command": command.args[0],
            "root": mounts_mod.ROOT_TOKEN,
            "path": guest_path,
            "stdin": command.heredoc or "",
        })
    if command.kind is _HOST:
        return Action(_HOST_EXEC, {
            "command": command.args[0],
            "cwd": here,
            "stdin": command.heredoc or "",
        })
    return Action(_COPY_IN, {
        "src": pathlib_join(here, command.args[-2]),
        "dst": command.args[-1],
        "mode": command.args[0] if len(command.args) == 3 else "",
        "root": mounts_mod.ROOT_TOKEN,
    })


@dataclass
class RunOptions:
    """Knobs the pipeline needs beyond the plan itself."""

    env: Mapping[str, str] | None = None  # host environment; None means os.environ
    cache_dir: str | Path | None = None
    refresh: bool = False
    offline: bool = False
    emulators: Sequence[str] | None = None
    fetcher: source_mod.Fetcher | None = None
    on_log: Callable[[str, Command | None, str], None] | None = None


@dataclass
class BuildReport:
    stage_durations: dict[str, float]
    image_digest: str | None


def execute(plan: ExecutionPlan, backend: Executor,
            options: RunOptions | None = None) -> BuildReport:
    """Run the plan: setup, prepare, then the chroot stage, with guaranteed teardown.

    The first failing action aborts the remaining commands but never the
    teardown; the raised error carries the stage and Pifile line it came
    from.  On success the report holds per-stage durations and the SHA-256
    of the final image (real backends only).  Emulators are resolved only
    when the guest is entered: ``opts.emulators``, else the qemu-*-static
    binaries on the build environment's PATH.  A real build that grows the
    image or enters the guest first checks the host, before anything is
    fetched or written: it refuses an emulator that is not a file and, with the
    default runner, a process that is not root, and it warns once when
    binfmt_misc is not mounted and the guest will be entered.  Setup then
    unpacks an archive source into the cache in both backends, reads the
    image's partition table and length once, if PUMP or the guest needs
    them, and :func:`~imgforge.image.check_partition` refuses a plan
    it cannot serve before the destination is written, in a dry run too.
    When the guest is entered, setup also reads its /etc/fstab from the
    source, so the chroot stage plans the same mounts in both backends.
    """
    opts = options or RunOptions()
    env = dict(opts.env) if opts.env is not None else dict(os.environ)
    log = opts.on_log or (lambda stage, command, message: None)
    chroot_commands = plan.staged[Stage.CHROOT]
    # HOST and PATH never touch the guest filesystem; mount only when
    # something will actually run or copy inside the image
    needs_guest = any(c.kind in (CommandKind.RUN, CommandKind.INSTALL)
                      for c in chroot_commands)
    emulators: list[str] = []
    if needs_guest:  # nothing is copied into a guest that is never entered
        emulators = (list(opts.emulators) if opts.emulators is not None
                     else mounts_mod.discover_emulators(env.get("PATH", "")))
    durations: dict[str, float] = {}
    stage_label = Stage.SETUP.label

    applied_mounts: list[Action] = []
    try:
        # --- setup: check the host, fetch, unpack, read the table, materialize destination
        started = time.monotonic()
        log(Stage.SETUP.label, None, "begin")
        if backend.performs_effects and (needs_guest or plan.pump_bytes > 0):
            missing = [e for e in emulators if not os.path.isfile(e)]
            if missing:
                raise EnvironmentProblem(f"emulator is not a file: {', '.join(missing)}")
            # an injected runner owns the privilege boundary; only gate the real one
            if getattr(backend, "runner", None) is run_command and os.geteuid() != 0:
                raise EnvironmentProblem("PUMP, RUN and INSTALL require root; re-run with sudo")
            if needs_guest and not os.path.isdir(BINFMT_MISC):
                logger.warning(
                    "binfmt_misc is not mounted; foreign-architecture guest binaries will not "
                    "run (mount binfmt_misc and register qemu-user-static handlers)")
        spec = plan.source
        cache_dir = source_mod.resolve_cache_dir(opts.cache_dir, env, plan.pifile_path)
        src_image = Path(spec.locator)
        if spec.kind is source_mod.SourceKind.URL:
            src_image = source_mod.fetch_to_cache(spec.locator, cache_dir, opts.fetcher,
                                                  refresh=opts.refresh, offline=opts.offline)
            backend.emit(Action(ActionKind.FETCH, {"url": spec.locator, "dest": str(src_image)}))
            log(Stage.SETUP.label, None, f"fetched {spec.locator}")
        if source_mod.is_archive(spec.name):
            src_image = source_mod.extract_image(
                src_image, source_mod.cache_entry(cache_dir, spec), name_hint=spec.name)
        if plan.pump_bytes > 0 or needs_guest:
            try:
                with open(src_image, "rb") as image:
                    table = image_mod.read_partition_table(image)
                    # the open file's length, not st_size, which is 0 for a block device
                    image_bytes = image.seek(0, os.SEEK_END)
            except OSError as exc:
                raise ExecutionFailure(
                    f"cannot read the partition table of {src_image}: {exc}") from exc
            image_mod.check_partition(plan, table, image_bytes)
        if needs_guest:
            fstab_text = mounts_mod.read_guest_fstab(src_image, table, plan.partition_index)
        dest = source_mod.materialize_destination(plan, backend, resolved_source=src_image)
        durations[Stage.SETUP.label] = time.monotonic() - started

        # --- prepare: pump ---------------------------------------------------
        started = time.monotonic()
        stage_label = Stage.PREPARE.label
        log(stage_label, None, "begin")
        if plan.pump_bytes > 0:
            for command in plan.staged[Stage.PREPARE]:
                log(stage_label, command, render_first_line(command))
            table = image_mod.pump(plan, backend, table)
        durations[stage_label] = time.monotonic() - started

        # --- chroot: mounts, commands, installs ------------------------------
        started = time.monotonic()
        stage_label = Stage.CHROOT.label
        log(stage_label, None, "begin")
        if needs_guest:
            base = mounts_mod.base_mount_actions(plan, table, emulators=emulators)
            mounted = {a.payload["target"] for a in base}
            for action in base + mounts_mod.fstab_mount_actions(plan, table, fstab_text,
                                                                already_mounted=mounted):
                backend.emit(action)
                applied_mounts.append(action)

        host_path = env.get("PATH", "").split(os.pathsep)
        extensions: list[str] = []
        # joined once per PATH line: every RUN until the next one shares the text
        guest_path = ":".join(compose_guest_path(extensions, host_path))
        file = here = None
        for command in chroot_commands:
            if opts.on_log is not None:  # a stage line is rendered only to be read
                log(stage_label, command, render_first_line(command))
            if command.kind is _PATH:
                extensions.append(command.args[0])
                guest_path = ":".join(compose_guest_path(extensions, host_path))
                continue
            if command.file is not file:  # one Pifile's commands share one Path
                file, here = command.file, str(command.file.parent)
            status = backend.emit(command_action(command, guest_path, here))
            if status != 0:
                raise CommandFailed(
                    f"{command.kind.value} command failed with status {status}: "
                    f"{command.args[0]}", status=status, origin=command)
        durations[stage_label] = time.monotonic() - started
    except ImgforgeError as exc:
        if exc.stage is None:
            exc.stage = stage_label
        if exc.origin is not None:
            log(stage_label, exc.origin, f"failed: {exc.args[0]}")
        raise
    finally:
        teardown_failures: list[ImgforgeError] = []
        for action in mounts_mod.teardown_actions(applied_mounts):
            try:
                backend.emit(action)
            except ImgforgeError as exc:
                logger.warning("teardown: %s", exc.args[0])
                teardown_failures.append(exc)
    if teardown_failures:  # reached only when no other error is propagating
        teardown_failures[0].stage = Stage.CHROOT.label
        raise teardown_failures[0]

    digest = None
    if backend.performs_effects and dest.is_file():  # a device destination is no file
        digest = _sha256_file(dest)
    return BuildReport(
        stage_durations=durations,
        image_digest=digest,
    )


def _sha256_file(path: Path) -> str:
    """SHA-256 of every apparent byte of ``path``; holes are hashed, never read."""
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        for _, chunk in source_mod.iter_chunks(fh, fill_holes=True):
            digest.update(chunk)
    return digest.hexdigest()
