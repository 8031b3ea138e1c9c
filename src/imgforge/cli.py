"""Command-line entry point.

Usage::

    imgforge [options] <Pifile>

The pipeline logs to stdout, one line per event, prefixed with the active
stage and the originating Pifile line::

    [setup] begin
    [chroot] example.Pifile:8 RUN raspi-config nonint do_serial 0

A build ends with one ``[done]`` line: the published image and its
SHA-256, or for a dry run the number of actions.  Errors go to stderr with
stage and file:line context, and the exit code is the ``exit_code`` of the
error's class: 0 success, 1 a :class:`~imgforge.errors.PifileError` (static
Pifile/plan errors) or a usage error, 2 an
:class:`~imgforge.errors.ExecutionFailure` (SIGTERM and SIGHUP among them)
or an ``OSError`` that no stage turned into one, 3 an
:class:`~imgforge.errors.EnvironmentProblem` (missing privileges, unusable
cache, no chroot).
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys
import threading
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .errors import CommandFailed, ExecutionFailure, ImgforgeError, PifileError
from .executor import DryRunExecutor, Executor, LocalExecutor, RunOptions, execute
from .pifile import SourceLine, parse_pifile
from .plan import build_plan, validate_plan
from .source import TargetKind

logger = logging.getLogger(__name__)

def _nonempty(value: str) -> str:
    if not value:
        raise argparse.ArgumentTypeError("must not be empty")
    return value


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imgforge",
        description="Apply a Pifile to a single-board-computer OS image.",
        epilog=(
            "Sizes use binary multipliers: PUMP 100M grows by 100 MiB. "
            "Exit codes: 0 ok, 1 Pifile/plan error, 2 execution failure, "
            "3 environment problem."
        ),
    )
    parser.add_argument("pifile", help="the Pifile to execute")
    parser.add_argument("--dry-run", metavar="FILE", type=_nonempty,
                        help="perform nothing; write the action log to FILE")
    parser.add_argument("--cache", metavar="DIR", type=_nonempty,
                        help="download cache directory (default: $PIMOD_CACHE or "
                             ".pimod-cache beside the Pifile)")
    parser.add_argument("--env", action="append", default=[], metavar="NAME=VALUE",
                        help="set a variable for Pifile substitution (repeatable)")
    parser.add_argument("--refresh", action="store_true",
                        help="re-download cached sources")
    parser.add_argument("--offline", action="store_true",
                        help="fail instead of downloading on a cache miss")
    parser.add_argument("--emulator", action="append", metavar="PATH",
                        help="static emulator binary to copy into the guest "
                             "(default: qemu-*-static found on PATH)")
    parser.add_argument("--inplace-device", action="store_true",
                        help="confirm that writing to a block device is intended")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    parser.add_argument("-q", "--quiet", action="count", default=0)
    return parser


def _parse_env_overrides(pairs: Sequence[str]) -> dict[str, str]:
    overrides = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise PifileError(f"--env expects NAME=VALUE, got {pair!r}")
        overrides[name] = value
    return overrides


def _interrupt(signum: int, frame: object) -> None:
    raise ExecutionFailure(f"interrupted by {signal.Signals(signum).name}")


def main(argv: Sequence[str] | None = None, env: Mapping[str, str] | None = None, *,
         executor_factory: Callable[[argparse.Namespace], Executor] | None = None) -> int:
    """Parse, plan, execute; returns the process exit code.

    ``executor_factory`` overrides backend construction, which is how tests
    exercise failure paths without touching the system.  It receives the
    parsed ``argparse.Namespace`` as it is: ``dry_run`` is the log path for
    a dry run and None for a real build.  Called on the main thread, it
    turns SIGTERM and SIGHUP into an :class:`ExecutionFailure` until it
    returns, so an interrupted build still tears down, and exits 2.
    """
    previous = ({sig: signal.signal(sig, _interrupt) for sig in (signal.SIGTERM, signal.SIGHUP)}
                if threading.current_thread() is threading.main_thread() else {})
    try:
        return _main(argv, env, executor_factory)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler or signal.SIG_DFL)  # None: not set from Python


def _main(argv: Sequence[str] | None, env: Mapping[str, str] | None,
          executor_factory: Callable[[argparse.Namespace], Executor] | None) -> int:
    parser = _build_arg_parser()
    try:
        ns = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else PifileError.exit_code

    environment = dict(os.environ if env is None else env)
    dry_run = Path(ns.dry_run) if ns.dry_run is not None else None
    try:
        environment.update(_parse_env_overrides(ns.env))
        _configure_logging(ns.verbose - ns.quiet)
        if dry_run is not None and not dry_run.parent.is_dir():
            raise PifileError(f"directory of the dry-run log does not exist: {dry_run}")

        pifile = parse_pifile(Path(ns.pifile), environment)
        plan = build_plan(pifile)
        for warning in validate_plan(plan):
            print(f"warning: {warning}", file=sys.stderr)

        writes_device = plan.destination.kind is TargetKind.BLOCK_DEVICE
        if writes_device and not ns.inplace_device:
            raise PifileError(
                f"destination {plan.destination.path} is a block device; "
                "pass --inplace-device to confirm overwriting it"
            )

        if executor_factory is not None:
            backend = executor_factory(ns)
        elif dry_run is not None:
            backend = DryRunExecutor()
        else:
            backend = LocalExecutor(on_output=lambda line: print(f"  {line}"))

        log = _stdout_logger()
        options = RunOptions(
            env=environment,
            cache_dir=ns.cache,
            refresh=ns.refresh,
            offline=ns.offline,
            emulators=ns.emulator,
            on_log=log,
        )
        try:
            report = execute(plan, backend, options)
        finally:
            if dry_run is not None:  # a write failure surfaces as the OSError below
                dry_run.write_text(backend.render_log())
        if report.image_digest is not None:
            log("done", None, f"{plan.destination.path} sha256={report.image_digest}")
        else:
            log("done", None, f"{len(backend.actions)} actions")
        return 0
    except ImgforgeError as exc:
        status = f" (exit status {exc.status})" if isinstance(exc, CommandFailed) else ""
        print(f"[{exc.stage or 'error'}] {exc}{status}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"[error] {exc}", file=sys.stderr)
        return ExecutionFailure.exit_code


def _stdout_logger() -> Callable[[str, SourceLine | None, str], None]:
    """A stage-line printer for one build; it reads a Pifile's name once per run of its lines."""
    file = name = None

    def log(stage: str, origin: SourceLine | None, message: str) -> None:
        nonlocal file, name
        if origin is None:
            sys.stdout.write(f"[{stage}] {message}\n")
            return
        if origin.file is not file:  # held, so it is never another Path at a reused address
            file, name = origin.file, origin.file.name
        sys.stdout.write(f"[{stage}] {name}:{origin.line_no} {message}\n")
    return log


def _configure_logging(verbosity: int) -> None:
    level = logging.WARNING
    if verbosity >= 2:
        level = logging.DEBUG
    elif verbosity == 1:
        level = logging.INFO
    elif verbosity < 0:
        level = logging.ERROR
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s: %(message)s")


def entrypoint() -> None:
    sys.exit(main())
