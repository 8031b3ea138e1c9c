"""Starting a program: the one way imgforge runs a child process.

:func:`started` wraps ``Popen``.  A program that cannot be started is an
:class:`~imgforge.errors.EnvironmentProblem`; once the child exists, any
exception kills it, and leaving the block closes its pipes and reaps it.
:func:`interrupt` is the SIGTERM and SIGHUP handler that ``cli.main``
installs.  While ``Popen`` runs, it only records the signal, which is then
raised inside the kill guard, so no signal leaves a child running that the
build no longer knows of.  No signal is blocked instead: a child inherits
the mask, and a ``timeout`` that a RUN starts could not stop its program.
"""

from __future__ import annotations

import signal
import subprocess
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from .errors import EnvironmentProblem, ExecutionFailure

_deferred: list[int] | None = None  # signals that came while a child started; None: none is


def interrupt(signum: int, frame: object) -> None:
    """Turn SIGTERM or SIGHUP into an ExecutionFailure, or record it while a child starts."""
    if _deferred is None:
        raise ExecutionFailure(f"interrupted by {signal.Signals(signum).name}")
    _deferred.append(signum)


def _resume() -> None:
    """Stop deferring signals, and raise the failure of the first one that came."""
    global _deferred
    deferred, _deferred = _deferred, None
    if deferred:
        interrupt(deferred[0], None)


@contextmanager
def started(argv: Sequence[str], **popen_kwargs: Any) -> Iterator[subprocess.Popen]:
    """``Popen(argv, **popen_kwargs)``, killed on any exception and reaped on every
    way out of the block."""
    global _deferred
    _deferred = []
    try:
        proc = subprocess.Popen(argv, **popen_kwargs)  # looked up now, so a spy sees it
    except BaseException as exc:
        _resume()  # a signal that came meanwhile is the failure reported
        if isinstance(exc, OSError):
            raise EnvironmentProblem(f"cannot execute {argv[0]}: {exc}") from exc
        raise
    with proc:
        try:
            _resume()
            yield proc
        except BaseException:
            proc.kill()
            raise
