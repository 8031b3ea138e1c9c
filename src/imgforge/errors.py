"""Exception hierarchy: one class per exit code.

Three base classes partition all failures by the exit code the CLI maps
them to, which each names as ``exit_code``: PifileError (static problems
in the Pifile or plan, exit 1), ExecutionFailure (something went wrong
while applying a plan, SIGTERM and SIGHUP among them, exit 2), and
EnvironmentProblem (the host cannot do what was asked, exit 3).  The
message tells one failure from another; CommandFailed also carries the
failed command's status.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pifile import SourceLine


class ImgforgeError(Exception):
    """Base class; carries optional Pifile origin and pipeline stage context."""

    exit_code = 2

    def __init__(self, message: str, *, origin: "SourceLine | None" = None):
        super().__init__(message)
        self.origin = origin
        self.stage: str | None = None

    def __str__(self) -> str:
        base = super().__str__()
        if self.origin is not None:
            return f"{self.origin.file}:{self.origin.line_no}: {base}"
        return base


class PifileError(ImgforgeError):
    """Static error in the Pifile text or the derived plan (exit code 1)."""

    exit_code = 1


class ExecutionFailure(ImgforgeError):
    """Dynamic failure while executing a plan (exit code 2)."""


class EnvironmentProblem(ImgforgeError):
    """The host environment cannot support the requested operation (exit code 3)."""

    exit_code = 3


class CommandFailed(ExecutionFailure):
    """A RUN or HOST command exited with a nonzero ``status``."""

    def __init__(self, message: str, *, status: int, origin: "SourceLine | None" = None):
        super().__init__(message, origin=origin)
        self.status = status
