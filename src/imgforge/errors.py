"""Exception hierarchy: one base class, then one class per exit code.

Three classes under ImgforgeError partition all failures by the exit code the
CLI maps them to, which each names as ``exit_code``: PifileError (static problems
in the Pifile or plan, exit 1), ExecutionFailure (something went wrong while
applying a plan, a failed RUN or HOST, SIGTERM and SIGHUP among them, exit 2),
and EnvironmentProblem (the host cannot do what was asked, exit 3).  The message
tells one failure from another.  An error's ``origin``, when it has one, is the
:class:`~imgforge.pifile.Command` of the directive it is about, which carries
that directive's file and line.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pifile import Command


class ImgforgeError(Exception):
    """Base class; carries the optional directive it is about and the pipeline stage."""

    exit_code = 2

    def __init__(self, message: str, *, origin: "Command | None" = None):
        super().__init__(message)
        self.origin = origin
        self.stage: str | None = None

    def __str__(self) -> str:
        base = super().__str__()
        if (origin := self.origin) is not None:
            return f"{origin.file}:{origin.line_no}: {base}"
        return base


class PifileError(ImgforgeError):
    """Static error in the Pifile text or the derived plan (exit code 1)."""

    exit_code = 1


class ExecutionFailure(ImgforgeError):
    """Dynamic failure while executing a plan (exit code 2)."""


class EnvironmentProblem(ImgforgeError):
    """The host environment cannot support the requested operation (exit code 3)."""

    exit_code = 3

