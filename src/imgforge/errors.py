"""Exception hierarchy.

Three base classes partition all failures by the exit code the CLI maps
them to: PifileError (static problems in the Pifile or plan, exit 1),
ExecutionFailure (something went wrong while applying a plan, exit 2),
and EnvironmentProblem (the host cannot do what was asked, exit 3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pifile import SourceLine


class ImgforgeError(Exception):
    """Base class; carries optional Pifile origin and pipeline stage context."""

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


class ExecutionFailure(ImgforgeError):
    """Dynamic failure while executing a plan (exit code 2)."""


class EnvironmentProblem(ImgforgeError):
    """The host environment cannot support the requested operation (exit code 3)."""


# --- Pifile parsing ---------------------------------------------------------

class UnknownCommand(PifileError):
    pass


class MalformedArgs(PifileError):
    pass


class UnterminatedHeredoc(PifileError):
    pass


class IncludeCycle(PifileError):
    pass


class IncludeNotFound(PifileError):
    pass


# --- planning ---------------------------------------------------------------

class MissingSource(PifileError):
    pass


class ConflictingSource(PifileError):
    pass


class InvalidPartitionIndex(PifileError):
    pass


class MalformedSize(PifileError):
    pass


class InvalidMode(PifileError):
    pass


class SourceNotFound(PifileError):
    pass


# --- image surgery ----------------------------------------------------------

class IoFailure(ExecutionFailure):
    pass


class ShortImage(ExecutionFailure):
    pass


class MissingBootSignature(ExecutionFailure):
    pass


class InvalidTable(ExecutionFailure):
    pass


class UnsupportedDiskLayout(ExecutionFailure):
    """GPT protective MBR or an extended/logical partition where a primary is required."""


class IsBlockDevice(ExecutionFailure):
    pass


class PartitionNotLast(ExecutionFailure):
    pass


class EmptyPartitionSlot(ExecutionFailure):
    pass


# --- source resolution ------------------------------------------------------

class FetchFailed(ExecutionFailure):
    pass


class UnsupportedArchive(ExecutionFailure):
    pass


class MultipleImagesInArchive(ExecutionFailure):
    pass


class CorruptArchive(ExecutionFailure):
    pass


class DestinationIsDirectory(ExecutionFailure):
    pass


# --- mounts and execution ---------------------------------------------------

class SourceMissing(ExecutionFailure):
    """INSTALL source absent at execution time."""


class CommandFailed(ExecutionFailure):
    def __init__(self, message: str, *, status: int, origin: "SourceLine | None" = None):
        super().__init__(message, origin=origin)
        self.status = status


class CacheUnwritable(EnvironmentProblem):
    pass


class ChrootUnavailable(EnvironmentProblem):
    pass


class ShellUnavailable(EnvironmentProblem):
    pass


class PrivilegeRequired(EnvironmentProblem):
    pass
