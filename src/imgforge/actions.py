"""The effect vocabulary: every externally observable step of a build.

An :class:`Action` is a kind plus a complete, serializable payload: a
backend needs nothing beyond the payload to perform it.  This module is a
leaf and imports nothing from the package at run time, so every layer that
plans actions can import it directly.

The recorded log is line-oriented and stable::

    ORDINAL<TAB>KIND<TAB>key=value<TAB>key=value...

with backslash, tab, and newline escaped inside values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .pifile import Command


class ActionKind(Enum):
    FETCH = "fetch"
    COPY_IMAGE = "copy-image"
    DEVICE_WRITE = "device-write"
    GROW_FILE = "grow-file"
    TABLE_WRITE = "table-write"
    FS_RESIZE = "fs-resize"
    LOOP_ATTACH = "loop-attach"  # never emitted; kept while the benchmark names it
    MOUNT_PARTITION = "mount-partition"
    BIND_MOUNT = "bind-mount"
    COPY_EMULATOR = "copy-emulator"
    UNMOUNT = "unmount"
    REMOVE_EMULATOR = "remove-emulator"
    LOOP_DETACH = "loop-detach"  # never emitted; kept while the benchmark names it
    HOST_EXEC = "host-exec"
    GUEST_EXEC = "guest-exec"
    COPY_IN = "copy-in"
    __hash__ = object.__hash__  # C-level; Enum's own is a Python call on every dict lookup

    @property
    def undo(self) -> ActionKind | None:
        """The kind that reverses this chroot setup kind; None for any other kind."""
        return _UNDO.get(self)


_UNDO = {
    ActionKind.MOUNT_PARTITION: ActionKind.UNMOUNT,
    ActionKind.BIND_MOUNT: ActionKind.UNMOUNT,
    ActionKind.COPY_EMULATOR: ActionKind.REMOVE_EMULATOR,
}


@dataclass(slots=True)
class Action:
    """One externally observable effect; ``ordinal`` is assigned when it is emitted."""

    kind: ActionKind
    payload: dict[str, str]
    # the RUN, HOST or INSTALL performed, for its stage line and error; never logged or compared
    origin: Command | None = field(default=None, compare=False)
    ordinal: int = -1


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def render_action(action: Action) -> str:
    fields = "".join([f"\t{key}={value}" if "\\" not in value and "\t" not in value
                      and "\n" not in value else f"\t{key}={_escape(value)}"
                      for key, value in action.payload.items()])
    return f"{action.ordinal}\t{action.kind._name_}{fields}"


def serialize_actions(actions: Sequence[Action]) -> str:
    return "".join([f"{render_action(a)}\n" for a in actions])
