"""Stage assignment and plan construction.

Commands execute in three fixed stages regardless of where they appear in
the file: *setup* (FROM/TO/INPLACE) resolves source and destination,
*prepare* (PUMP) grows the image, and *chroot* (RUN/HOST/INSTALL/PATH)
modifies its contents.  Within a stage, textual order is preserved; HOST
is interleaved with RUN/INSTALL so that a cross-compile step can precede
the INSTALL of its output.
"""

from __future__ import annotations

import logging
import os
import posixpath
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Callable

from .errors import PifileError
from .image import parse_size
from .pifile import Command, CommandKind, Pifile, pathlib_join
from .source import (
    SourceKind,
    SourceSpec,
    TargetKind,
    TargetSpec,
    classify_source,
    default_probe,
    is_archive,
    is_url,
    same_file,
)

logger = logging.getLogger(__name__)

DEFAULT_PARTITION_INDEX = 2


class Stage(IntEnum):
    SETUP = 1
    PREPARE = 2
    CHROOT = 3

    @property
    def label(self) -> str:
        return self.name.lower()


_STAGE_BY_KIND: dict[CommandKind, Stage] = {
    CommandKind.FROM: Stage.SETUP,
    CommandKind.TO: Stage.SETUP,
    CommandKind.INPLACE: Stage.SETUP,
    CommandKind.PUMP: Stage.PREPARE,
    CommandKind.RUN: Stage.CHROOT,
    CommandKind.HOST: Stage.CHROOT,
    CommandKind.INSTALL: Stage.CHROOT,
    CommandKind.PATH: Stage.CHROOT,
}


@dataclass
class ExecutionPlan:
    source: SourceSpec
    destination: TargetSpec
    pump_bytes: int
    partition_index: int
    staged: dict[Stage, list[Command]]
    pifile_path: Path


def assign_stages(pifile: Pifile) -> dict[Stage, list[Command]]:
    """Partition commands over the three stages, keeping textual order inside each."""
    staged: dict[Stage, list[Command]] = {stage: [] for stage in Stage}
    for command in pifile.commands:
        staged[_STAGE_BY_KIND[command.kind]].append(command)
    return staged


def build_plan(pifile: Pifile,
               probe: Callable[[str], SourceKind | None] | None = None) -> ExecutionPlan:
    """Resolve source, destination, growth, and PATH semantics into a plan.

    Exactly one resolution root is required: FROM (optionally paired with
    TO) or INPLACE, and ``INPLACE <image>`` plans as ``FROM <image>`` with
    ``TO <image>``.  A missing TO defaults the destination to
    ``<pifile stem>.img`` next to the Pifile, and a TO that is a packed FROM
    file, by path or through a link, is refused before the archive is
    overwritten.  Relative source and destination paths are anchored at
    the Pifile's directory, and a TO whose directory does not exist is
    refused, as is a FROM partition index outside the 4 MBR slots.  INSTALL
    modes and destinations are checked here, so a bad mode or a destination
    with a ``..`` component stops the build before any copy, and so is a
    PUMP onto a block device, which cannot grow.  ``probe`` replaces the
    filesystem probe that classifies paths.
    """
    probe = probe or default_probe
    staged = assign_stages(pifile)
    setup = staged[Stage.SETUP]
    froms = [c for c in setup if c.kind is CommandKind.FROM]
    inplaces = [c for c in setup if c.kind is CommandKind.INPLACE]
    tos = [c for c in setup if c.kind is CommandKind.TO]

    if not froms and not inplaces:
        raise PifileError("Pifile declares neither FROM nor INPLACE")
    if froms and inplaces:
        raise PifileError("FROM and INPLACE are mutually exclusive", origin=inplaces[0])
    if len(froms) > 1:
        raise PifileError("multiple FROM directives", origin=froms[1])
    if len(inplaces) > 1:
        raise PifileError("multiple INPLACE directives", origin=inplaces[1])
    if tos and inplaces:
        raise PifileError("TO cannot be combined with INPLACE", origin=tos[0])

    base_dir = pifile.source_path.parent

    root = (froms or inplaces)[0]
    raw = root.args[0]
    if inplaces and is_url(raw):
        raise PifileError("INPLACE cannot edit a URL; use FROM <url> with TO", origin=root)
    if inplaces and is_archive(raw):
        raise PifileError("INPLACE cannot edit a packed image; use FROM <archive> with TO",
                          origin=root)
    partition_index = _partition_index(root)  # INPLACE takes none: the default
    locator = raw if is_url(raw) else _anchor(raw, base_dir)
    source = SourceSpec(kind=classify_source(locator, probe), locator=locator)
    if inplaces:
        dest_path = locator
    elif tos:
        if len(tos) > 1:
            logger.warning("multiple TO directives; using the last one (%s:%d)",
                           tos[-1].file, tos[-1].line_no)
        dest_path = _anchor(tos[-1].args[0], base_dir)
        if not os.path.isdir(os.path.dirname(dest_path) or "."):
            raise PifileError(f"the directory of TO {tos[-1].args[0]} does not exist",
                              origin=tos[-1])
        if not is_url(raw) and is_archive(raw) and same_file(locator, dest_path):
            raise PifileError(f"TO {tos[-1].args[0]} would overwrite the packed FROM image",
                              origin=tos[-1])
    else:
        dest_path = str(base_dir / f"{pifile.source_path.stem}.img")
    target_kind = (TargetKind.BLOCK_DEVICE if probe(dest_path) is SourceKind.BLOCK_DEVICE
                   else TargetKind.LOCAL_FILE)
    destination = TargetSpec(kind=target_kind, path=dest_path)

    pump_bytes = sum(parse_size(c.args[0]) for c in staged[Stage.PREPARE])
    if pump_bytes > 0 and destination.kind is TargetKind.BLOCK_DEVICE:
        raise PifileError(f"PUMP cannot grow the fixed-size device {destination.path}",
                          origin=staged[Stage.PREPARE][0])
    install = CommandKind.INSTALL  # a member read through the class is a slow lookup on 3.11
    for command in (c for c in staged[Stage.CHROOT] if c.kind is install):
        if ".." in command.args[-1].split("/"):
            raise PifileError(f"INSTALL destination {command.args[-1]} has a '..' component",
                              origin=command)
        if len(command.args) == 3:
            mode = command.args[0]
            if not (mode.isdigit() and all(c in "01234567" for c in mode) and len(mode) <= 4):
                raise PifileError(f"INSTALL mode must be octal 0..7777, got {mode!r}",
                                  origin=command)

    return ExecutionPlan(
        source=source,
        destination=destination,
        pump_bytes=pump_bytes,
        partition_index=partition_index,
        staged=staged,
        pifile_path=pifile.source_path,
    )


def _anchor(path_text: str, base_dir: Path) -> str:
    """Resolve a Pifile-relative path against the Pifile's directory."""
    p = Path(path_text)
    if p.is_absolute():
        return path_text
    return str(base_dir / p)


def _partition_index(from_cmd: Command) -> int:
    if len(from_cmd.args) < 2:
        return DEFAULT_PARTITION_INDEX
    raw = from_cmd.args[1]
    try:
        index = int(raw)
    except ValueError:
        raise PifileError(f"partition index must be a positive integer, got {raw!r}",
                          origin=from_cmd) from None
    if index < 1:
        raise PifileError(f"partition index must be >= 1, got {index}", origin=from_cmd)
    if index > 4:
        raise PifileError(f"partition index must be <= 4, the MBR slots, got {index}",
                          origin=from_cmd)
    return index


def validate_plan(plan: ExecutionPlan) -> list[str]:
    """Non-fatal consistency findings, in Pifile order where applicable.

    A missing INSTALL source is only a warning: HOST steps routinely build
    the file during execution.  When an earlier HOST command mentions the
    source (or its directory), the warning notes the deferred existence
    instead of flagging a missing file.
    """
    warnings: list[str] = []
    chroot = plan.staged[Stage.CHROOT]
    if not chroot:
        warnings.append("no guest modifications: the chroot stage is empty")

    # a source argument holds no whitespace, so no match spans two joined texts
    host_text = ""
    host, install = CommandKind.HOST, CommandKind.INSTALL  # locals: see build_plan
    file = here = None
    for command in chroot:
        if command.kind is host:
            host_text += "\n" + command.args[0]
        elif command.kind is install:
            src_arg = command.args[-2]
            if command.file is not file:  # one Pifile's commands share one Path
                file, here = command.file, str(command.file.parent)
            if os.path.exists(pathlib_join(here, src_arg)):
                continue
            # hint is part of src_arg; searched from the end, where its HOST usually is
            hint = posixpath.dirname(src_arg) or src_arg
            if host_text.rfind(hint) >= 0:
                warnings.append(
                    f"deferred existence: INSTALL source {src_arg} does not exist yet; "
                    "an earlier HOST step appears to produce it"
                )
            else:
                warnings.append(f"INSTALL source does not exist: {src_arg}")
    return warnings
