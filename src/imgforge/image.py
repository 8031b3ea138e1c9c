"""Raw-image byte surgery.

Sector 0 layout handled here, bit-exact:

    offset 440  4 bytes   disk identifier (little-endian)
    offset 446  4 x 16 B  partition entries
    offset 510  55 AA     boot signature

Each 16-byte entry: status byte (bit 7 = bootable), 3-byte CHS start,
type byte, 3-byte CHS end, little-endian 32-bit LBA start and LBA size in
512-byte sectors.  CHS addressing is obsolete on the images this tool
targets; rewritten entries get the saturated FE FF FF triple.

Only classic 4-slot tables are supported.  A protective-MBR type (0xEE)
means the image is GPT-partitioned and is rejected outright.

Setup checks the table: it decodes the source's sector 0 and refuses, in
:func:`check_partition`, a plan the table cannot serve, before the
destination is written.  Prepare only performs what :func:`pump` planned:
GROW_FILE truncates the file longer and TABLE_WRITE rewrites the entry area.
"""

from __future__ import annotations

import os
import re
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO

from .actions import Action, ActionKind
from .errors import ExecutionFailure, PifileError

if TYPE_CHECKING:
    from .plan import ExecutionPlan

SECTOR_SIZE = 512
DISK_ID_OFFSET = 440
TABLE_OFFSET = 446
SIGNATURE_OFFSET = 510
BOOT_SIGNATURE = b"\x55\xaa"
CHS_SATURATED = b"\xfe\xff\xff"
GPT_PROTECTIVE_TYPE = 0xEE
EXTENDED_TYPES = frozenset({0x05, 0x0F})

_ENTRY = struct.Struct("<B3sB3sII")

_SIZE_RE = re.compile(r"^(\d+)([kMGT]?)$")
_MULTIPLIERS = {"": 1, "k": 1024, "M": 1024**2, "G": 1024**3, "T": 1024**4}
_SUFFIX_ORDER = ("T", "G", "M", "k")


def parse_size(text: str) -> int:
    """Parse ``<digits><suffix>`` into bytes; suffixes k/M/G/T are powers of 1024.

    Suffixes are case-sensitive and fractions are not accepted: ``100M`` is
    104857600 bytes, ``100m`` is an error.
    """
    match = _SIZE_RE.match(text)
    if not match:
        raise PifileError(f"malformed size {text!r} (expected digits plus one of k/M/G/T)")
    return int(match.group(1)) * _MULTIPLIERS[match.group(2)]


def render_size(size_bytes: int) -> str:
    """Inverse of parse_size: largest binary suffix that divides evenly."""
    if size_bytes == 0:
        return "0"
    for suffix in _SUFFIX_ORDER:
        unit = _MULTIPLIERS[suffix]
        if size_bytes % unit == 0:
            return f"{size_bytes // unit}{suffix}"
    return str(size_bytes)


@dataclass(frozen=True)
class PartitionEntry:
    index: int  # slot number, 1..4
    bootable: bool
    type_code: int
    lba_start: int
    lba_size: int

    @property
    def empty(self) -> bool:
        return self.type_code == 0x00

    @property
    def lba_end(self) -> int:
        return self.lba_start + self.lba_size

    @staticmethod
    def vacant(index: int) -> "PartitionEntry":
        return PartitionEntry(index=index, bootable=False, type_code=0, lba_start=0, lba_size=0)


@dataclass(frozen=True)
class PartitionTable:
    disk_id: int
    entries: tuple[PartitionEntry, ...]

    def occupied(self) -> list[PartitionEntry]:
        return [e for e in self.entries if not e.empty]

    def with_entry(self, entry: PartitionEntry) -> "PartitionTable":
        slots = list(self.entries)
        slots[entry.index - 1] = entry
        return replace(self, entries=tuple(slots))


def read_partition_table(fh: BinaryIO) -> PartitionTable:
    """Decode sector 0 from ``fh``, an open binary file at offset 0.

    Refuses a short read, a missing boot signature, a protective MBR and
    overlapping partitions.  A degenerate slot (a type without a size, or
    a size without a type) reads as vacant.
    """
    sector = fh.read(SECTOR_SIZE)
    if len(sector) < SECTOR_SIZE:
        raise ExecutionFailure(f"image is only {len(sector)} bytes, need at least {SECTOR_SIZE}")
    if sector[SIGNATURE_OFFSET:SIGNATURE_OFFSET + 2] != BOOT_SIGNATURE:
        raise ExecutionFailure("sector 0 lacks the 55 AA boot signature")
    disk_id = struct.unpack_from("<I", sector, DISK_ID_OFFSET)[0]
    entries = []
    for n in range(4):
        status, _, type_code, _, lba_start, lba_size = _ENTRY.unpack_from(
            sector, TABLE_OFFSET + 16 * n
        )
        if type_code == GPT_PROTECTIVE_TYPE:
            raise ExecutionFailure(
                "protective MBR found: this is a GPT image, which is not supported"
            )
        if type_code == 0x00 or lba_size == 0:
            entries.append(PartitionEntry.vacant(n + 1))
        else:
            entries.append(PartitionEntry(
                index=n + 1,
                bootable=bool(status & 0x80),
                type_code=type_code,
                lba_start=lba_start,
                lba_size=lba_size,
            ))
    table = PartitionTable(disk_id=disk_id, entries=tuple(entries))
    spans = sorted((e.lba_start, e.lba_end, e.index) for e in table.occupied())
    for (_, prev_end, prev_idx), (start, _, idx) in zip(spans, spans[1:]):
        if start < prev_end:
            raise ExecutionFailure(f"partitions {prev_idx} and {idx} overlap")
    return table


def _encode(entry: PartitionEntry) -> bytes:
    if entry.empty:
        return bytes(16)
    return _ENTRY.pack(0x80 if entry.bootable else 0x00, CHS_SATURATED, entry.type_code,
                       CHS_SATURATED, entry.lba_start, entry.lba_size)


def resize_partition_entry(path: str, index: int, lba_size: int) -> None:
    """Set slot ``index`` of the table at ``path`` to ``lba_size`` sectors, in place.

    The whole 64-byte entry area is rewritten: an occupied slot gets status
    0x80 or 0x00 and CHS FE FF FF, a vacant one 16 zero bytes.  The boot
    code, the disk id and the signature are not touched.
    """
    try:
        with open(path, "r+b") as fh:
            table = read_partition_table(fh)
            table = table.with_entry(replace(table.entries[index - 1], lba_size=lba_size))
            fh.seek(TABLE_OFFSET)
            fh.write(b"".join(_encode(entry) for entry in table.entries))
    except OSError as exc:
        raise ExecutionFailure(f"cannot write partition table to {path}: {exc}") from exc


def grow_image_file(path: str, extra_bytes: int) -> None:
    """Append ``extra_bytes`` zeros to the regular file at ``path``, as a hole."""
    try:  # by path, so that nothing opens a FIFO
        os.truncate(path, os.stat(path).st_size + extra_bytes)
    except OSError as exc:  # str(exc) would name the path a second time
        raise ExecutionFailure(f"cannot grow {path}: [Errno {exc.errno}] {exc.strerror}") from exc


def check_partition(plan: "ExecutionPlan", table: PartitionTable, image_bytes: int) -> None:
    """Refuse a plan that the source's table and length (needed only with PUMP) cannot serve.

    The plan's partition must be an occupied slot.  With PUMP it must also
    be primary, the last one by LBA start (or it would grow into its
    successor) and inside the image, and its grown size must fit an entry's
    32-bit field.  Setup calls this before the destination is written.
    """
    index = plan.partition_index
    entry = table.entries[index - 1]
    if entry.empty:
        raise ExecutionFailure(f"partition {index} is an empty slot")
    if plan.pump_bytes <= 0:
        return
    if entry.type_code in EXTENDED_TYPES:
        raise ExecutionFailure(
            f"partition {index} is extended (type {entry.type_code:#04x}); "
            "only primary partitions can be grown"
        )
    last = max(table.occupied(), key=lambda e: e.lba_start)
    if last.index != index:
        raise ExecutionFailure(
            f"partition {index} cannot grow: partition {last.index} starts after it"
        )
    if entry.lba_end * SECTOR_SIZE > image_bytes:
        raise ExecutionFailure(f"partition {index} already extends past the end of the image")
    if entry.lba_size * SECTOR_SIZE + plan.pump_bytes > (2**32 - 1) * SECTOR_SIZE:
        raise ExecutionFailure(
            f"partition {index} cannot grow by {render_size(plan.pump_bytes)}: "
            "its sector count would not fit the 32-bit size field of an MBR entry"
        )


def pump(plan: "ExecutionPlan", table: PartitionTable) -> tuple[list[Action], PartitionTable]:
    """The growth sequence for the plan's destination image, and the grown table.

    Three actions, in order: grow the file by the requested bytes rounded up
    to a whole number of sectors, rewrite the target partition entry with
    the matching sector count, and run the external filesystem-resize
    command on the partition's mapped device.  ``table`` is the source's,
    which :func:`check_partition` has accepted.
    """
    dest = str(Path(plan.destination.path))
    index = plan.partition_index
    sectors = -(-plan.pump_bytes // SECTOR_SIZE)  # rounded up to a whole sector
    entry = table.entries[index - 1]
    grown = table.with_entry(replace(entry, lba_size=entry.lba_size + sectors))
    return [
        Action(ActionKind.GROW_FILE, {"path": dest, "bytes": str(sectors * SECTOR_SIZE)}),
        Action(ActionKind.TABLE_WRITE, {
            "path": dest,
            "partition": str(index),
            "added_sectors": str(sectors),
            "lba_size": str(grown.entries[index - 1].lba_size),
        }),
        Action(ActionKind.FS_RESIZE, {"image": dest, "partition": str(index),
                                      "command": f"resize2fs <loop>p{index}"}),
    ], grown
