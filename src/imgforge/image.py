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
"""

from __future__ import annotations

import os
import re
import stat as stat_module
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO

from .actions import Action, ActionKind
from .errors import ExecutionFailure, PifileError

if TYPE_CHECKING:
    from .executor import Executor
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
    if size_bytes < 0:
        raise PifileError(f"cannot render negative size {size_bytes}")
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


def validate_table(table: PartitionTable) -> None:
    """Raise ExecutionFailure when structural invariants do not hold."""
    if len(table.entries) != 4:
        raise ExecutionFailure(f"expected 4 partition slots, got {len(table.entries)}")
    if not 0 <= table.disk_id < 2**32:
        raise ExecutionFailure(f"disk id {table.disk_id:#x} out of 32-bit range")
    for n, entry in enumerate(table.entries, start=1):
        if entry.index != n:
            raise ExecutionFailure(f"slot {n} carries index {entry.index}")
        if not 0 <= entry.type_code <= 0xFF:
            raise ExecutionFailure(f"slot {n} type {entry.type_code:#x} out of range")
        if entry.empty != (entry.lba_size == 0):
            raise ExecutionFailure(f"slot {n} is half-empty (type {entry.type_code:#x}, "
                                   f"{entry.lba_size} sectors)")
        if not (0 <= entry.lba_start < 2**32 and 0 <= entry.lba_size < 2**32):
            raise ExecutionFailure(f"slot {n} LBA fields out of 32-bit range")
    spans = sorted((e.lba_start, e.lba_end, e.index) for e in table.occupied())
    for (_, prev_end, prev_idx), (start, _, idx) in zip(spans, spans[1:]):
        if start < prev_end:
            raise ExecutionFailure(f"partitions {prev_idx} and {idx} overlap")


def read_partition_table(source: str | Path | BinaryIO) -> PartitionTable:
    """Decode sector 0 of an image file, path, or readable binary stream."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return read_partition_table(fh)
    if source.seekable():
        source.seek(0)
    sector = source.read(SECTOR_SIZE)
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
            # degenerate slots (type without size, or size without type) are unusable
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
    validate_table(table)
    return table


def write_partition_table(target: str | Path | BinaryIO, table: PartitionTable) -> None:
    """Rewrite the partition area of sector 0.

    Touches only bytes 440..444 (disk id) and 446..510 (entries); the boot
    code and the signature are preserved.  The target must already carry a
    boot signature: this tool modifies partitioned images, it does not
    create them.  CHS fields of written entries are saturated to FE FF FF.
    """
    validate_table(table)
    if isinstance(target, (str, Path)):
        try:
            with open(target, "r+b") as fh:
                write_partition_table(fh, table)
        except OSError as exc:
            raise ExecutionFailure(f"cannot write partition table to {target}: {exc}") from exc
        return
    target.seek(0)
    sector = target.read(SECTOR_SIZE)
    if len(sector) < SECTOR_SIZE:
        raise ExecutionFailure(f"target is only {len(sector)} bytes, need at least {SECTOR_SIZE}")
    if sector[SIGNATURE_OFFSET:SIGNATURE_OFFSET + 2] != BOOT_SIGNATURE:
        raise ExecutionFailure("refusing to write a partition table to an unsigned sector 0")
    area = bytearray()
    for entry in table.entries:
        if entry.empty:
            area += bytes(16)
        else:
            area += _ENTRY.pack(
                0x80 if entry.bootable else 0x00,
                CHS_SATURATED,
                entry.type_code,
                CHS_SATURATED,
                entry.lba_start,
                entry.lba_size,
            )
    try:
        target.seek(DISK_ID_OFFSET)
        target.write(struct.pack("<I", table.disk_id))
        target.seek(TABLE_OFFSET)
        target.write(bytes(area))
        target.flush()
    except OSError as exc:
        raise ExecutionFailure(f"partition table write failed: {exc}") from exc


def grow_image_file(path: str | Path, extra_bytes: int) -> int:
    """Append ``extra_bytes`` zeros to a regular file; returns the new length.

    Block devices cannot grow and are refused.  Growth is done by truncation,
    so the appended region is a hole until written.
    """
    path = Path(path)
    try:
        st = os.stat(path)
    except OSError as exc:
        raise ExecutionFailure(f"cannot stat {path}: {exc}") from exc
    if stat_module.S_ISBLK(st.st_mode):
        raise ExecutionFailure(f"{path} is a block device and cannot grow")
    if not stat_module.S_ISREG(st.st_mode):
        raise ExecutionFailure(f"{path} is not a regular file")
    if extra_bytes < 0:
        raise ExecutionFailure(f"cannot grow by a negative amount ({extra_bytes})")
    new_size = st.st_size + extra_bytes
    if extra_bytes:
        try:
            os.truncate(path, new_size)
        except OSError as exc:
            raise ExecutionFailure(f"cannot grow {path}: {exc}") from exc
    return new_size


def _occupied_slot(table: PartitionTable, index: int) -> PartitionEntry:
    if not 1 <= index <= 4:
        raise ExecutionFailure(f"partition index {index} is outside the 4 MBR slots")
    entry = table.entries[index - 1]
    if entry.empty:
        raise ExecutionFailure(f"partition {index} is an empty slot")
    return entry


def resize_partition_entry(path: str | Path, index: int, lba_size: int) -> None:
    """Rewrite slot ``index`` of the table at ``path`` to span ``lba_size`` sectors."""
    table = read_partition_table(path)
    entry = _occupied_slot(table, index)
    write_partition_table(path, table.with_entry(replace(entry, lba_size=lba_size)))


def check_partition(plan: "ExecutionPlan", table: PartitionTable, image_bytes: int) -> None:
    """Refuse a plan that the source's table and length (needed only with PUMP) cannot serve.

    The plan's partition must be an occupied slot.  With PUMP it must also
    be primary, the last one by LBA start (or it would grow into its
    successor) and inside the image, and its grown size must fit an entry's
    32-bit field.  Setup calls this before the destination is written.
    """
    index = plan.partition_index
    entry = _occupied_slot(table, index)
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


def pump(plan: "ExecutionPlan", executor: "Executor", table: PartitionTable) -> PartitionTable:
    """Emit the growth sequence for the plan's destination image; returns the grown table.

    Three actions go through the executor, in order: grow the file by the
    requested bytes rounded up to a whole number of sectors, rewrite the
    target partition entry with the matching sector count, and run the
    external filesystem-resize command on the partition's mapped device.
    A dry-run executor records the sequence; a local executor performs it.
    ``table`` is the source's, which :func:`check_partition` has accepted.
    """
    dest = str(Path(plan.destination.path))
    index = plan.partition_index
    sectors = -(-plan.pump_bytes // SECTOR_SIZE)  # rounded up to a whole sector
    entry = table.entries[index - 1]
    grown = table.with_entry(replace(entry, lba_size=entry.lba_size + sectors))
    executor.emit(Action(ActionKind.GROW_FILE, {
        "path": dest, "bytes": str(sectors * SECTOR_SIZE),
    }))
    executor.emit(Action(ActionKind.TABLE_WRITE, {
        "path": dest,
        "partition": str(index),
        "added_sectors": str(sectors),
        "lba_size": str(grown.entries[index - 1].lba_size),
    }))
    executor.emit(Action(ActionKind.FS_RESIZE, {
        "image": dest,
        "partition": str(index),
        "command": f"resize2fs <loop>p{index}",
    }))
    return grown
