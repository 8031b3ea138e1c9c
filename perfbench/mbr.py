"""Minimal MBR writer and reader for fixtures and output checks.

Deliberately independent of imgforge: the benchmark builds its base
images and decodes the published ones with these few struct calls, so a
fault in imgforge's own table code cannot hide behind itself.  Layout:
disk id at offset 440 (little-endian 32-bit), four 16-byte entries at 446,
signature 55 AA at 510; entry LBA start and size at entry offsets +8/+12.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

SECTOR = 512
_ENTRY_OFFSET = 446
_CHS_SATURATED = b"\xfe\xff\xff"


@dataclass(frozen=True)
class Entry:
    index: int
    bootable: bool
    type_code: int
    start: int
    size: int


class BadTable(ValueError):
    """Sector 0 does not hold a readable MBR."""


def build_sector0(disk_id: int, entries: list[Entry]) -> bytes:
    buf = bytearray(SECTOR)
    struct.pack_into("<I", buf, 440, disk_id)
    for entry in entries:
        offset = _ENTRY_OFFSET + 16 * (entry.index - 1)
        buf[offset] = 0x80 if entry.bootable else 0x00
        buf[offset + 1:offset + 4] = _CHS_SATURATED
        buf[offset + 4] = entry.type_code
        buf[offset + 5:offset + 8] = _CHS_SATURATED
        struct.pack_into("<II", buf, offset + 8, entry.start, entry.size)
    buf[510:512] = b"\x55\xaa"
    return bytes(buf)


def read_table(path: str | Path) -> tuple[int, list[Entry]]:
    """Disk id and the occupied entries of ``path``'s sector 0."""
    with open(path, "rb") as fh:
        sector = fh.read(SECTOR)
    if len(sector) != SECTOR:
        raise BadTable(f"{path}: short sector 0 ({len(sector)} bytes)")
    if sector[510:512] != b"\x55\xaa":
        raise BadTable(f"{path}: boot signature missing")
    entries = []
    for n in range(4):
        offset = _ENTRY_OFFSET + 16 * n
        start, size = struct.unpack_from("<II", sector, offset + 8)
        if sector[offset + 4] and size:
            entries.append(Entry(index=n + 1, bootable=bool(sector[offset] & 0x80),
                                 type_code=sector[offset + 4], start=start, size=size))
    return struct.unpack_from("<I", sector, 440)[0], entries


def entry(entries: list[Entry], index: int) -> Entry:
    for candidate in entries:
        if candidate.index == index:
            return candidate
    raise BadTable(f"partition {index} is not present")
