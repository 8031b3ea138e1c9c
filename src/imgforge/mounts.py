"""Mount planning for the chroot stage.

Builds the ordered mount/bind/copy actions that turn a raw image into a
usable chroot, and the exact reverse teardown.  The actions are plain
:class:`~imgforge.actions.Action` values with a ``source`` and a
``target`` in the payload, emitted as they are.  The chroot directory
does not exist until the build makes it, so actions name it through the
``<root>`` placeholder, which the local backend resolves; the action log
is the same for every backend and run.

Setup order: root partition mount, bind mounts for /dev, /sys, /proc and
/dev/pts, a bind of the host's resolv.conf for DNS, one copy per static
emulator binary, then any additional partitions named by the guest's
/etc/fstab, shallowest mount point first.  Teardown undoes exactly the
setup actions applied, last first.  Setup reads that fstab from an
ext2/3/4 root of the source with :func:`read_guest_fstab`, so a dry run
plans the same mounts as a real build; other roots add none.
"""

from __future__ import annotations

import logging
import os
import re
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .actions import Action, ActionKind
from .errors import EnvironmentProblem
from .image import SECTOR_SIZE, PartitionTable
from .plan import ExecutionPlan
from .source import TargetKind

logger = logging.getLogger(__name__)

ROOT_TOKEN = "<root>"

BIND_SOURCES = ("/dev", "/sys", "/proc", "/dev/pts")
RESOLV_CONF = "/etc/resolv.conf"
EMULATOR_DIR = "usr/bin"

# device specs that name kernel pseudo-filesystems, never partitions
PSEUDO_SPECS = frozenset({"proc", "sysfs", "tmpfs", "devtmpfs", "devpts", "swap", "none"})

_PARTUUID = re.compile(r"^PARTUUID=([0-9a-f]{8})-0*(\d+)$")
_DEV_PARTITION = re.compile(r"^/dev/(?:mmcblk\d+p|sd[a-z]+)(\d+)$")


@dataclass(frozen=True)
class FstabEntry:
    device_spec: str
    mount_point: str
    fs_type: str
    options: str
    dump: int
    passno: int


def parse_fstab(text: str) -> list[FstabEntry]:
    """Parse fstab text: 4 to 6 fields per line, a missing dump or pass reading 0.

    Blank lines and ``#`` comments are skipped; malformed lines are skipped
    with a warning rather than aborting, since guest fstabs are not under
    this tool's control.
    """
    entries: list[FstabEntry] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if not 4 <= len(fields) <= 6:
            logger.warning("fstab line %d has %d fields (expected 4 to 6), skipped: %s",
                           line_no, len(fields), line)
            continue
        try:
            dump, passno = map(int, (*fields[4:], "0", "0")[:2])
        except ValueError:
            logger.warning("fstab line %d has non-numeric dump/pass fields, skipped: %s",
                           line_no, line)
            continue
        entries.append(FstabEntry(
            device_spec=fields[0],
            mount_point=fields[1],
            fs_type=fields[2],
            options=fields[3],
            dump=dump,
            passno=passno,
        ))
    return entries


def map_fstab_device(spec: str, table: PartitionTable) -> int | None:
    """Map an fstab device spec to a partition slot of the image, if any.

    ``PARTUUID=xxxxxxxx-NN`` matches when the hex prefix equals the image's
    disk id; ``/dev/mmcblk0pN`` and ``/dev/sdaN`` map to slot N directly.
    Pseudo-filesystems map to nothing silently; anything else unmappable
    (LABEL=, UUID=, other devices) is skipped with a warning because
    resolving it would require reading filesystem superblocks.
    """
    if spec in PSEUDO_SPECS:
        return None
    match = _PARTUUID.match(spec)
    if match:
        disk_hex, slot_text = match.groups()
        slot = int(slot_text)
        if disk_hex == f"{table.disk_id:08x}" and 1 <= slot <= 4:
            return slot
        logger.warning("fstab device %s does not match disk id %08x, skipped",
                       spec, table.disk_id)
        return None
    match = _DEV_PARTITION.match(spec)
    if match:
        slot = int(match.group(1))
        if 1 <= slot <= 4:
            return slot
        logger.warning("fstab device %s names partition %d, outside the 4 MBR slots",
                       spec, slot)
        return None
    logger.warning("fstab device %s cannot be mapped to a partition, skipped", spec)
    return None


def read_guest_fstab(image: str | Path, table: PartitionTable, index: int) -> str:
    """Text of ``/etc/fstab`` on partition ``index`` of ``image``, read with ``debugfs``.

    A missing file, or a symlink, which debugfs does not follow, reads as
    empty.  A partition with no ext2/3/4 superblock magic reads as empty
    with a warning and starts no debugfs, though a debugfs missing from PATH
    still fails; one with the magic reads as empty with a warning when
    debugfs exits nonzero or cannot open the filesystem, a corrupt
    superblock for one, after which it exits 0.  Invalid UTF-8 becomes U+FFFD.
    """
    offset = table.entries[index - 1].lba_start * SECTOR_SIZE
    with open(image, "rb", buffering=0) as fh:  # s_magic of an ext2/3/4 superblock
        is_ext = os.pread(fh.fileno(), 2, offset + 1024 + 56) == b"\x53\xef"
    if is_ext or shutil.which("debugfs") is None:  # a missing debugfs fails here
        try:
            proc = subprocess.run(["debugfs", "-R", "cat /etc/fstab", f"{image}?offset={offset}"],
                                  stdin=subprocess.DEVNULL, capture_output=True)
        except OSError as exc:
            raise EnvironmentProblem(
                f"cannot execute debugfs to read the guest fstab: {exc}") from exc
        if proc.returncode == 0 and b"Filesystem not open" not in proc.stderr:
            return proc.stdout.decode("utf-8", errors="replace")
    logger.warning("partition %d of %s holds no ext2/3/4 filesystem; "
                   "its /etc/fstab adds no mounts", index, image)
    return ""


def discover_emulators(path_var: str) -> list[str]:
    """Find static user-mode emulator binaries (qemu-*-static) on ``path_var``, a PATH value."""
    found: dict[str, str] = {}
    for directory in path_var.split(os.pathsep):
        if not directory:
            continue
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            continue
        for name in names:
            if name.startswith("qemu-") and name.endswith("-static") and name not in found:
                candidate = os.path.join(directory, name)
                if os.path.isfile(candidate) and os.access(candidate, os.X_OK):
                    found[name] = candidate
    return [found[name] for name in sorted(found)]


def partition_device(base: str, index: int) -> str:
    """Partition node name for a disk device: sda -> sda2, mmcblk0 -> mmcblk0p2."""
    if base and base[-1].isdigit():
        return f"{base}p{index}"
    return f"{base}{index}"


def partition_mount(plan: ExecutionPlan, table: PartitionTable, slot: int,
                    target: str) -> Action:
    """The mount of partition ``slot`` of the destination at ``target``.

    An image file's partition is mounted through a loop device over its
    bytes that mount(8) sets up and ``umount`` frees.  A device's partition
    is mounted through its node: a loop over the device would be a second
    block device for a filesystem the host may have mounted from the node.
    """
    image, entry = plan.destination.path, table.entries[slot - 1]
    if plan.destination.kind is TargetKind.BLOCK_DEVICE:
        return Action(ActionKind.MOUNT_PARTITION,
                      {"source": partition_device(image, slot), "target": target})
    return Action(ActionKind.MOUNT_PARTITION, {"source": image, "target": target, "options":
        f"loop,offset={entry.lba_start * SECTOR_SIZE},sizelimit={entry.lba_size * SECTOR_SIZE}"})


def base_mount_actions(plan: ExecutionPlan, table: PartitionTable, *,
                       emulators: Sequence[str]) -> list[Action]:
    """Root mount, system binds, resolv.conf, emulator copies.

    ``table`` is the destination's, grown by PUMP.  Setup's
    :func:`~imgforge.image.check_partition` has refused an empty slot.
    """
    actions = [partition_mount(plan, table, plan.partition_index, ROOT_TOKEN)]

    def add(kind: ActionKind, source: str, target: str) -> None:
        actions.append(Action(kind, {"source": source, "target": target}))

    for bind in BIND_SOURCES:
        add(ActionKind.BIND_MOUNT, bind, ROOT_TOKEN + bind)
    add(ActionKind.BIND_MOUNT, RESOLV_CONF, ROOT_TOKEN + RESOLV_CONF)
    for emulator in emulators:
        add(ActionKind.COPY_EMULATOR, emulator,
            f"{ROOT_TOKEN}/{EMULATOR_DIR}/{Path(emulator).name}")
    return actions


def fstab_mount_actions(plan: ExecutionPlan, table: PartitionTable, fstab_text: str, *,
                        already_mounted: set[str] | None = None) -> list[Action]:
    """Mounts for mappable fstab entries, shallowest mount point first.

    Entries for "/" are skipped (the root is already mounted from the
    plan's partition index) and a mismatch only warns, since FROM may
    legitimately override the root partition.
    """
    occupied = set(already_mounted or ())
    pending: list[tuple[int, int, int]] = []  # (depth, position, slot) per mount point
    targets: dict[int, str] = {}
    for position, entry in enumerate(parse_fstab(fstab_text)):
        if entry.fs_type == "swap":
            continue
        slot = map_fstab_device(entry.device_spec, table)
        if slot is None:
            continue
        if entry.mount_point == "/":
            if slot != plan.partition_index:
                logger.warning(
                    "guest fstab maps / to partition %d, but partition %d is mounted as root",
                    slot, plan.partition_index,
                )
            continue
        if not entry.mount_point.startswith("/") or ".." in entry.mount_point.split("/"):
            logger.warning("fstab mount point %s is not absolute or has a '..' component, "
                           "skipped", entry.mount_point)
            continue
        if table.entries[slot - 1].empty:
            logger.warning("fstab names partition %d, which is an empty slot", slot)
            continue
        target = ROOT_TOKEN + entry.mount_point.rstrip("/")
        if target in occupied:
            continue
        occupied.add(target)
        depth = entry.mount_point.rstrip("/").count("/")
        pending.append((depth, position, slot))
        targets[position] = target

    return [partition_mount(plan, table, slot, targets[position])
            for _, position, slot in sorted(pending)]


def teardown_actions(setup: Sequence[Action]) -> list[Action]:
    """The exact reverse of a setup list, with each kind swapped to its undo."""
    torn: list[Action] = []
    for action in reversed(setup):
        if action.kind.undo is None:
            raise ValueError(f"{action.kind.value} is not a setup action")
        torn.append(Action(action.kind.undo, dict(action.payload)))
    return torn
