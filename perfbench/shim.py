"""The benchmark's only shim: a rootless runner for ``LocalExecutor(runner=...)``.

Builds run unprivileged, so the loop-device step of FS_RESIZE is emulated:

* ``losetup --find --show -P IMG`` during FS_RESIZE answers a fixed fake
  device name and remembers IMG;
* ``resize2fs <fake>pN`` runs the real ``resize2fs IMG?offset=<start*512>
  <size>s``, reading partition N from IMG's table, so the filesystem grows
  to the partition exactly as it would on the partition device (see
  ``RootlessRunner._resize`` for how the file's length is kept out of it);
* ``losetup -d <fake>`` forgets IMG.

HOST commands (``/bin/sh -c``) go to imgforge's own default runner.  Every
other command (mount, umount, chroot, a loop attach for guest access) is
refused with :class:`ShimRefused`, so a workload that would need root fails
loudly instead of being timed without its effects.
"""

from __future__ import annotations

import os
import subprocess
from typing import Any, Sequence

from imgforge.executor import ActionKind, run_command

import mbr

FAKE_LOOP = "/dev/loop7"


class ShimRefused(RuntimeError):
    """A command that needs root was requested."""


class RootlessRunner:
    def __init__(self) -> None:
        self.executor = None  # set once the executor exists; read for the current action
        self._image: str | None = None

    def __call__(self, argv: Sequence[str], **kwargs: Any) -> tuple[int, str]:
        argv = list(argv)
        if argv[:2] == ["/bin/sh", "-c"]:
            return run_command(argv, **kwargs)
        if argv[:4] == ["losetup", "--find", "--show", "-P"] and len(argv) == 5:
            if not self._in_fs_resize():
                raise ShimRefused(f"loop attach for guest access needs root: {argv}")
            self._image = argv[4]
            return 0, FAKE_LOOP + "\n"
        if argv == ["losetup", "-d", FAKE_LOOP] and self._image is not None:
            self._image = None
            return 0, ""
        if (len(argv) == 2 and argv[0] == "resize2fs" and self._image is not None
                and argv[1].startswith(FAKE_LOOP + "p")):
            part = mbr.entry(mbr.read_table(self._image)[1], int(argv[1][len(FAKE_LOOP) + 1:]))
            return self._resize(part)
        raise ShimRefused(f"the rootless runner refuses {argv}")

    def _resize(self, part: mbr.Entry) -> tuple[int, str]:
        """``resize2fs`` on the partition at its offset inside the image file.

        On a regular file, resize2fs treats the file length as the device size
        and cuts the file to the new filesystem size, both without counting the
        offset.  A partition device has neither problem, so for the run the
        file is made exactly as long as the grown partition, and its length
        is restored afterwards.  The bytes set aside lie past the old
        filesystem inside the freshly grown region; they must be a hole.
        """
        image = self._image
        length = os.path.getsize(image)
        part_bytes = part.size * mbr.SECTOR
        with open(image, "rb") as fh:
            try:
                data = os.lseek(fh.fileno(), part_bytes, os.SEEK_DATA)
            except OSError:
                data = length  # ENXIO: nothing but holes from there on
        if data < length:
            raise ShimRefused(f"{image} holds data past byte {part_bytes}; "
                              "resize2fs cannot be run at an offset without losing it")
        os.truncate(image, part_bytes)
        try:
            proc = subprocess.run(
                ["resize2fs", f"{image}?offset={part.start * mbr.SECTOR}", f"{part.size}s"],
                stdin=subprocess.DEVNULL, capture_output=True, text=True,
            )
        finally:
            os.truncate(image, length)
        return proc.returncode, proc.stdout + proc.stderr

    def _in_fs_resize(self) -> bool:
        actions = self.executor.actions if self.executor is not None else []
        return bool(actions) and actions[-1].kind is ActionKind.FS_RESIZE
