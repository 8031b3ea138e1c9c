#!/usr/bin/env python3
"""Seeded inputs for the imgforge benchmark, built without imgforge code.

    python3 perfbench/fixtures.py --workload pump-ext4 --seed 7 --out DIR

writes the workload's inputs into DIR and ``manifest.json`` last, so a
directory holding a manifest is a complete fixture.  The same seed gives
the same bytes: contents, disk id, filesystem UUID and timestamps all come
from the seed.  Sizes are fixed per workload: seeds change what the inputs
hold, not how large they are.  No file a build writes exceeds 1 GiB, so the
benchmark also runs where the file size limit (``ulimit -f``) is 1 GiB.

* ``pump-ext4``: a 512 MiB MBR image whose ext4 root is made by
  ``mkfs.ext4 -E offset= -d`` from 128 MiB of seeded, incompressible files.
* ``xz-host``: a 512 MiB image holding 32 MiB of compressible files,
  packed with ``lzma`` into ``base.img.xz``, plus a Pifile fragment of HOST
  steps: one streams many log lines, one reads a large here-document, the
  rest are trivial.
* ``plan-5k``: a 16 MiB table-only image and a Pifile of about 5,000
  directives spread over ``source``d modules, with the GUEST_EXEC,
  HOST_EXEC and COPY_IN sequence a dry run must record.

The filesystems are never mounted, so they are always in the state
``resize2fs`` accepts without a prior ``e2fsck -f``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import lzma
import os
import random
import shutil
import subprocess
import sys
import uuid
from dataclasses import asdict, dataclass
from pathlib import Path

from mbr import SECTOR, Entry, build_sector0

MiB = 1024 * 1024
CHUNK = MiB
BOOT_INDEX = 1
ROOT_INDEX = 2
BOOT_START = 2048  # sectors
BOOT_PAYLOAD = MiB
FAKE_EPOCH = 1_600_000_000

# pinned into the environment of every build; the plan fixture expands ${NODE} with it
NODE = "perfbench"


@dataclass(frozen=True)
class ImageSpec:
    image_bytes: int
    boot_bytes: int
    data_bytes: int
    pump: str
    pump_bytes: int
    compressible: bool = False
    xz: bool = False
    host_lines: int = 0
    heredoc_bytes: int = 0
    trivial_hosts: int = 0


@dataclass(frozen=True)
class PlanSpec:
    image_bytes: int
    modules: int
    directives_per_module: int
    path_dirs_per_module: int


SPECS: dict[str, ImageSpec | PlanSpec] = {
    "pump-ext4": ImageSpec(image_bytes=512 * MiB, boot_bytes=32 * MiB,
                           data_bytes=128 * MiB, pump="384M", pump_bytes=384 * MiB),
    "xz-host": ImageSpec(image_bytes=512 * MiB, boot_bytes=32 * MiB,
                         data_bytes=32 * MiB, pump="64M", pump_bytes=64 * MiB,
                         compressible=True, xz=True, host_lines=200_000,
                         heredoc_bytes=64 * 1024, trivial_hosts=20),
    "plan-5k": PlanSpec(image_bytes=16 * MiB, modules=10, directives_per_module=499,
                        path_dirs_per_module=6),
}


# --- images ------------------------------------------------------------------


def _write_data_tree(root: Path, spec: ImageSpec, rng: random.Random) -> None:
    """Seeded files totalling ``spec.data_bytes``, written in bounded chunks."""
    corpus = b""
    if spec.compressible:
        words = [bytes(rng.choice(b"abcdefghijklmnopqrstuvwxyz")
                       for _ in range(rng.randint(2, 10))) for _ in range(2048)]
        corpus = b"".join(rng.choice(words) + rng.choice([b" ", b" ", b"\n"])
                          for _ in range(64 * 1024))
    remaining = spec.data_bytes
    n = 0
    while remaining > 0:
        size = min(remaining, rng.randint(64 * 1024, 4 * MiB))
        path = root / f"d{n % 8}" / f"f{n:04d}.bin"
        path.parent.mkdir(exist_ok=True)
        with open(path, "wb") as fh:
            left = size
            while left:
                take = min(left, CHUNK)
                if spec.compressible:
                    start = rng.randrange(len(corpus) - take) if take < len(corpus) else 0
                    fh.write((corpus * (1 + take // len(corpus)))[start:start + take])
                else:
                    fh.write(rng.randbytes(take))
                left -= take
        remaining -= size
        n += 1


def make_ext4_image(out: Path, spec: ImageSpec, rng: random.Random, scratch: Path) -> dict:
    """MBR image: seeded boot bytes in slot 1, an ext4 root filling slot 2."""
    boot_sectors = spec.boot_bytes // SECTOR
    root_start = BOOT_START + boot_sectors
    root_sectors = spec.image_bytes // SECTOR - root_start
    disk_id = rng.getrandbits(32)
    entries = [
        Entry(BOOT_INDEX, True, 0x0C, BOOT_START, boot_sectors),
        Entry(ROOT_INDEX, False, 0x83, root_start, root_sectors),
    ]
    with open(out, "wb") as fh:
        fh.write(build_sector0(disk_id, entries))
        fh.seek(BOOT_START * SECTOR)
        fh.write(rng.randbytes(min(BOOT_PAYLOAD, spec.boot_bytes)))
        fh.truncate(spec.image_bytes)

    data = scratch / "data"
    data.mkdir()
    _write_data_tree(data, spec, rng)
    fs_uuid = str(uuid.UUID(int=rng.getrandbits(128), version=4))
    env = dict(os.environ, E2FSPROGS_FAKE_TIME=str(FAKE_EPOCH))
    subprocess.run(
        ["mkfs.ext4", "-q", "-F", "-U", fs_uuid,
         "-E", f"offset={root_start * SECTOR},hash_seed={fs_uuid},root_owner=0:0",
         "-d", str(data), str(out), f"{root_sectors * SECTOR // 1024}k"],
        check=True, env=env, stdin=subprocess.DEVNULL, capture_output=True,
    )
    # mkfs -d copies each source inode's times, and no call can set a change time;
    # pin all three so that the image bytes depend on the seed alone
    names = ["/"] + ["/" + str(p.relative_to(data)) for p in sorted(data.rglob("*"))]
    script = scratch / "times.debugfs"
    script.write_text("".join(f"sif {name} {field} @{FAKE_EPOCH}\n"
                              for name in names for field in ("atime", "mtime", "ctime")))
    subprocess.run(["debugfs", "-w", "-f", str(script), f"{out}?offset={root_start * SECTOR}"],
                   check=True, stdin=subprocess.DEVNULL, capture_output=True)
    script.unlink()
    shutil.rmtree(data)
    return {
        "image_bytes": spec.image_bytes,
        "disk_id": disk_id,
        "entries": [asdict(e) for e in entries],
        "boot_index": BOOT_INDEX,
        "root_index": ROOT_INDEX,
        "boot_sha256": region_sha256(out, BOOT_START, boot_sectors),
    }


def region_sha256(path: Path, start: int, sectors: int) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        fh.seek(start * SECTOR)
        left = sectors * SECTOR
        while left:
            chunk = fh.read(min(left, CHUNK))
            if not chunk:
                break
            digest.update(chunk)
            left -= len(chunk)
    return digest.hexdigest()


def _xz(src: Path, dst: Path) -> None:
    compressor = lzma.LZMACompressor(preset=0)
    with open(src, "rb") as fi, open(dst, "wb") as fo:
        for chunk in iter(lambda: fi.read(CHUNK), b""):
            fo.write(compressor.compress(chunk))
        fo.write(compressor.flush())


def _host_fragment(out: Path, spec: ImageSpec, rng: random.Random) -> dict:
    """HOST steps: a log streamer, a here-document reader, trivial echoes."""
    tag = f"{rng.getrandbits(32):08x}"
    lines = [
        "# HOST steps, generated",
        f"HOST seq -f 'CC src/{tag}/unit-%06.0f.o' 1 {spec.host_lines}",
    ]
    body_lines: list[str] = []
    size = 0
    while size < spec.heredoc_bytes:
        line = " ".join(f"{rng.getrandbits(40):010x}" for _ in range(rng.randint(1, 9)))
        body_lines.append(line)
        size += len(line) + 1
    lines += ["HOST wc -c << BLOB", *body_lines, "BLOB"]
    echoes = [f"stage-{i:02d}-{rng.getrandbits(24):06x}" for i in range(spec.trivial_hosts)]
    lines += [f"HOST echo {word}" for word in echoes]
    out.write_text("\n".join(lines) + "\n")
    return {
        "stream_prefix": f"CC src/{tag}/unit-",
        "stream_lines": spec.host_lines,
        "heredoc_bytes": size,
        "echoes": echoes,
    }


def make_image_fixture(out: Path, spec: ImageSpec, seed: int) -> dict:
    rng = random.Random(seed)
    raw = out / "base.img"
    scratch = out / "tmp"
    scratch.mkdir()
    manifest = make_ext4_image(raw, spec, rng, scratch)
    scratch.rmdir()
    manifest.update(pump=spec.pump, pump_bytes=spec.pump_bytes, image="base.img")
    if spec.xz:
        _xz(raw, out / "base.img.xz")
        raw.unlink()
        manifest["image"] = "base.img.xz"
    if spec.host_lines or spec.trivial_hosts:
        manifest["host"] = _host_fragment(out / "host.Pifile", spec, rng)
        manifest["fragment"] = "host.Pifile"
    return manifest


# --- the plan workload -----------------------------------------------------------


# share of a module's directives per form; a built INSTALL also brings its HOST step
_PLAN_MIX = {"heredoc": 0.10, "host": 0.15, "install-file": 0.10, "install-built": 0.08,
             "install-missing": 0.02}
_RUN_FORMS = ("apt-get install -y --no-install-recommends pkg-{k}-{i}",
              "systemctl enable svc-{k}-{i}.service",
              "echo ${{NODE}}-{k}-{i} >> /etc/motd",
              "sed -i 's/^#opt{i}=.*/opt{i}=on/' /etc/app-{k}.conf")
_HOST_FORMS = ("./scripts/gen-{k}-{i}.sh --target mod{k}",
               "cp -r assets/mod{k}/set{i} out/mod{k}/",
               "test -d out/mod{k} || mkdir -p out/mod{k}")


def _module(k: int, spec: PlanSpec, rng: random.Random, out: Path,
            expected: list, extensions: list[str]) -> list[str]:
    """One module of seeded directives; appends its effects to ``expected``.

    Every seed gets the same number of directives of each form; the seed
    decides their order and the random parts of their text.
    """
    n = spec.directives_per_module
    slots = ["path"] * spec.path_dirs_per_module
    for form, share in _PLAN_MIX.items():
        slots += [form] * int(n * share)
    slots += ["run"] * (n - len(slots) - slots.count("install-built"))
    rng.shuffle(slots)
    lines = [f"# module {k:02d}: generated"]

    def guest(command: str, stdin: str = "") -> None:
        expected.append(["GUEST_EXEC", command.replace("${NODE}", NODE),
                         stdin.replace("${NODE}", NODE), len(extensions)])

    def host(command: str) -> None:
        lines.append(f"HOST {command}")
        expected.append(["HOST_EXEC", command, "", "."])

    def install(mode: str | None, src: str, dst: str) -> None:
        lines.append(" ".join(["INSTALL", *([mode] if mode else []), src, dst]))
        expected.append(["COPY_IN", src, dst, mode or ""])

    for i, form in enumerate(slots):
        if i % 5 == 0:
            lines.append(f"# step {k}.{i}: {rng.getrandbits(32):08x}")
        if form == "path":
            directory = f"/opt/mod{k:02d}/bin{len(extensions)}"
            lines.append(f"PATH {directory}")
            extensions.append(directory)
        elif form == "run":
            command = _RUN_FORMS[i % len(_RUN_FORMS)].format(k=k, i=i)
            lines.append(f"RUN {command}")
            guest(command)
        elif form == "heredoc":
            command = f"tee /etc/app-{k}/conf-{i}.ini"
            body = "".join(f"key{j} = {'${NODE}' if j % 3 == 0 else 'v'}-"
                           f"{rng.getrandbits(24):06x}\n" for j in range(5))
            lines += [f"RUN {command} << EOF", body + "EOF"]
            guest(command, body)
        elif form == "host":
            host(_HOST_FORMS[i % len(_HOST_FORMS)].format(k=k, i=i))
        elif form == "install-file":
            src = f"files/mod{k:02d}/conf-{i}.conf"
            (out / src).parent.mkdir(parents=True, exist_ok=True)
            (out / src).write_text(f"conf {k} {i} {rng.getrandbits(32):08x}\n")
            install("644", src, f"/etc/mod{k:02d}/conf-{i}.conf")
        elif form == "install-built":
            host(f"make -C build/mod{k:02d} tool-{i}")
            install("755", f"build/mod{k:02d}/tool-{i}", f"/usr/local/bin/tool-{i}")
        else:  # a source nothing provides: validate_plan warns, a dry run still records it
            install(None, f"blobs/mod{k:02d}/fw-{i}.bin", f"/lib/firmware/fw-{i}.bin")
    return lines


def make_plan_fixture(out: Path, spec: PlanSpec, seed: int) -> dict:
    rng = random.Random(seed)
    image = out / "base.img"
    root_start = BOOT_START + 2048
    with open(image, "wb") as fh:
        fh.write(build_sector0(rng.getrandbits(32), [
            Entry(BOOT_INDEX, True, 0x0C, BOOT_START, 2048),
            Entry(ROOT_INDEX, False, 0x83, root_start, spec.image_bytes // SECTOR - root_start),
        ]))
        fh.truncate(spec.image_bytes)
    expected: list = []
    extensions: list[str] = []
    main = ["# generated plan workload", "FROM base.img", "TO out.img"]
    for k in range(spec.modules):
        name = f"mod-{k:02d}.Pifile"
        (out / name).write_text(
            "\n".join(_module(k, spec, rng, out, expected, extensions)) + "\n")
        main.append(f"source {name}")
    (out / "main.Pifile").write_text("\n".join(main) + "\n")
    return {
        "pifile": "main.Pifile",
        "path_extensions": extensions,
        "expected": expected,
    }


def generate(workload: str, seed: int, out: Path,
             spec: ImageSpec | PlanSpec | None = None) -> dict:
    """Write a complete fixture into the empty directory ``out``."""
    spec = spec or SPECS[workload]
    if isinstance(spec, PlanSpec):
        manifest = make_plan_fixture(out, spec, seed)
    else:
        manifest = make_image_fixture(out, spec, seed)
    manifest.update(workload=workload, seed=seed)
    (out / "manifest.json").write_text(json.dumps(manifest))
    sync_tree(out)
    return manifest


def sync_tree(root: Path) -> None:
    """fsync every file under ``root``, so no write-back of it overlaps later timing."""
    for path in sorted(root.rglob("*")):
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=False)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
