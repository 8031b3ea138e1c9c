"""Checks on every build's outputs, independent of imgforge's own code.

Each check returns a list of problems; an empty list means the output is
correct.  Image checks decode the table with :mod:`mbr` and ask e2fsprogs
about the filesystem through ``image?offset=`` device names, so they need
no root.
"""

from __future__ import annotations

import hashlib
import re
import subprocess
from pathlib import Path

import mbr
from fixtures import region_sha256

_DONE_DIGEST = re.compile(r"^\[done\] .* sha256=([0-9a-f]{64})$", re.MULTILINE)
_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n"}


def _run(argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def check_image(out: Path, manifest: dict) -> list[str]:
    """The published image is the base grown by PUMP, with a clean, grown root."""
    problems = []
    want_size = manifest["image_bytes"] + manifest["pump_bytes"]
    size = out.stat().st_size
    if size != want_size:
        problems.append(f"image is {size} bytes, expected {want_size}")
    try:
        disk_id, entries = mbr.read_table(out)
    except mbr.BadTable as exc:
        return problems + [str(exc)]
    if disk_id != manifest["disk_id"]:
        problems.append(f"disk id {disk_id:#010x} changed from {manifest['disk_id']:#010x}")
    grown = manifest["pump_bytes"] // mbr.SECTOR
    expected = []
    for base in manifest["entries"]:
        if base["index"] == manifest["root_index"]:
            base = dict(base, size=base["size"] + grown)
        expected.append(mbr.Entry(**base))
    if entries != expected:
        problems.append(f"partition table {entries} differs from expected {expected}")
        return problems
    root = mbr.entry(entries, manifest["root_index"])
    device = f"{out}?offset={root.start * mbr.SECTOR}"
    status, text = _run(["e2fsck", "-fn", device])
    if status != 0:
        problems.append(f"e2fsck -fn exited {status}: {text.strip()[-300:]}")
    status, text = _run(["dumpe2fs", "-h", device])
    fields = dict(re.findall(r"^(Block count|Block size):\s+(\d+)$", text, re.MULTILINE))
    if status != 0 or len(fields) != 2:
        problems.append(f"dumpe2fs -h exited {status}: {text.strip()[-300:]}")
    else:
        want_blocks = root.size * mbr.SECTOR // int(fields["Block size"])
        if int(fields["Block count"]) != want_blocks:
            problems.append(f"filesystem has {fields['Block count']} blocks, "
                            f"the grown partition holds {want_blocks}")
    boot = mbr.entry(entries, manifest["boot_index"])
    if region_sha256(out, boot.start, boot.size) != manifest["boot_sha256"]:
        problems.append("boot partition bytes differ from the base image")
    return problems


def check_digest(stdout: str, out: Path) -> list[str]:
    """The ``[done]`` line names the SHA-256 of the published image."""
    match = _DONE_DIGEST.search(stdout)
    if match is None:
        return ["no [done] line with a sha256 digest"]
    digest = hashlib.sha256()
    with open(out, "rb") as fh:
        for chunk in iter(lambda: fh.read(1024 * 1024), b""):
            digest.update(chunk)
    if digest.hexdigest() != match.group(1):
        return [f"reported digest {match.group(1)} is not the image's {digest.hexdigest()}"]
    return []


def check_host_output(stdout: str, host: dict) -> list[str]:
    """Every HOST step's output reached the line printer, in full."""
    prefix = "  " + host["stream_prefix"]
    wc_line = f"  {host['heredoc_bytes']}"
    echoes = {"  " + word for word in host["echoes"]}
    streamed = 0
    seen: set[str] = set()
    for line in stdout.splitlines():
        if line.startswith(prefix):
            streamed += 1
        elif line == wc_line or line in echoes:
            seen.add(line)
    problems = []
    if streamed != host["stream_lines"]:
        problems.append(f"streamed {streamed} log lines, expected {host['stream_lines']}")
    missing = ({wc_line} | echoes) - seen
    if missing:
        problems.append(f"missing HOST output lines: {sorted(missing)[:3]}")
    return problems


def _unescape(value: str) -> str:
    return re.sub(r"\\(.)", lambda m: _UNESCAPE.get(m.group(1), m.group(0)), value)


def parse_log(text: str) -> list[tuple[str, dict[str, str]]]:
    """Decode a dry-run action log: ``ORDINAL\\tKIND\\tkey=value...`` per line."""
    actions = []
    for ordinal, line in enumerate(text.splitlines()):
        fields = line.split("\t")
        if fields[0] != str(ordinal):
            raise ValueError(f"log line {ordinal} carries ordinal {fields[0]!r}")
        payload = {}
        for field in fields[2:]:
            key, _, value = field.partition("=")
            payload[key] = _unescape(value)
        actions.append((fields[1], payload))
    return actions


def _guest_path(extensions: list[str], host_path: list[str]) -> str:
    seen: dict[str, None] = {}
    for entry in (*extensions, *host_path):
        if entry:
            seen.setdefault(entry)
    return ":".join(seen)


def check_plan_log(text: str, manifest: dict, host_path: list[str]) -> list[str]:
    """GUEST_EXEC, HOST_EXEC and COPY_IN equal the generator's list, in order."""
    try:
        actions = parse_log(text)
    except ValueError as exc:
        return [str(exc)]
    got = []
    for kind, p in actions:
        if kind == "GUEST_EXEC":
            got.append([kind, p.get("command"), p.get("stdin"), p.get("path"), p.get("root")])
        elif kind == "HOST_EXEC":
            got.append([kind, p.get("command"), p.get("stdin"), p.get("cwd")])
        elif kind == "COPY_IN":
            got.append([kind, p.get("src"), p.get("dst"), p.get("mode"), p.get("root")])
    extensions = manifest["path_extensions"]
    want = []
    for item in manifest["expected"]:
        if item[0] == "GUEST_EXEC":
            kind, command, stdin, n = item
            want.append([kind, command, stdin, _guest_path(extensions[:n], host_path), "<root>"])
        elif item[0] == "COPY_IN":
            want.append([*item, "<root>"])
        else:
            want.append(item)
    if got == want:
        return []
    for index, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return [f"effect {index} is {g}, expected {w}"]
    return [f"{len(got)} guest/host/copy effects, expected {len(want)}"]
