"""Source resolution: base-image lookup, download cache, and materialization.

A FROM argument is one of three things: an HTTP(S)/FTP URL, a block device,
or a local file.  URLs are downloaded once into a content-keyed cache
(`sha256(url)`), so repeated builds of the same Pifile hit the network a
single time.  Compressed sources are unpacked before use: .gz/.xz/.zst by
the format's own tool on imgforge's PATH (gzip, xz, zstd), .zip by zipfile;
an archive must contain exactly one image.

This module alone owns the cache layout, under the directory given by
--cache, $PIMOD_CACHE, or a `.pimod-cache` directory beside the Pifile; a
raw local source never touches it::

    <key>/image     the downloaded bytes, moved into place atomically
    <key>/meta      url=..., fetched_at=..., size=... (one per line)
    <key>.lock      advisory lock serializing concurrent downloads; an unpack is not locked
    <key>/<name>    an unpacked image; ``.<name>.source`` stamps its archive's
                    size, mtime and inode (a local archive's key hashes its path)
"""

from __future__ import annotations

import errno
import fcntl
import hashlib
import logging
import os
import shutil
import stat as stat_module
import subprocess
import tempfile
import time
import urllib.parse
import zipfile
import zlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from enum import Enum
from itertools import takewhile
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, ContextManager, Iterator, Mapping

from .actions import Action, ActionKind
from .errors import EnvironmentProblem, ExecutionFailure, PifileError

if TYPE_CHECKING:
    from .executor import Executor
    from .plan import ExecutionPlan

logger = logging.getLogger(__name__)

Fetcher = Callable[[str, Path], None]

URL_SCHEMES = frozenset({"http", "https", "ftp"})

FETCH_TIMEOUT_S = 60  # per blocking socket operation, not for the whole download

_PACKED_SUFFIXES = frozenset({".gz", ".xz", ".zst", ".zip"})
_REJECTED_SUFFIXES = frozenset({".bz2", ".tar", ".tgz", ".txz", ".tbz2", ".lz4", ".7z", ".rar"})
# each stream format's own tool, reading the archive on stdin; xz -T0 decodes blocks in parallel
_DECOMPRESSORS = {".gz": ("gzip", "-dc"), ".xz": ("xz", "-dc", "-T0"), ".zst": ("zstd", "-dc")}

# unit of every image read and write; one buffer of it is the most any of them holds
CHUNK = 1024 * 1024
_ZEROS = bytes(CHUNK)


class SourceKind(Enum):
    LOCAL_FILE = "local-file"
    BLOCK_DEVICE = "block-device"
    URL = "url"


class TargetKind(Enum):
    LOCAL_FILE = "local-file"
    BLOCK_DEVICE = "block-device"


@dataclass(frozen=True)
class SourceSpec:
    kind: SourceKind
    locator: str

    @property
    def name(self) -> str:
        """A URL path's last component ("image" if it has none), or a local file name."""
        if self.kind is SourceKind.URL:
            return Path(urllib.parse.urlsplit(self.locator).path).name or "image"
        return Path(self.locator).name


@dataclass(frozen=True)
class TargetSpec:
    kind: TargetKind
    path: str


def is_url(locator: str) -> bool:
    return urllib.parse.urlsplit(locator).scheme in URL_SCHEMES


def default_probe(locator: str) -> SourceKind | None:
    """Filesystem probe: block device, regular file, or None when absent."""
    try:
        st = os.stat(locator)
    except OSError:
        return None
    if stat_module.S_ISBLK(st.st_mode):
        return SourceKind.BLOCK_DEVICE
    if stat_module.S_ISREG(st.st_mode):
        return SourceKind.LOCAL_FILE
    return None


def classify_source(locator: str,
                    fs_probe: Callable[[str], SourceKind | None] = default_probe) -> SourceKind:
    """Decide what a FROM/INPLACE argument names.

    URLs are recognized by scheme alone; everything else is probed on the
    filesystem.  Raises PifileError when the locator matches nothing.
    """
    if not locator:
        raise PifileError("empty source locator")
    scheme = urllib.parse.urlsplit(locator).scheme
    if scheme in URL_SCHEMES:
        return SourceKind.URL
    kind = fs_probe(locator)
    if kind is None:
        raise PifileError(f"source not found: {locator}")
    return kind


def cache_key(url: str) -> str:
    return hashlib.sha256(url.encode("utf-8")).hexdigest()


def resolve_cache_dir(explicit: str | Path | None, env: Mapping[str, str],
                      pifile_path: Path) -> Path:
    """--cache flag wins, then $PIMOD_CACHE, then .pimod-cache beside the Pifile."""
    if explicit is not None:
        return Path(explicit)
    if env.get("PIMOD_CACHE"):
        return Path(env["PIMOD_CACHE"])
    return pifile_path.parent / ".pimod-cache"


def cache_entry(cache_dir: str | Path, spec: SourceSpec) -> Path:
    """``<key>/`` of ``spec``: a download and its unpacked image share it."""
    url = spec.locator if spec.kind is SourceKind.URL else f"file://{Path(spec.locator).resolve()}"
    return Path(cache_dir) / cache_key(url)


@contextmanager
def _entry_lock(cache_dir: Path, key: str) -> Iterator[None]:
    lock_path = cache_dir / f"{key}.lock"
    with open(lock_path, "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


@contextmanager
def _new_dirs(path: Path) -> Iterator[None]:
    """Make ``path`` and its missing parents; if the body fails, remove those still empty."""
    made = list(takewhile(lambda d: not d.is_dir(), (path, *path.parents)))
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise EnvironmentProblem(f"cannot create cache directory {path}: {exc}") from exc
    try:
        yield
    except BaseException:
        for d in made:  # deepest first; kept if a concurrent build filled it meanwhile
            with suppress(OSError):
                d.rmdir()
        raise


def _urllib_fetcher(url: str, dest: Path) -> None:
    import urllib.error  # the HTTP/TLS stack loads only when a URL misses the cache
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as response, \
                open(dest, "wb") as out:
            shutil.copyfileobj(response, out, length=CHUNK)
    except urllib.error.HTTPError as exc:
        raise ExecutionFailure(f"fetching {url} failed: HTTP {exc.code} {exc.reason}") from exc
    except urllib.error.URLError as exc:
        raise ExecutionFailure(f"fetching {url} failed: {exc.reason}") from exc
    except OSError as exc:
        raise ExecutionFailure(f"fetching {url} failed: {exc}") from exc


def fetch_to_cache(url: str, cache_dir: str | Path, fetcher: Fetcher | None = None, *,
                   refresh: bool = False, offline: bool = False) -> Path:
    """Return a local path holding the bytes of ``url``, downloading at most once.

    A hit returns the stored path without touching the network.  A miss
    downloads to a temporary name and moves it into place atomically, so a
    failed transfer leaves no cache entry behind.  ``refresh`` forces a
    re-download; ``offline`` turns a miss into an error.
    """
    fetcher = fetcher or _urllib_fetcher
    cache_dir = Path(cache_dir)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise EnvironmentProblem(f"cannot create cache directory {cache_dir}: {exc}") from exc
    if not os.access(cache_dir, os.W_OK):
        raise EnvironmentProblem(f"cache directory {cache_dir} is not writable")

    key = cache_key(url)
    entry_dir = cache_dir / key
    image = entry_dir / "image"
    with _entry_lock(cache_dir, key):
        if image.is_file() and not refresh:
            logger.debug("cache hit for %s at %s", url, image)
            return image
        if offline:
            raise ExecutionFailure(f"offline mode: {url} is not in the cache")
        tmp = entry_dir / f".partial.{os.getpid()}"
        with _new_dirs(entry_dir):
            try:
                fetcher(url, tmp)
                os.replace(tmp, image)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise
        fetched_at = time.time()
        (entry_dir / "meta").write_text(
            f"url={url}\nfetched_at={int(fetched_at)}\nsize={image.stat().st_size}\n"
        )
    logger.info("fetched %s (%d bytes)", url, image.stat().st_size)
    return image


def _packing(name: str) -> str | None:
    """The suffix saying how the image behind ``name`` is packed; None for a raw image.

    Container formats (tarballs and friends) raise ExecutionFailure rather
    than pass as raw images.
    """
    suffix = Path(name).suffix.lower()
    tarball = suffix in _PACKED_SUFFIXES and Path(Path(name).stem).suffix.lower() == ".tar"
    if tarball or suffix in _REJECTED_SUFFIXES:
        raise ExecutionFailure(f"unsupported archive format: {name}")
    return suffix if suffix in _PACKED_SUFFIXES else None


def is_archive(name: str) -> bool:
    """True when ``name`` is packed, including the formats imgforge refuses to unpack."""
    return Path(name).suffix.lower() in _PACKED_SUFFIXES | _REJECTED_SUFFIXES


@contextmanager
def _decompressed(archive: Path, argv: tuple[str, ...]) -> Iterator[BinaryIO]:
    """The output of ``argv`` unpacking ``archive``; the tool is killed if the body fails."""
    with open(archive, "rb") as stdin, tempfile.TemporaryFile() as stderr:  # a file never fills
        try:
            proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE, stderr=stderr)
        except FileNotFoundError as exc:
            raise EnvironmentProblem(f"cannot execute {argv[0]}: {exc}") from exc
        with proc:  # closes the pipe and reaps the tool on every way out
            try:
                yield proc.stdout
            except BaseException:
                proc.kill()
                raise
        if proc.returncode:
            stderr.seek(0)
            detail = stderr.read().decode(errors="replace").strip() or f"status {proc.returncode}"
            raise ExecutionFailure(f"cannot decompress {archive}: {detail}")


def _single_image_member(archive: zipfile.ZipFile) -> str:
    members = [m for m in archive.namelist()
               if m.lower().endswith(".img") and not m.endswith("/")]
    if len(members) > 1:
        raise ExecutionFailure(
            f"archive holds {len(members)} images ({', '.join(sorted(members))}); expected one"
        )
    if not members:
        raise ExecutionFailure("archive contains no .img member")
    return members[0]


def extract_image(archive: str | Path, workspace: str | Path, *,
                  name_hint: str | None = None) -> Path:
    """Unpack a single-image archive into ``workspace``; raw images pass through.

    An extraction is reused while the archive keeps the size, mtime and inode
    recorded beside it, so the unpack cost is paid once per archive version
    and a re-download or a rewritten local archive is unpacked again.
    All-zero chunks are left as holes.  Unsupported container formats
    (tarballs and friends) are rejected rather than silently treated as raw
    images.  A failed unpack removes the directories it made for
    ``workspace`` again, as far as they are still empty.
    """
    archive = Path(archive)
    workspace = Path(workspace)
    name = name_hint or archive.name
    packing = _packing(name)
    if packing is None:
        return archive
    with _new_dirs(workspace):
        return _unpack_into(archive, workspace, name, packing)


def _unpack_into(archive: Path, workspace: Path, name: str, packing: str) -> Path:
    """The one image of ``archive``, unpacked into ``workspace``."""
    try:
        if packing != ".zip":
            out = workspace / Path(name).stem
            if out == archive:  # a download of ".../image.gz" is itself stored as <key>/image
                out = out.with_name(f"{out.name}.unpacked")
            return _unpack(archive, out, lambda: _decompressed(archive, _DECOMPRESSORS[packing]))
        with zipfile.ZipFile(archive) as zf:
            member = _single_image_member(zf)
            return _unpack(archive, workspace / Path(member).name, lambda: zf.open(member))
    except zipfile.BadZipFile as exc:
        raise ExecutionFailure(f"{archive} is not a valid zip archive: {exc}") from exc
    except (zlib.error, EOFError) as exc:  # a zip member's corrupt or cut deflate stream
        raise ExecutionFailure(f"cannot decompress {archive}: {exc}") from exc
    except OSError as exc:  # reading the archive, or writing the image into a full cache
        raise ExecutionFailure(f"cannot unpack {archive}: {exc}") from exc


def _unpack(archive: Path, out: Path, open_stream: Callable[[], ContextManager[BinaryIO]]) -> Path:
    """Write the image ``open_stream`` yields to ``out``, unless ``out`` already holds it."""
    st = os.stat(archive)
    identity = f"size={st.st_size}\nmtime_ns={st.st_mtime_ns}\ninode={st.st_ino}\n"
    stamp = out.with_name(f".{out.name}.source")
    if out.is_file() and stamp.is_file() and stamp.read_text() == identity:
        return out
    tmp = out.with_name(f".extract.{os.getpid()}")
    try:
        with open_stream() as src, open(tmp, "wb") as dst:
            _write_sparse(src, dst)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    stamp.unlink(missing_ok=True)  # no moment where an old stamp vouches for new bytes
    os.replace(tmp, out)
    stamp.write_text(identity)
    return out


def _write_sparse(src: BinaryIO, dst: BinaryIO) -> None:
    """Copy the stream ``src`` into the empty file ``dst``, seeking over all-zero chunks."""
    buf = bytearray(CHUNK)
    total = 0
    while n := src.readinto(buf):
        chunk = buf if n == CHUNK else buf[:n]
        if chunk != _ZEROS[:n]:
            dst.seek(total)
            dst.write(chunk)
        total += n
    dst.truncate(total)


def iter_chunks(fh: BinaryIO, *, fill_holes: bool) -> Iterator[tuple[int, memoryview]]:
    """Yield ``(offset, bytes)`` for the file or device open as ``fh``, in order.

    Only data extents are read (SEEK_DATA/SEEK_HOLE); holes are skipped, or
    with ``fill_holes`` yielded as views of a shared zero buffer.  Where
    SEEK_DATA is unsupported the rest is read as data.  Each view is at most
    CHUNK bytes of one reused buffer and is valid until the next step.
    """
    size = fh.seek(0, os.SEEK_END)
    view = memoryview(bytearray(CHUNK))
    zeros = memoryview(_ZEROS)
    pos = 0
    while pos < size:
        try:
            start = min(os.lseek(fh.fileno(), pos, os.SEEK_DATA), size)
            end = min(os.lseek(fh.fileno(), start, os.SEEK_HOLE), size)
        except OSError as exc:
            start, end = (size, size) if exc.errno == errno.ENXIO else (pos, size)
        if fill_holes:
            for offset in range(pos, start, CHUNK):
                yield offset, zeros[:min(CHUNK, start - offset)]
        fh.seek(start)
        while start < end:
            n = fh.readinto(view[:min(CHUNK, end - start)])
            if not n:
                raise ExecutionFailure(f"{fh.name} ended at byte {start} while being read")
            yield start, view[:n]
            start += n
        pos = end


def copy_image_bytes(src: str | Path, dst: str | Path) -> None:
    """Copy ``src`` to ``dst`` preserving holes where the platform allows.

    The observable contract is byte equality; sparseness is an optimization
    for the large, mostly-empty images this tool handles.
    """
    src, dst = Path(src), Path(dst)
    try:
        with open(src, "rb", buffering=0) as fi, open(dst, "wb") as fo:
            fo.truncate(fi.seek(0, os.SEEK_END))
            for offset, chunk in iter_chunks(fi, fill_holes=False):
                fo.seek(offset)
                fo.write(chunk)
    except OSError as exc:
        raise ExecutionFailure(f"copying {src} to {dst} failed: {exc}") from exc


def write_to_device(src: str | Path, device: str | Path) -> None:
    """Write the bytes of ``src`` onto a block device, without truncating it.

    Holes in ``src`` are written as zeros: the device holds old data there.
    """
    try:
        with open(src, "rb", buffering=0) as fi:
            fd = os.open(device, os.O_WRONLY)
            try:
                for _, chunk in iter_chunks(fi, fill_holes=True):
                    while chunk:
                        chunk = chunk[os.write(fd, chunk):]
                os.fsync(fd)
            finally:
                os.close(fd)
    except OSError as exc:
        raise ExecutionFailure(f"writing {src} to device {device} failed: {exc}") from exc


def same_file(a: str | Path, b: str | Path) -> bool:
    """True when ``a`` and ``b`` spell one path, or ``b`` exists and is ``a`` through a link."""
    return (os.path.abspath(a) == os.path.abspath(b)
            or os.path.exists(b) and os.path.samefile(a, b))


def materialize_destination(plan: "ExecutionPlan", executor: "Executor", *,
                            resolved_source: str | Path | None = None) -> Path:
    """Emit the action that puts the source bytes at the destination.

    A destination that is the source itself needs no copy: one spelled with
    the same path, or an existing one that is the same file, through a
    symlink or a hard link.  A block-device destination becomes a
    device-write action; a file destination becomes an image copy.  Returns
    the destination path.
    """
    src = Path(resolved_source) if resolved_source is not None else Path(plan.source.locator)
    dest = Path(plan.destination.path)
    if same_file(src, dest):
        return dest
    if plan.destination.kind is TargetKind.BLOCK_DEVICE:
        executor.emit(Action(ActionKind.DEVICE_WRITE, {"src": str(src), "dst": str(dest)}))
        return dest
    if dest.is_dir():
        raise ExecutionFailure(f"destination {dest} is a directory")
    executor.emit(Action(ActionKind.COPY_IMAGE, {"src": str(src), "dst": str(dest)}))
    return dest
