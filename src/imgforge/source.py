"""Source resolution: base-image lookup, download cache, and materialization.

A FROM argument is one of three things: an HTTP(S)/FTP URL, a block device,
or a local file.  URLs are downloaded once into a content-keyed cache
(`sha256(url)`), so repeated builds of the same Pifile hit the network a
single time.  Compressed sources are unpacked before use: .gz/.xz/.zst by
the format's own tool on imgforge's PATH (gzip, xz, zstd), .zip by zipfile;
an archive must contain exactly one image.  xz and zstd --sparse leave its
zero runs as holes at their own granularity, .gz and .zip each all-zero MiB.

This module alone owns the cache layout, under the directory given by
--cache, $PIMOD_CACHE, or a `.pimod-cache` directory beside the Pifile; a
raw local source never touches it::

    <key>/image     the downloaded bytes
    <key>/meta      url=..., fetched_at=..., size=... (one per line)
    <key>/<name>    an unpacked image; ``.<name>.source`` stamps its archive's size, mtime
                    and inode, and its own as image_inode= (a local archive's key hashes its path)

``_publish`` writes every cache file and the --dry-run log as ``.<name>.partial`` beside
it under an exclusive flock, then renames it into place; ``meta`` and the stamp are written
before the rename.  A build that waited for the lock asks again and fills nothing another
build published meanwhile, so builds of one entry share one download and one unpack.  A
failed download or unpack and an --offline miss leave nothing; a killed build's ``.partial``
is reused by the next build of its entry.  The lock is on a file, not the entry directory:
on NFS flock is emulated with fcntl byte-range locks (flock(2), NOTES), and an exclusive
one needs a descriptor open for writing, which a directory cannot have.
"""

from __future__ import annotations

import errno
import fcntl
import hashlib
import locale
import logging
import os
import shutil
import signal
import stat as stat_module
import subprocess
import tempfile
import time
import urllib.parse
import zipfile
import zlib
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import takewhile
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterator, Mapping

from . import child
from .actions import Action, ActionKind
from .errors import EnvironmentProblem, ExecutionFailure

if TYPE_CHECKING:
    from .plan import ExecutionPlan

logger = logging.getLogger(__name__)

Fetcher = Callable[[str, Path], None]

URL_SCHEMES = frozenset({"http", "https", "ftp"})

FETCH_TIMEOUT_S = 60  # per blocking socket operation, not for the whole download

_PACKED_SUFFIXES = frozenset({".gz", ".xz", ".zst", ".zip"})
_REJECTED_SUFFIXES = frozenset({".bz2", ".tar", ".tgz", ".txz", ".tbz2", ".lz4", ".7z", ".rar"})
# each stream format's own tool, reading the archive on stdin; xz -T0 decodes blocks in parallel.
# xz and zstd --sparse write the cache file and its holes themselves (xz(1), zstd(1)); gzip
# has no sparse mode, so only its output is piped through _write_sparse
_DECOMPRESSORS = {".gz": ("gzip", "-dc"), ".xz": ("xz", "-dc", "-T0"),
                  ".zst": ("zstd", "-dc", "--sparse")}
_SIGNALS = {sig.value: sig.name for sig in signal.Signals}  # SIGRTMIN+1 and the like have none

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


def _publish(target: Path, fill: Callable[[BinaryIO], object],
             current: Callable[[], bool] = lambda: False) -> None:
    """Unless ``current()``, also once ``target``'s ``.partial`` is locked, have ``fill`` write
    that empty file and rename it into place; on failure it and the directories made for it go."""
    tmp = target.with_name(f".{target.name}.partial")
    while not current():
        with _new_dirs(target.parent), ExitStack() as stack:  # again: a failed build removes them
            mine = False
            with suppress(FileNotFoundError):  # a failed build removed the file or its directory
                fh = stack.enter_context(open(tmp, "r+b", opener=lambda path, flags: os.open(
                    path, flags | os.O_CREAT, 0o666)))
                fcntl.flock(fh, fcntl.LOCK_EX)
                st = os.fstat(fh.fileno())
                mine = os.path.samestat(st, os.stat(tmp))  # not renamed or removed meanwhile
            if not mine:
                continue
            try:
                if current():  # another build published it between the check above and the open
                    tmp.unlink()
                    return
                if st.st_size:  # a killed build's; on ext4, truncating a new file costs a block
                    fh.truncate()
                fill(fh)
                fh.flush()  # a write that fails, fails before the rename
                os.replace(tmp, target)
                return
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise


def publish_text(path: Path, text: str) -> None:
    """Replace ``path`` with ``text``, encoded as ``Path.write_text`` does, through a
    ``.partial`` file renamed over it; a failed write leaves ``path`` as it was."""
    data = text.encode(locale.getpreferredencoding(False))
    try:
        if path.exists() and not path.is_file():  # /dev/null, a FIFO: written, never replaced
            path.write_bytes(data)
        else:
            _publish(path, lambda fh: fh.write(data))
    except OSError as exc:
        raise ExecutionFailure(f"cannot write {path}: {exc}") from exc


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

    A hit returns the stored path and opens nothing.  A miss is downloaded into
    ``.image.partial``, ``meta`` written, and renamed into place by ``_publish``,
    so a failed transfer leaves no cache entry behind.  ``refresh`` forces a
    re-download; ``offline`` turns a miss into an error.
    """
    cache_dir = Path(cache_dir)
    image = cache_dir / cache_key(url) / "image"

    def download(tmp: BinaryIO) -> None:
        (fetcher or _urllib_fetcher)(url, Path(tmp.name))
        size = os.fstat(tmp.fileno()).st_size
        (image.parent / "meta").write_text(
            f"url={url}\nfetched_at={int(time.time())}\nsize={size}\n")
        logger.info("fetched %s (%d bytes)", url, size)

    with _new_dirs(cache_dir):
        if not os.access(cache_dir, os.W_OK):
            raise EnvironmentProblem(f"cache directory {cache_dir} is not writable")
        if not refresh and image.is_file():
            logger.debug("cache hit for %s at %s", url, image)
        elif offline:
            raise ExecutionFailure(f"offline mode: {url} is not in the cache")
        else:
            _publish(image, download, (lambda: False) if refresh else image.is_file)
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


def _decompress(archive: Path, argv: tuple[str, ...], dst: BinaryIO) -> None:
    """Unpack ``archive`` with ``argv`` into the empty file ``dst``; a failure kills the tool."""
    stdout = subprocess.PIPE if argv[0] == "gzip" else dst  # see _DECOMPRESSORS
    with open(archive, "rb") as stdin, tempfile.TemporaryFile() as stderr:  # a file never fills
        with child.started(argv, stdin=stdin, stdout=stdout, stderr=stderr) as proc:
            if proc.stdout:
                _write_sparse(proc.stdout, dst)
            proc.wait()
        if status := proc.returncode:
            stderr.seek(0)
            detail = stderr.read().decode(errors="replace").strip() or (
                f"status {status}" if status > 0
                else f"{argv[0]} was killed by {_SIGNALS.get(-status, f'signal {-status}')}")
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
    Zero runs are left as holes: xz's and zstd's own, or each all-zero MiB
    of a .gz or .zip.  Unsupported container formats (tarballs and friends)
    are rejected rather than silently treated as raw images.  A failed
    unpack removes the directories it made for ``workspace`` again, as far
    as they are still empty.
    """
    archive = Path(archive)
    workspace = Path(workspace)
    name = name_hint or archive.name
    packing = _packing(name)
    if packing is None:
        return archive
    try:
        if packing != ".zip":
            out = workspace / Path(name).stem
            if out == archive:  # a download of ".../image.gz" is itself stored as <key>/image
                out = out.with_name(f"{out.name}.unpacked")
            return _unpack(archive, out, partial(_decompress, archive, _DECOMPRESSORS[packing]))
        with zipfile.ZipFile(archive) as zf, zf.open(_single_image_member(zf)) as src:
            return _unpack(archive, workspace / Path(src.name).name, partial(_write_sparse, src))
    except zipfile.BadZipFile as exc:
        raise ExecutionFailure(f"{archive} is not a valid zip archive: {exc}") from exc
    except (zlib.error, EOFError) as exc:  # a zip member's corrupt or cut deflate stream
        raise ExecutionFailure(f"cannot decompress {archive}: {exc}") from exc
    except OSError as exc:  # reading the archive, or writing the image into a full cache
        raise ExecutionFailure(f"cannot unpack {archive}: {exc}") from exc


def _unpack(archive: Path, out: Path, write: Callable[[BinaryIO], None]) -> Path:
    """Have ``write`` fill ``out`` with the image, unless ``out`` already holds it."""
    st = os.stat(archive)
    identity = f"size={st.st_size}\nmtime_ns={st.st_mtime_ns}\ninode={st.st_ino}\n"
    stamp = out.with_name(f".{out.name}.source")

    def fill(dst: BinaryIO) -> None:
        write(dst)
        # before the rename, so the image is current once in place; it vouches for no other image
        stamp.write_text(f"{identity}image_inode={os.fstat(dst.fileno()).st_ino}\n")

    _publish(out, fill, lambda: out.is_file() and stamp.is_file()
             and stamp.read_text() == f"{identity}image_inode={out.stat().st_ino}\n")
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


def materialize_destination(plan: "ExecutionPlan", src: str | Path) -> list[Action]:
    """The action that puts ``src``, the source image as setup resolved it, at the
    destination, if one is needed.

    A destination that is the source itself needs no copy: one spelled with
    the same path, or an existing one that is the same file, through a
    symlink or a hard link.  A block-device destination becomes a
    device-write action; a file destination becomes an image copy.
    """
    dest = Path(plan.destination.path)
    if same_file(src, dest):
        return []
    if plan.destination.kind is TargetKind.BLOCK_DEVICE:
        return [Action(ActionKind.DEVICE_WRITE, {"src": str(src), "dst": str(dest)})]
    return [Action(ActionKind.COPY_IMAGE, {"src": str(src), "dst": str(dest)})]
