import errno
import gzip
import hashlib
import lzma
import os
import resource
import stat as stat_module
import subprocess
import threading
import time
import zipfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import imgforge.source as source_mod
from imgforge.errors import EnvironmentProblem, ExecutionFailure, PifileError
from imgforge.executor import ActionKind
from imgforge.pifile import parse_pifile_text
from imgforge.plan import build_plan
from imgforge.source import (
    SourceKind,
    SourceSpec,
    _urllib_fetcher,
    cache_entry,
    cache_key,
    copy_image_bytes,
    default_probe,
    extract_image,
    fetch_to_cache,
    materialize_destination,
    resolve_cache_dir,
    write_to_device,
)

MiB = 1024 * 1024


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class CountingFetcher:
    def __init__(self, payload=b"image-bytes"):
        self.calls = 0
        self.payload = payload

    def __call__(self, url, dest):
        self.calls += 1
        Path(dest).write_bytes(self.payload)


class TestUrllibFetcher:
    """The real fetcher, run offline on file:// URLs."""

    def test_copies_the_bytes(self, tmp_path):
        src = tmp_path / "base.img"
        src.write_bytes(os.urandom(MiB + 17))  # more than one copy chunk
        _urllib_fetcher(src.as_uri(), tmp_path / "got.img")
        assert (tmp_path / "got.img").read_bytes() == src.read_bytes()

    def test_missing_file_is_a_fetch_failure(self, tmp_path):
        with pytest.raises(ExecutionFailure, match="gone.img"):
            _urllib_fetcher((tmp_path / "gone.img").as_uri(), tmp_path / "got.img")


class TestDefaultProbe:
    def test_block_device(self, monkeypatch):
        real_stat = os.stat

        def stat(path, *args, **kwargs):  # a block device at /dev/sdq, whatever /dev holds
            if path != "/dev/sdq":
                return real_stat(path, *args, **kwargs)
            return os.stat_result((stat_module.S_IFBLK | 0o660, *tuple(real_stat("/"))[1:]))

        monkeypatch.setattr(os, "stat", stat)
        assert default_probe("/dev/sdq") is SourceKind.BLOCK_DEVICE

    def test_directory_is_neither_kind(self, tmp_path):
        assert default_probe(str(tmp_path)) is None


class TestFetchToCache:
    def test_second_resolve_hits_cache(self, tmp_path):
        fetcher = CountingFetcher()
        first = fetch_to_cache("https://host/base.img", tmp_path, fetcher)
        second = fetch_to_cache("https://host/base.img", tmp_path, fetcher)
        assert fetcher.calls == 1
        assert first == second
        assert first.read_bytes() == second.read_bytes() == b"image-bytes"

    def test_failed_fetch_leaves_no_entry(self, tmp_path):
        def failing(url, dest):
            Path(dest).write_bytes(b"partial")
            raise ExecutionFailure("connection reset")

        with pytest.raises(ExecutionFailure, match="connection reset"):
            fetch_to_cache("https://host/base.img", tmp_path, failing)
        assert list(tmp_path.iterdir()) == []

    def test_distinct_urls_get_distinct_keys(self, tmp_path):
        a = "https://host/one.img"
        b = "https://host/two.img"
        assert cache_key(a) != cache_key(b)
        pa = fetch_to_cache(a, tmp_path, CountingFetcher(b"aaa"))
        pb = fetch_to_cache(b, tmp_path, CountingFetcher(b"bbb"))
        assert pa != pb
        assert pa.read_bytes() != pb.read_bytes()

    def test_refresh_forces_download(self, tmp_path):
        fetcher = CountingFetcher()
        fetch_to_cache("https://host/x.img", tmp_path, fetcher)
        fetch_to_cache("https://host/x.img", tmp_path, fetcher, refresh=True)
        assert fetcher.calls == 2

    def test_unwritable_cache_is_an_environment_problem(self, tmp_path, monkeypatch):
        # root may write anywhere, so the permission check is made to say no
        monkeypatch.setattr(os, "access", lambda path, mode: mode != os.W_OK)
        with pytest.raises(EnvironmentProblem) as info:
            fetch_to_cache("https://host/base.img", tmp_path, CountingFetcher())
        assert str(info.value) == f"cache directory {tmp_path} is not writable"
        assert info.value.exit_code == 3

    def test_write_past_the_file_size_limit_leaves_no_entry(self, tmp_path):
        # the real fetcher on a file:// URL, its .partial capped below the image; Python
        # ignores SIGXFSZ, so the write fails with EFBIG. The limit holds until restored
        src = tmp_path / "base.img"
        src.write_bytes(os.urandom(64 * 1024))
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))
        try:
            with pytest.raises(ExecutionFailure) as info:
                fetch_to_cache(src.as_uri(), tmp_path / "cache")
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        assert str(info.value) == f"fetching {src.as_uri()} failed: [Errno 27] File too large"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base.img"]

    def test_offline_miss_fails(self, tmp_path):
        fetcher = CountingFetcher()
        with pytest.raises(ExecutionFailure, match="offline mode"):
            fetch_to_cache("https://host/x.img", tmp_path, fetcher, offline=True)
        assert fetcher.calls == 0

    def test_offline_hit_succeeds(self, tmp_path):
        fetcher = CountingFetcher()
        fetch_to_cache("https://host/x.img", tmp_path, fetcher)
        path = fetch_to_cache("https://host/x.img", tmp_path, fetcher, offline=True)
        assert path.read_bytes() == b"image-bytes"
        assert fetcher.calls == 1

    def test_meta_records_url_and_size(self, tmp_path):
        fetch_to_cache("https://host/x.img", tmp_path, CountingFetcher(b"12345"))
        meta = (tmp_path / cache_key("https://host/x.img") / "meta").read_text()
        lines = dict(line.split("=", 1) for line in meta.splitlines())
        assert lines["url"] == "https://host/x.img"
        assert lines["size"] == "5"

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6))
    def test_cache_idempotent_over_n_resolves(self, tmp_path_factory, n):
        tmp_path = tmp_path_factory.mktemp("cache")
        fetcher = CountingFetcher()
        digests = {
            sha256(fetch_to_cache("https://host/n.img", tmp_path, fetcher))
            for _ in range(n)
        }
        assert fetcher.calls == 1
        assert len(digests) == 1


def lock_waiters(path):
    """How many opens of ``path``'s file wait in flock for its lock, as /proc/locks says."""
    inode = os.stat(path).st_ino
    return sum(1 for line in Path("/proc/locks").read_text().splitlines()
               if "->" in line and line.split()[-3].endswith(f":{inode}"))


def race_past_the_rename(monkeypatch, target, build):
    """Run ``build`` in threads B and A: B finds ``target`` not current, and its open of
    the ``.partial`` is then held until A has renamed ``target`` into place."""
    held, renamed, failures = threading.Event(), threading.Event(), []
    replace = os.replace

    def opening(file, *args, **kwargs):
        if threading.current_thread().name == "B" and str(file).endswith(".partial"):
            held.set()
            assert renamed.wait(10)
        return open(file, *args, **kwargs)

    def replacing(src, dst):
        replace(src, dst)
        if Path(dst) == target:
            renamed.set()

    def run():
        try:
            build()
        except BaseException as exc:
            failures.append(exc)

    monkeypatch.setattr(source_mod, "open", opening, raising=False)
    monkeypatch.setattr(source_mod.os, "replace", replacing)
    threads = [threading.Thread(target=run, name=name) for name in "BA"]
    threads[0].start()
    assert held.wait(10)
    threads[1].start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    assert failures == []


class TestPublish:
    """Every cache file is written as ``.<name>.partial`` under flock, then renamed."""

    def test_a_build_waiting_on_a_failing_one_publishes_the_image(self, tmp_path):
        url = "https://host/base.img"
        holding = threading.Event()

        def failing(url, dest):
            Path(dest).write_bytes(b"partial")
            holding.set()
            deadline = time.monotonic() + 10
            while not lock_waiters(dest) and time.monotonic() < deadline:
                time.sleep(0.01)
            raise ExecutionFailure(f"connection reset; {lock_waiters(dest)} waiting")

        fetcher = CountingFetcher()
        outcome = {}

        def build(name, fetcher):
            try:
                outcome[name] = fetch_to_cache(url, tmp_path / "cache", fetcher)
            except ExecutionFailure as exc:
                outcome[name] = exc

        first = threading.Thread(target=build, args=("first", failing))
        second = threading.Thread(target=build, args=("second", fetcher))
        first.start()
        assert holding.wait(10)
        second.start()
        for thread in (first, second):
            thread.join(10)
            assert not thread.is_alive()
        assert str(outcome["first"]) == "connection reset; 1 waiting"
        assert outcome["second"].read_bytes() == b"image-bytes"
        assert fetcher.calls == 1
        entry = Path("cache", cache_key(url))
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
            Path("cache"), entry, entry / "image", entry / "meta"]

    def test_a_build_waiting_on_a_publishing_one_looks_again(self, tmp_path):
        # the second build waits in flock on the first one's .partial, which is renamed
        # into place meanwhile: it looks again, finds the image and downloads nothing
        url = "https://host/base.img"
        holding = threading.Event()

        def slow(url, dest):
            Path(dest).write_bytes(b"image-bytes")
            holding.set()
            deadline = time.monotonic() + 10
            while not lock_waiters(dest) and time.monotonic() < deadline:
                time.sleep(0.01)

        fetcher, outcome = CountingFetcher(), {}

        def build(name, fetcher):
            outcome[name] = fetch_to_cache(url, tmp_path, fetcher)

        first = threading.Thread(target=build, args=("first", slow))
        second = threading.Thread(target=build, args=("second", fetcher))
        first.start()
        assert holding.wait(10)
        second.start()
        for thread in (first, second):
            thread.join(10)
            assert not thread.is_alive()
        image = tmp_path / cache_key(url) / "image"
        assert outcome == {"first": image, "second": image}
        assert image.read_bytes() == b"image-bytes"
        assert fetcher.calls == 0
        assert sorted(p.name for p in image.parent.iterdir()) == ["image", "meta"]

    def test_a_hit_takes_no_lock(self, tmp_path, monkeypatch):
        url = "https://host/base.img.gz"
        fetched = fetch_to_cache(url, tmp_path, CountingFetcher(gzip.compress(b"raw")))
        out = extract_image(fetched, fetched.parent, name_hint="base.img.gz")

        def flock(*args):
            raise AssertionError("a hit took a lock")

        def opening(file, *args, **kwargs):
            assert not str(file).endswith(".partial"), f"a hit opened {file}"
            return open(file, *args, **kwargs)

        monkeypatch.setattr(source_mod.fcntl, "flock", flock)
        monkeypatch.setattr(source_mod, "open", opening, raising=False)
        assert fetch_to_cache(url, tmp_path, CountingFetcher()) == fetched
        assert extract_image(fetched, fetched.parent, name_hint="base.img.gz") == out

    def test_a_build_that_opens_after_the_rename_does_not_unpack_again(self, tmp_path,
                                                                         monkeypatch):
        archive = tmp_path / "base.img.gz"
        archive.write_bytes(gzip.compress(b"image-payload" * 100))
        work = tmp_path / "work"
        writers, write_sparse = [], source_mod._write_sparse

        def counting(src, dst):
            writers.append(threading.current_thread().name)
            write_sparse(src, dst)

        monkeypatch.setattr(source_mod, "_write_sparse", counting)
        race_past_the_rename(monkeypatch, work / "base.img", lambda: extract_image(archive, work))
        assert writers == ["A"]
        assert (work / "base.img").read_bytes() == b"image-payload" * 100
        assert sorted(p.name for p in work.iterdir()) == [".base.img.source", "base.img"]

    def test_a_build_that_opens_after_the_rename_does_not_download_again(self, tmp_path,
                                                                           monkeypatch):
        url = "https://host/base.img"
        image = tmp_path / cache_key(url) / "image"
        fetchers = []

        def fetcher(url, dest):
            fetchers.append(threading.current_thread().name)
            Path(dest).write_bytes(b"image-bytes")

        race_past_the_rename(monkeypatch, image, lambda: fetch_to_cache(url, tmp_path, fetcher))
        assert fetchers == ["A"]
        assert image.read_bytes() == b"image-bytes"
        assert sorted(p.name for p in image.parent.iterdir()) == ["image", "meta"]

    def test_a_killed_builds_partial_download_is_reused(self, tmp_path):
        url = "https://host/base.img"
        entry = tmp_path / cache_key(url)
        entry.mkdir()
        (entry / ".image.partial").write_bytes(os.urandom(2 * MiB))
        assert fetch_to_cache(url, tmp_path, CountingFetcher()).read_bytes() == b"image-bytes"
        assert sorted(p.name for p in entry.iterdir()) == ["image", "meta"]

    def test_a_killed_builds_partial_unpack_is_reused(self, tmp_path):
        payload = b"image-payload" * 100
        archive = tmp_path / "base.img.xz"
        archive.write_bytes(lzma.compress(payload))
        (tmp_path / "work").mkdir()
        (tmp_path / "work" / ".base.img.partial").write_bytes(os.urandom(2 * MiB))
        assert extract_image(archive, tmp_path / "work").read_bytes() == payload
        assert sorted(p.name for p in (tmp_path / "work").iterdir()) == [
            ".base.img.source", "base.img"]

    def test_a_build_that_starts_after_the_rename_finds_the_image_current(self, tmp_path,
                                                                          monkeypatch):
        # the stamp is written before the image's rename, so no build that starts after it
        # unpacks again; one starts in a thread right after the rename, and is joined
        archive = tmp_path / "base.img.gz"
        archive.write_bytes(gzip.compress(b"image-payload" * 100))
        work = tmp_path / "work"
        writes, threads, results = [], [], []
        write_sparse, replace = source_mod._write_sparse, os.replace

        def counting(src, dst):
            writes.append(dst.name)
            write_sparse(src, dst)

        def replacing(src, dst):
            replace(src, dst)
            if Path(dst) == work / "base.img" and not threads:
                threads.append(threading.Thread(
                    target=lambda: results.append(extract_image(archive, work))))
                threads[0].start()
                threads[0].join(10)

        monkeypatch.setattr(source_mod, "_write_sparse", counting)
        monkeypatch.setattr(source_mod.os, "replace", replacing)
        assert extract_image(archive, work).read_bytes() == b"image-payload" * 100
        assert not threads[0].is_alive()
        assert results == [work / "base.img"]
        assert len(writes) == 1
        assert sorted(p.name for p in work.iterdir()) == [".base.img.source", "base.img"]


class TestCacheEntry:
    @pytest.mark.parametrize("kind, locator, name", [
        (SourceKind.URL, "https://host/images/raspbian.img.xz?v=2", "raspbian.img.xz"),
        (SourceKind.URL, "https://host/", "image"),
        (SourceKind.LOCAL_FILE, "/srv/images/base.img.gz", "base.img.gz"),
        (SourceKind.BLOCK_DEVICE, "/dev/sdz", "sdz"),
    ])
    def test_name(self, kind, locator, name):
        assert SourceSpec(kind, locator).name == name

    def test_download_and_its_unpacked_image_share_the_entry(self, tmp_path):
        url = "https://host/base.img.gz"
        image = fetch_to_cache(url, tmp_path, CountingFetcher(gzip.compress(b"raw")))
        entry = cache_entry(tmp_path, SourceSpec(SourceKind.URL, url))
        assert image.parent == entry == tmp_path / cache_key(url)

    def test_local_archive_is_keyed_by_its_absolute_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        entry = cache_entry("cache", SourceSpec(SourceKind.LOCAL_FILE, "d/../base.img.xz"))
        assert entry == Path("cache") / cache_key(f"file://{tmp_path / 'base.img.xz'}")

    def test_cache_dir_flag_then_env_then_beside_the_pifile(self, tmp_path):
        pifile = tmp_path / "a.Pifile"
        env = {"PIMOD_CACHE": "/env/cache"}
        assert resolve_cache_dir("/flag", env, pifile) == Path("/flag")
        assert resolve_cache_dir(None, env, pifile) == Path("/env/cache")
        assert resolve_cache_dir(None, {"PIMOD_CACHE": ""}, pifile) == tmp_path / ".pimod-cache"


class TestExtractImage:
    def test_raw_image_passthrough(self, tmp_path):
        img = tmp_path / "base.img"
        img.write_bytes(b"raw")
        assert extract_image(img, tmp_path) == img

    def test_gzip_round_trip_against_external_tool(self, tmp_path):
        # compress with the standalone gzip binary; only extraction uses our code
        img = tmp_path / "base.img"
        img.write_bytes(bytes(range(256)) * 64)
        original = sha256(img)
        subprocess.run(["gzip", "-k", str(img)], check=True)
        out = extract_image(tmp_path / "base.img.gz", tmp_path / "work")
        assert sha256(out) == original
        assert out.name == "base.img"

    def test_xz(self, tmp_path):
        payload = b"image-payload" * 100
        archive = tmp_path / "base.img.xz"
        archive.write_bytes(lzma.compress(payload))
        (tmp_path / "work").mkdir()
        out = extract_image(archive, tmp_path / "work")
        assert out.read_bytes() == payload

    def test_zip_single_image(self, tmp_path):
        payload = b"zipped-image"
        archive = tmp_path / "base.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            zf.writestr("base.img", payload)
            zf.writestr("README.txt", "not an image")
        out = extract_image(archive, tmp_path)
        assert out.read_bytes() == payload

    def test_zip_two_images(self, tmp_path):
        archive = tmp_path / "two.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            zf.writestr("one.img", b"1")
            zf.writestr("two.img", b"2")
        with pytest.raises(ExecutionFailure, match="archive holds 2 images"):
            extract_image(archive, tmp_path)

    def test_zip_without_image(self, tmp_path):
        archive = tmp_path / "none.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            zf.writestr("README", "empty")
        with pytest.raises(ExecutionFailure, match="archive contains no .img member"):
            extract_image(archive, tmp_path)

    def test_corrupt_gzip(self, tmp_path):
        archive = tmp_path / "bad.img.gz"
        archive.write_bytes(b"\x1f\x8b" + b"garbage")
        with pytest.raises(ExecutionFailure, match="cannot decompress"):
            extract_image(archive, tmp_path)

    def test_tarball_rejected(self, tmp_path):
        archive = tmp_path / "base.tar.gz"
        archive.write_bytes(gzip.compress(b"tar?"))
        with pytest.raises(ExecutionFailure, match="unsupported archive format: base.tar.gz"):
            extract_image(archive, tmp_path)

    def test_tgz_rejected(self, tmp_path):
        archive = tmp_path / "base.tgz"
        archive.write_bytes(b"anything")
        with pytest.raises(ExecutionFailure, match="unsupported archive format: base.tgz"):
            extract_image(archive, tmp_path)

    def test_name_hint_drives_format(self, tmp_path):
        # cache entries are stored under a fixed name; the hint carries the suffix
        stored = tmp_path / "image"
        stored.write_bytes(gzip.compress(b"hinted"))
        out = extract_image(stored, tmp_path, name_hint="raspbian.img.gz")
        assert out.name == "raspbian.img"
        assert out.read_bytes() == b"hinted"

    def test_extraction_is_reused(self, tmp_path):
        archive = tmp_path / "base.img.gz"
        archive.write_bytes(gzip.compress(b"once"))
        first = extract_image(archive, tmp_path)
        marker = first.stat().st_mtime_ns
        second = extract_image(archive, tmp_path)
        assert second == first
        assert second.stat().st_mtime_ns == marker

    @pytest.mark.parametrize("packing", ["gz", "zip", "xz", "zst"])
    def test_extraction_is_sparse(self, tmp_path, packing):
        # data in the first and an unaligned middle chunk; the input ends in zeros
        payload = b"boot" + bytes(3 * MiB) + b"root" * 1000 + bytes(5 * MiB + 7)
        if packing == "zip":
            archive = tmp_path / "base.zip"
            with zipfile.ZipFile(archive, "w", zipfile.ZIP_DEFLATED) as zf:
                zf.writestr("base.img", payload)
        else:  # packed by the format's own tool
            (tmp_path / "base.img").write_bytes(payload)
            tool = {"gz": "gzip", "xz": "xz", "zst": "zstd"}[packing]
            subprocess.run([tool, "-q", "--keep", str(tmp_path / "base.img")], check=True)
            archive = tmp_path / f"base.img.{packing}"
        out = extract_image(archive, tmp_path / "work")
        assert out.read_bytes() == payload
        assert out.stat().st_size == len(payload)
        assert out.stat().st_blocks * 512 <= 2 * MiB + 64 * 1024

    def test_multi_block_xz_round_trips_sparse(self, tmp_path):
        # nine 1 MiB blocks, which xz -T0 decodes in parallel; most are all zeros
        payload = b"boot" + bytes(3 * MiB) + b"root" * 1000 + bytes(5 * MiB + 7)
        (tmp_path / "base.img").write_bytes(payload)
        subprocess.run(["xz", "-q", "--keep", "-T2", "--block-size=1MiB",
                        str(tmp_path / "base.img")], check=True)
        out = extract_image(tmp_path / "base.img.xz", tmp_path / "work")
        assert out.read_bytes() == payload
        assert out.stat().st_blocks * 512 <= 2 * MiB + 64 * 1024

    def test_rewritten_local_archive_is_extracted_again(self, tmp_path):
        archive = tmp_path / "base.img.gz"
        archive.write_bytes(gzip.compress(b"first"))
        first = extract_image(archive, tmp_path / "work")
        archive.write_bytes(gzip.compress(b"second, longer"))
        second = extract_image(archive, tmp_path / "work")
        assert second == first
        assert second.read_bytes() == b"second, longer"
        assert extract_image(archive, tmp_path / "work").read_bytes() == b"second, longer"

    def test_refreshed_download_is_extracted_again(self, tmp_path):
        url = "https://host/raspbian.img.xz"
        # equal sizes, so only the re-download itself can tell the versions apart
        for payload, refresh in ((b"version-1", False), (b"version-2", True)):
            fetched = fetch_to_cache(url, tmp_path, CountingFetcher(lzma.compress(payload)),
                                     refresh=refresh)
            out = extract_image(fetched, fetched.parent, name_hint="raspbian.img.xz")
            assert out.read_bytes() == payload

    def test_failed_unpack_keeps_the_download_entry(self, tmp_path):
        url = "https://host/bad.img.xz"
        fetched = fetch_to_cache(url, tmp_path, CountingFetcher(b"not xz at all"))
        with pytest.raises(ExecutionFailure, match="cannot decompress"):
            extract_image(fetched, fetched.parent, name_hint="bad.img.xz")
        assert sorted(p.name for p in fetched.parent.iterdir()) == ["image", "meta"]

    def test_download_named_like_the_cache_entry_keeps_its_archive(self, tmp_path):
        # the URL basename "image.gz" unpacks to "image", the name the download is stored under
        fetcher = CountingFetcher(gzip.compress(b"payload"))
        for _ in range(2):
            fetched = fetch_to_cache("https://host/image.gz", tmp_path, fetcher)
            out = extract_image(fetched, fetched.parent, name_hint="image.gz")
            assert out != fetched
            assert out.read_bytes() == b"payload"
        assert gzip.decompress(fetched.read_bytes()) == b"payload"


class TestMaterializeDestination:
    def _plan(self, tmp_path, text, probe):
        pifile = parse_pifile_text(text, {}, source_path=tmp_path / "m.Pifile")
        return build_plan(pifile, probe)

    def test_copy_is_byte_identical(self, tmp_path):
        from imgforge.executor import LocalExecutor

        src = tmp_path / "a.img"
        src.write_bytes(bytes(range(256)) * 1024)
        plan = self._plan(tmp_path, "FROM a.img\nTO b.img\n",
                          lambda loc: SourceKind.LOCAL_FILE if loc == str(src) else None)
        backend = LocalExecutor(runner=lambda argv, **kw: (0, ""))
        for action in materialize_destination(plan, plan.source.locator):
            backend.emit(action)
        assert sha256(tmp_path / "b.img") == sha256(src)  # byte equality
        assert sha256(src) == sha256(src)  # source untouched

    def test_sparse_copy_preserves_bytes(self, tmp_path):
        src = tmp_path / "sparse.img"
        with open(src, "wb") as fh:
            fh.write(b"head")
            fh.seek(1024 * 1024)
            fh.write(b"tail")
        dst = tmp_path / "copy.img"
        copy_image_bytes(src, dst)
        assert dst.read_bytes() == src.read_bytes()

    def test_source_that_shrinks_while_copied_is_refused(self, tmp_path, monkeypatch):
        src = tmp_path / "a.img"
        src.write_bytes(b"\x01" * (3 * MiB))
        real_iter_chunks = source_mod.iter_chunks

        def shrinking(fh, **kwargs):  # another writer cuts the file after the first chunk
            chunks = real_iter_chunks(fh, **kwargs)
            yield next(chunks)
            os.truncate(src, MiB)
            yield from chunks

        monkeypatch.setattr(source_mod, "iter_chunks", shrinking)
        with pytest.raises(ExecutionFailure) as exc_info:
            copy_image_bytes(src, tmp_path / "b.img")
        assert str(exc_info.value) == f"{src} ended at byte {MiB} while being read"
        assert exc_info.value.exit_code == 2

    def test_device_write_zeroes_holes_over_old_data(self, tmp_path, monkeypatch):
        src = tmp_path / "sparse.img"
        with open(src, "wb") as fh:
            fh.write(b"head")
            fh.seek(2 * MiB + 5)
            fh.write(b"tail")
            fh.truncate(3 * MiB + 1)
        device = tmp_path / "device"
        device.write_bytes(b"\xff" * (4 * MiB))
        real_write = os.write
        # a device may accept less than it is given; every byte must still land
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:4096]))
        write_to_device(src, device)
        written = device.read_bytes()
        assert written[:3 * MiB + 1] == src.read_bytes()
        assert written[3 * MiB + 1:] == b"\xff" * (MiB - 1)

    def test_device_write_onto_an_absent_path_is_a_build_failure(self, tmp_path):
        src = tmp_path / "a.img"
        src.write_bytes(b"data")
        device = tmp_path / "absent"
        with pytest.raises(ExecutionFailure) as info:
            write_to_device(src, device)
        assert str(info.value) == (f"writing {src} to device {device} failed: [Errno "
                                   f"{errno.ENOENT}] No such file or directory: '{device}'")
        assert info.value.exit_code == 2

    def test_inplace_emits_nothing(self, tmp_path):
        src = tmp_path / "a.img"
        src.write_bytes(b"data")
        plan = self._plan(tmp_path, "INPLACE a.img\n",
                          lambda loc: SourceKind.LOCAL_FILE)
        assert materialize_destination(plan, plan.source.locator) == []
        assert plan.destination.path == plan.source.locator

    def test_same_path_emits_nothing(self, tmp_path):
        src = tmp_path / "a.img"
        src.write_bytes(b"data")
        plan = self._plan(tmp_path, "FROM a.img\nTO a.img\n",
                          lambda loc: SourceKind.LOCAL_FILE)
        assert materialize_destination(plan, plan.source.locator) == []

    @pytest.mark.parametrize("text", ["FROM /dev/sdz\nTO /dev/sdz\n", "INPLACE /dev/sdz\n"])
    def test_device_onto_itself_emits_nothing(self, tmp_path, text):
        plan = self._plan(tmp_path, text,
                          lambda loc: SourceKind.BLOCK_DEVICE if loc == "/dev/sdz" else None)
        assert materialize_destination(plan, plan.source.locator) == []
        assert plan.destination.path == "/dev/sdz"

    def test_device_destination_emits_device_write(self, tmp_path):
        def probe(locator):
            if locator == "/dev/sdc":
                return SourceKind.BLOCK_DEVICE
            return SourceKind.LOCAL_FILE

        plan = self._plan(tmp_path, "FROM a.img\nTO /dev/sdc\n", probe)
        [action] = materialize_destination(plan, plan.source.locator)
        assert action.kind is ActionKind.DEVICE_WRITE
        assert action.payload["dst"] == "/dev/sdc"

    def test_directory_destination_rejected(self, tmp_path):
        (tmp_path / "outdir").mkdir()
        src = tmp_path / "a.img"
        src.write_bytes(b"data")
        # refused by the planner, at the TO line, before any copy is planned
        with pytest.raises(PifileError, match=r"m\.Pifile:2: destination is not a file or "
                                              r"block device: .*/outdir$"):
            self._plan(tmp_path, "FROM a.img\nTO outdir\n",
                       lambda loc: SourceKind.LOCAL_FILE if loc == str(src) else None)
