import gzip
import hashlib
import lzma
import os
import subprocess
import zipfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from imgforge.errors import ExecutionFailure, PifileError
from imgforge.executor import ActionKind, DryRunExecutor
from imgforge.pifile import parse_pifile_text
from imgforge.plan import build_plan
from imgforge.source import (
    SourceKind,
    SourceSpec,
    _urllib_fetcher,
    cache_entry,
    cache_key,
    classify_source,
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


class TestClassifySource:
    def test_http_url(self):
        assert classify_source("https://host/img.zip", lambda loc: None) is SourceKind.URL

    def test_ftp_url(self):
        assert classify_source("ftp://host/base.img", lambda loc: None) is SourceKind.URL

    def test_device_probe(self):
        probe = lambda loc: SourceKind.BLOCK_DEVICE if loc == "/dev/sdc" else None
        assert classify_source("/dev/sdc", probe) is SourceKind.BLOCK_DEVICE

    def test_local_file_fallback(self, tmp_path):
        img = tmp_path / "base.img"
        img.write_bytes(b"x")
        assert classify_source(str(img)) is SourceKind.LOCAL_FILE

    def test_nothing_matches(self, tmp_path):
        with pytest.raises(PifileError, match="source not found"):
            classify_source(str(tmp_path / "gone.img"))

    def test_unknown_scheme_is_not_a_url(self):
        with pytest.raises(PifileError, match="source not found"):
            classify_source("weird://host/x", lambda loc: None)


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
        assert not (tmp_path / cache_key("https://host/base.img")).exists()
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".lock"]
        assert leftovers == []

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
        dest = materialize_destination(plan, backend)
        assert sha256(dest) == sha256(src)  # byte equality
        assert sha256(src) == sha256(src)  # source untouched

    def test_sparse_copy_preserves_bytes(self, tmp_path):
        from imgforge.source import copy_image_bytes

        src = tmp_path / "sparse.img"
        with open(src, "wb") as fh:
            fh.write(b"head")
            fh.seek(1024 * 1024)
            fh.write(b"tail")
        dst = tmp_path / "copy.img"
        copy_image_bytes(src, dst)
        assert dst.read_bytes() == src.read_bytes()

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

    def test_inplace_emits_nothing(self, tmp_path):
        src = tmp_path / "a.img"
        src.write_bytes(b"data")
        plan = self._plan(tmp_path, "INPLACE a.img\n",
                          lambda loc: SourceKind.LOCAL_FILE)
        backend = DryRunExecutor()
        dest = materialize_destination(plan, backend)
        assert backend.actions == []
        assert str(dest) == plan.source.locator

    def test_same_path_emits_nothing(self, tmp_path):
        src = tmp_path / "a.img"
        src.write_bytes(b"data")
        plan = self._plan(tmp_path, "FROM a.img\nTO a.img\n",
                          lambda loc: SourceKind.LOCAL_FILE)
        backend = DryRunExecutor()
        materialize_destination(plan, backend)
        assert backend.actions == []

    @pytest.mark.parametrize("text", ["FROM /dev/sdz\nTO /dev/sdz\n", "INPLACE /dev/sdz\n"])
    def test_device_onto_itself_emits_nothing(self, tmp_path, text):
        plan = self._plan(tmp_path, text,
                          lambda loc: SourceKind.BLOCK_DEVICE if loc == "/dev/sdz" else None)
        backend = DryRunExecutor()
        assert str(materialize_destination(plan, backend)) == "/dev/sdz"
        assert backend.actions == []

    def test_device_destination_emits_device_write(self, tmp_path):
        def probe(locator):
            if locator == "/dev/sdc":
                return SourceKind.BLOCK_DEVICE
            return SourceKind.LOCAL_FILE

        plan = self._plan(tmp_path, "FROM a.img\nTO /dev/sdc\n", probe)
        backend = DryRunExecutor()
        materialize_destination(plan, backend)
        assert [a.kind for a in backend.actions] == [ActionKind.DEVICE_WRITE]
        assert backend.actions[0].payload["dst"] == "/dev/sdc"

    def test_directory_destination_rejected(self, tmp_path):
        (tmp_path / "outdir").mkdir()
        src = tmp_path / "a.img"
        src.write_bytes(b"data")
        plan = self._plan(tmp_path, "FROM a.img\nTO outdir\n",
                          lambda loc: SourceKind.LOCAL_FILE if loc == str(src) else None)
        with pytest.raises(ExecutionFailure, match="is a directory"):
            materialize_destination(plan, DryRunExecutor())
