import errno
import hashlib
import io
import os
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import mbr_oracle
from imgforge.errors import ExecutionFailure, PifileError
from imgforge.executor import (
    Action,
    ActionKind,
    DryRunExecutor,
    LocalExecutor,
    RunOptions,
    execute,
)
from imgforge.image import (
    PartitionEntry,
    PartitionTable,
    check_partition,
    grow_image_file,
    parse_size,
    pump,
    read_partition_table,
    render_size,
    resize_partition_entry,
)
from imgforge.pifile import parse_pifile_text
from imgforge.plan import build_plan
from imgforge.source import SourceKind


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def plan_for(tmp_path, image, pump_spec="16M", partition=2):
    text = f"FROM {image.name} {partition}\nTO {image.name}\nPUMP {pump_spec}\n"
    pifile = parse_pifile_text(text, {}, source_path=tmp_path / "grow.Pifile")
    return build_plan(pifile, lambda loc: SourceKind.LOCAL_FILE)


def stub_runner(argv, **kwargs):
    return 0, ""


def decode(path):
    with open(path, "rb") as fh:
        return read_partition_table(fh)


def pump_image(plan, backend, image, image_bytes=None):
    """The check, then ``pump``, on the table and length of ``image``, as setup runs them."""
    table = decode(image)
    check_partition(plan, table, image.stat().st_size if image_bytes is None else image_bytes)
    for action in pump(plan, table)[0]:
        backend.emit(action)


class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        ("0", 0),
        ("512", 512),
        ("1k", 1024),
        ("100M", 104857600),
        ("2G", 2147483648),
        ("1T", 1099511627776),
    ])
    def test_values(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", [
        "", "M", "100m", "100K", "1.5G", "-1", "100 M", "0x10", "1MB",
    ])
    def test_malformed(self, text):
        with pytest.raises(PifileError, match="malformed size"):
            parse_size(text)


class TestRenderSize:
    @pytest.mark.parametrize("size,expected", [
        (0, "0"),
        (104857600, "100M"),
        (1536, "1536"),
        (1024, "1k"),
        (1099511627776, "1T"),
    ])
    def test_values(self, size, expected):
        assert render_size(size) == expected

    @given(st.integers(0, 2**50))
    def test_parse_render_identity(self, size):
        assert parse_size(render_size(size)) == size


class TestReadTable:
    def test_zero_filled_file_has_no_signature(self, tmp_path):
        blank = tmp_path / "blank.img"
        blank.write_bytes(bytes(1024 * 1024))
        with pytest.raises(ExecutionFailure, match="lacks the 55 AA boot signature"):
            decode(blank)

    def test_short_image(self):
        with pytest.raises(ExecutionFailure, match="image is only 100 bytes"):
            read_partition_table(io.BytesIO(b"\x00" * 100))

    def test_fixture_matches_oracle(self, fixture_image):
        table = decode(fixture_image)
        oracle = mbr_oracle.read_table(fixture_image)
        assert table.disk_id == oracle["disk_id"]
        for entry, expected in zip(table.entries, oracle["entries"]):
            assert entry.index == expected["index"]
            assert entry.type_code == expected["type"]
            assert entry.lba_start == expected["start"]
            assert entry.lba_size == expected["size"]
            assert entry.bootable == expected["bootable"]

    def test_gpt_protective_rejected(self, tmp_path):
        img = tmp_path / "gpt.img"
        mbr_oracle.write_image(img, size_bytes=1024 * 1024, partitions=[
            {"index": 1, "type": 0xEE, "start": 1, "size": 2047},
        ])
        with pytest.raises(ExecutionFailure, match="protective MBR found"):
            decode(img)

    def test_overlapping_entries_rejected(self, tmp_path):
        img = tmp_path / "overlap.img"
        mbr_oracle.write_image(img, size_bytes=1024 * 1024, partitions=[
            {"index": 1, "type": 0x83, "start": 100, "size": 100},
            {"index": 2, "type": 0x83, "start": 150, "size": 100},
        ])
        with pytest.raises(ExecutionFailure, match="partitions 1 and 2 overlap"):
            decode(img)

    def test_degenerate_slot_reads_as_empty(self, tmp_path):
        img = tmp_path / "degenerate.img"
        mbr_oracle.write_image(img, size_bytes=1024 * 1024, partitions=[
            {"index": 1, "type": 0x83, "start": 100, "size": 0},
        ])
        assert decode(img).entries[0].empty


class TestWriteTable:
    """TABLE_WRITE's perform: ``resize_partition_entry`` on the file at ``TO``."""

    def test_round_trip_leaves_sector_unchanged(self, fixture_image):
        before = fixture_image.read_bytes()[:512]
        resize_partition_entry(str(fixture_image), 2, 112640)
        # the oracle already saturates CHS fields, so this is byte-exact
        assert fixture_image.read_bytes()[:512] == before

    def test_grow_entry_by_204800_sectors(self, fixture_image):
        resize_partition_entry(str(fixture_image), 2, 112640 + 204800)
        oracle = mbr_oracle.read_table(fixture_image)
        assert oracle["entries"][1]["size"] == 112640 + 204800

    @pytest.mark.parametrize("partitions, message", [
        ([{"index": 1, "type": 0x83, "start": 100, "size": 100},
          {"index": 2, "type": 0x83, "start": 150, "size": 100}],
         "partitions 1 and 2 overlap"),
        ([{"index": 1, "type": 0xEE, "start": 1, "size": 2047}], "protective MBR found"),
    ], ids=["overlap", "protective"])
    def test_bad_table_rejected_before_write(self, tmp_path, partitions, message):
        img = mbr_oracle.write_image(tmp_path / "bad.img", 1024 * 1024, 1, partitions)
        digest = sha256(img)
        with pytest.raises(ExecutionFailure, match=message):
            resize_partition_entry(str(img), 2, 4096)
        assert sha256(img) == digest

    def test_refuses_unsigned_target(self, tmp_path):
        target = tmp_path / "unsigned.img"
        target.write_bytes(bytes(4096))
        with pytest.raises(ExecutionFailure) as info:
            resize_partition_entry(str(target), 1, 8)
        assert str(info.value) == "sector 0 lacks the 55 AA boot signature"
        assert info.value.exit_code == 2
        assert target.read_bytes() == bytes(4096)

    def test_target_that_cannot_be_opened(self, tmp_path):
        target = tmp_path / "absent.img"
        with pytest.raises(ExecutionFailure) as info:
            resize_partition_entry(str(target), 2, 8)
        assert str(info.value) == (f"cannot write partition table to {target}: [Errno "
                                   f"{errno.ENOENT}] No such file or directory: '{target}'")
        assert info.value.exit_code == 2

    def test_target_shorter_than_a_sector(self, tmp_path):
        target = tmp_path / "short.img"
        target.write_bytes(b"\x5a" * 100)
        with pytest.raises(ExecutionFailure) as info:
            resize_partition_entry(str(target), 1, 8)
        assert str(info.value) == "image is only 100 bytes, need at least 512"
        assert info.value.exit_code == 2
        assert target.read_bytes() == b"\x5a" * 100

    def test_untouched_bytes_preserved(self, tmp_path):
        img = tmp_path / "boot.img"
        mbr_oracle.write_image(img, size_bytes=1024 * 1024)
        # plant recognizable boot code and post-table bytes
        with open(img, "r+b") as fh:
            fh.write(b"\xab" * 440)
        resize_partition_entry(str(img), 2, 4096)
        sector = img.read_bytes()[:512]
        assert sector[:440] == b"\xab" * 440
        assert sector[440:444] == (0xDEADBEEF).to_bytes(4, "little")
        assert sector[510:] == b"\x55\xaa"

    def test_bytes_past_sector_0_untouched(self, tmp_path):
        img = mbr_oracle.write_image(tmp_path / "data.img", size_bytes=64 * 1024)
        with open(img, "r+b") as fh:
            fh.seek(512)
            fh.write(bytes(range(256)) * 250)
        before = img.read_bytes()[512:]
        resize_partition_entry(str(img), 2, 4096)
        assert img.read_bytes()[512:] == before

    @pytest.mark.parametrize("status, written", [(0x01, 0x00), (0x80, 0x80), (0x81, 0x80)],
                             ids=["0x01", "0x80", "0x81"])
    def test_status_byte_keeps_only_the_boot_flag(self, fixture_image, status, written):
        with open(fixture_image, "r+b") as fh:
            fh.seek(446)
            fh.write(bytes([status]))
        resize_partition_entry(str(fixture_image), 2, 4096)
        assert fixture_image.read_bytes()[446] == written

    def test_chs_fields_saturated(self, fixture_image):
        with open(fixture_image, "r+b") as fh:
            fh.seek(446 + 1)
            fh.write(b"\x20\x21\x00\x0c\x01\x02\x03")  # slot 1: CHS start, type, CHS end
        resize_partition_entry(str(fixture_image), 2, 4096)
        entry = fixture_image.read_bytes()[446:462]
        assert entry[1:4] == b"\xfe\xff\xff"
        assert entry[5:8] == b"\xfe\xff\xff"

    def test_degenerate_slot_written_as_zeros(self, fixture_image):
        with open(fixture_image, "r+b") as fh:
            fh.seek(446 + 32)
            fh.write(b"\x80\x20\x21\x00\x83\xfe\xff\xff" + (100).to_bytes(4, "little"))
        resize_partition_entry(str(fixture_image), 2, 4096)
        assert fixture_image.read_bytes()[478:494] == bytes(16)


class TestGrowImageFile:
    def test_grow_by_16m(self, fixture_image):
        grow_image_file(str(fixture_image), 16 * 1024 * 1024)
        assert fixture_image.stat().st_size == 83886080

    def test_grow_by_100m_from_64mib(self, fixture_image):
        grow_image_file(str(fixture_image), parse_size("100M"))
        assert fixture_image.stat().st_size == 67108864 + 104857600

    def test_zero_is_identity(self, fixture_image):
        before = fixture_image.stat().st_size
        grow_image_file(str(fixture_image), 0)
        assert fixture_image.stat().st_size == before

    def test_appended_region_is_zeros_and_prefix_untouched(self, tmp_path):
        img = tmp_path / "small.img"
        img.write_bytes(b"\x5a" * 4096)
        grow_image_file(str(img), 1024)
        data = img.read_bytes()
        assert data[:4096] == b"\x5a" * 4096
        assert data[4096:] == bytes(1024)

    def test_missing_file(self, tmp_path):
        target = tmp_path / "absent.img"
        with pytest.raises(ExecutionFailure) as info:
            grow_image_file(str(target), 512)
        assert str(info.value) == (f"cannot grow {target}: [Errno {errno.ENOENT}] "
                                   f"No such file or directory: '{target}'")

    def test_directory_refused(self, tmp_path):
        with pytest.raises(ExecutionFailure) as info:
            grow_image_file(str(tmp_path), 512)
        assert str(info.value) == (f"cannot grow {tmp_path}: [Errno {errno.EISDIR}] "
                                   f"{os.strerror(errno.EISDIR)}: '{tmp_path}'")
        assert info.value.exit_code == 2

    def test_fifo_refused(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)  # truncate refuses it at once; nothing opens it
        with pytest.raises(ExecutionFailure) as info:
            grow_image_file(str(fifo), 512)
        assert str(info.value) == (f"cannot grow {fifo}: [Errno {errno.EINVAL}] "
                                   f"{os.strerror(errno.EINVAL)}: '{fifo}'")
        assert info.value.exit_code == 2

    def test_failed_truncate(self, fixture_image, monkeypatch):
        def truncate(path, length):
            raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))

        monkeypatch.setattr(os, "truncate", truncate)
        with pytest.raises(ExecutionFailure) as info:
            grow_image_file(str(fixture_image), 512)
        assert str(info.value) == (f"cannot grow {fixture_image}: "
                                   f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}")
        assert info.value.exit_code == 2


class TestPump:
    def test_grows_file_entry_and_emits_resize(self, tmp_path, fixture_image):
        plan = plan_for(tmp_path, fixture_image, "16M")
        middle_before = hashlib.sha256(
            fixture_image.read_bytes()[512:]).hexdigest()
        backend = LocalExecutor(runner=stub_runner)
        pump_image(plan, backend, fixture_image)

        assert fixture_image.stat().st_size == 83886080
        oracle = mbr_oracle.read_table(fixture_image)
        assert oracle["entries"][1]["size"] == 112640 + 32768
        assert oracle["entries"][0] == mbr_oracle.read_table(fixture_image)["entries"][0]
        resizes = [a for a in backend.actions if a.kind is ActionKind.FS_RESIZE]
        assert len(resizes) == 1
        assert resizes[0].payload["partition"] == "2"
        # everything between sector 0 and the appended tail is untouched
        middle_after = hashlib.sha256(
            fixture_image.read_bytes()[512:67108864]).hexdigest()
        assert middle_after == middle_before

    def test_partition_never_exceeds_image(self, tmp_path, fixture_image):
        plan = plan_for(tmp_path, fixture_image, "3M")
        pump_image(plan, LocalExecutor(runner=stub_runner), fixture_image)
        oracle = mbr_oracle.read_table(fixture_image)
        end = oracle["entries"][1]["start"] + oracle["entries"][1]["size"]
        assert end * 512 <= fixture_image.stat().st_size

    def test_rounds_up_to_sector_multiple(self, tmp_path, fixture_image):
        plan = plan_for(tmp_path, fixture_image, "1000")  # not a sector multiple
        pump_image(plan, LocalExecutor(runner=stub_runner), fixture_image)
        assert fixture_image.stat().st_size == 67108864 + 1024
        assert mbr_oracle.read_table(fixture_image)["entries"][1]["size"] == 112640 + 2

    def test_non_last_partition_refused_image_untouched(self, tmp_path, fixture_image):
        digest = sha256(fixture_image)
        plan = plan_for(tmp_path, fixture_image, "16M", partition=1)
        with pytest.raises(ExecutionFailure, match="cannot grow: partition 2 starts after it"):
            pump_image(plan, LocalExecutor(runner=stub_runner), fixture_image)
        assert sha256(fixture_image) == digest

    def test_partition_past_image_end_refused_when_length_known(self, tmp_path, fixture_image):
        plan = plan_for(tmp_path, fixture_image, "1M")
        backend = DryRunExecutor()
        with pytest.raises(ExecutionFailure, match="already extends past the end of the image"):
            pump_image(plan, backend, fixture_image, fixture_image.stat().st_size - 512)
        assert backend.actions == []

    def test_zero_pump_emits_nothing(self, tmp_path, fixture_image):
        plan = plan_for(tmp_path, fixture_image, "0")
        backend = DryRunExecutor()
        execute(plan, backend, RunOptions(env={"PATH": ""}))
        assert backend.actions == []

    def test_empty_slot_refused(self, tmp_path, fixture_image):
        plan = plan_for(tmp_path, fixture_image, "1M", partition=3)
        with pytest.raises(ExecutionFailure, match="partition 3 is an empty slot"):
            pump_image(plan, DryRunExecutor(), fixture_image)

    def test_empty_slot_refused_without_pump(self, tmp_path, fixture_image):
        plan = plan_for(tmp_path, fixture_image, "0", partition=3)
        with pytest.raises(ExecutionFailure, match="partition 3 is an empty slot"):
            check_partition(plan, decode(fixture_image), fixture_image.stat().st_size)

    def test_extended_partition_refused(self, tmp_path):
        img = tmp_path / "ext.img"
        mbr_oracle.write_image(img, size_bytes=8 * 1024 * 1024, partitions=[
            {"index": 1, "type": 0x83, "start": 64, "size": 1024},
            {"index": 2, "type": 0x05, "start": 2048, "size": 4096},
        ])
        plan = plan_for(tmp_path, img, "1M", partition=2)
        with pytest.raises(ExecutionFailure, match="is extended"):
            pump_image(plan, DryRunExecutor(), img)

    def test_dry_run_records_without_touching(self, tmp_path, fixture_image):
        digest = sha256(fixture_image)
        plan = plan_for(tmp_path, fixture_image, "16M")
        backend = DryRunExecutor()
        pump_image(plan, backend, fixture_image)
        assert [a.kind for a in backend.actions] == [
            ActionKind.GROW_FILE, ActionKind.TABLE_WRITE, ActionKind.FS_RESIZE,
        ]
        assert backend.actions[0].payload["bytes"] == str(16 * 1024 * 1024)
        assert backend.actions[1].payload["added_sectors"] == "32768"
        assert sha256(fixture_image) == digest


class TestTableWriteAction:
    """A TABLE_WRITE is performed from its payload alone."""

    def test_payload_sets_the_named_slot(self, fixture_image):
        before = mbr_oracle.read_table(fixture_image)
        grown = 112640 + 2048
        with open(fixture_image, "r+b") as fh:
            fh.truncate(fixture_image.stat().st_size + 2048 * 512)
        LocalExecutor(runner=stub_runner).emit(Action(ActionKind.TABLE_WRITE, {
            "path": str(fixture_image), "partition": "2",
            "added_sectors": "2048", "lba_size": str(grown),
        }))
        after = mbr_oracle.read_table(fixture_image)
        expected = [dict(entry) for entry in before["entries"]]
        expected[1]["size"] = grown
        assert after["disk_id"] == before["disk_id"]
        assert after["entries"] == expected

    def test_refused_table_raises_and_leaves_image_untouched(self, tmp_path):
        img = mbr_oracle.write_image(tmp_path / "overlap.img", 1024 * 1024, 1, [
            {"index": 1, "type": 0x83, "start": 100, "size": 100},
            {"index": 2, "type": 0x83, "start": 150, "size": 100},
        ])
        digest = sha256(img)
        with pytest.raises(ExecutionFailure, match="partitions 1 and 2 overlap"):
            LocalExecutor(runner=stub_runner).emit(Action(ActionKind.TABLE_WRITE, {
                "path": str(img), "partition": "2",
                "added_sectors": "8", "lba_size": "108",
            }))
        assert sha256(img) == digest


# --- table round-trip property ------------------------------------------------

@st.composite
def partition_tables(draw):
    count = draw(st.integers(0, 4))
    slots = draw(st.permutations([1, 2, 3, 4]))[:count]
    entries = {}
    cursor = 1
    for slot in slots:
        start = cursor + draw(st.integers(0, 2**20))
        size = draw(st.integers(1, 2**22))
        type_code = draw(st.integers(1, 255).filter(lambda t: t != 0xEE))
        entries[slot] = PartitionEntry(
            index=slot,
            bootable=draw(st.booleans()),
            type_code=type_code,
            lba_start=start,
            lba_size=size,
        )
        cursor = start + size
    disk_id = draw(st.integers(0, 2**32 - 1))
    return PartitionTable(disk_id=disk_id, entries=tuple(
        entries.get(i, PartitionEntry.vacant(i)) for i in range(1, 5)
    ))


def oracle_partitions(table):
    """``table``'s occupied slots as mbr_oracle partition records."""
    return [{"index": e.index, "type": e.type_code, "start": e.lba_start, "size": e.lba_size,
             "bootable": e.bootable} for e in table.occupied()]


@given(partition_tables())
def test_table_write_read_round_trip(table):
    sector = mbr_oracle.build_sector0(table.disk_id, oracle_partitions(table))
    assert read_partition_table(io.BytesIO(sector)) == table


@given(partition_tables().filter(lambda t: t.occupied()), st.integers(1, 2**32 - 1))
def test_resize_changes_only_the_size_bytes(tmp_path_factory, table, lba_size):
    image = mbr_oracle.write_image(tmp_path_factory.mktemp("resize") / "disk.img", 512,
                                   table.disk_id, oracle_partitions(table))
    before = image.read_bytes()
    last = max(table.occupied(), key=lambda e: e.lba_start)
    resize_partition_entry(str(image), last.index, lba_size)
    size_at = 446 + 16 * (last.index - 1) + 12
    expected = before[:size_at] + lba_size.to_bytes(4, "little") + before[size_at + 4:]
    assert image.read_bytes() == expected
