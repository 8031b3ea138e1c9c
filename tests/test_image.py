import errno
import hashlib
import io
import os
from dataclasses import replace
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
    validate_table,
    write_partition_table,
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


def pump_image(plan, backend, image, image_bytes=None):
    """The check, then ``pump``, on the table and length of ``image``, as setup runs them."""
    table = read_partition_table(image)
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
            read_partition_table(blank)

    def test_short_image(self):
        with pytest.raises(ExecutionFailure, match="image is only 100 bytes"):
            read_partition_table(io.BytesIO(b"\x00" * 100))

    def test_fixture_matches_oracle(self, fixture_image):
        table = read_partition_table(fixture_image)
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
            read_partition_table(img)

    def test_overlapping_entries_rejected(self, tmp_path):
        img = tmp_path / "overlap.img"
        mbr_oracle.write_image(img, size_bytes=1024 * 1024, partitions=[
            {"index": 1, "type": 0x83, "start": 100, "size": 100},
            {"index": 2, "type": 0x83, "start": 150, "size": 100},
        ])
        with pytest.raises(ExecutionFailure, match="partitions 1 and 2 overlap"):
            read_partition_table(img)

    def test_degenerate_slot_reads_as_empty(self, tmp_path):
        img = tmp_path / "degenerate.img"
        mbr_oracle.write_image(img, size_bytes=1024 * 1024, partitions=[
            {"index": 1, "type": 0x83, "start": 100, "size": 0},
        ])
        assert read_partition_table(img).entries[0].empty


class TestWriteTable:
    def test_round_trip_leaves_sector_unchanged(self, fixture_image):
        before = fixture_image.read_bytes()[:512]
        table = read_partition_table(fixture_image)
        write_partition_table(fixture_image, table)
        after = fixture_image.read_bytes()[:512]
        # the oracle already saturates CHS fields, so this is byte-exact
        assert after == before

    def test_grow_entry_by_204800_sectors(self, fixture_image):
        table = read_partition_table(fixture_image)
        entry = table.entries[1]
        grown = table.with_entry(
            PartitionEntry(index=2, bootable=entry.bootable, type_code=entry.type_code,
                           lba_start=entry.lba_start, lba_size=entry.lba_size + 204800)
        )
        write_partition_table(fixture_image, grown)
        oracle = mbr_oracle.read_table(fixture_image)
        assert oracle["entries"][1]["size"] == 112640 + 204800

    @pytest.mark.parametrize("spoil, message", [
        (lambda t: t.with_entry(PartitionEntry(index=1, bootable=False, type_code=0x83,
                                               lba_start=2048, lba_size=999999)),
         "partitions 1 and 2 overlap"),
        (lambda t: replace(t, entries=t.entries[:3]), "expected 4 partition slots, got 3"),
        (lambda t: replace(t, disk_id=2**32), "disk id 0x100000000 out of 32-bit range"),
        (lambda t: replace(t, entries=(replace(t.entries[0], index=3), *t.entries[1:])),
         "slot 1 carries index 3"),
        (lambda t: t.with_entry(replace(t.entries[0], type_code=0x100)),
         "slot 1 type 0x100 out of range"),
        (lambda t: t.with_entry(replace(t.entries[0], lba_size=0)), "slot 1 is half-empty"),
        (lambda t: t.with_entry(replace(t.entries[0], lba_start=2**32)),
         "slot 1 LBA fields out of 32-bit range"),
    ], ids=["overlap", "three-slots", "disk-id", "slot-index", "type", "half-empty",
            "lba-start"])
    def test_bad_table_rejected_before_write(self, fixture_image, spoil, message):
        digest = sha256(fixture_image)
        bad = spoil(read_partition_table(fixture_image))
        with pytest.raises(ExecutionFailure, match=message):
            write_partition_table(fixture_image, bad)
        assert sha256(fixture_image) == digest

    def test_refuses_unsigned_target(self, tmp_path):
        target = tmp_path / "unsigned.img"
        target.write_bytes(bytes(4096))
        table = PartitionTable(disk_id=1, entries=tuple(
            PartitionEntry.vacant(i) for i in range(1, 5)
        ))
        with pytest.raises(ExecutionFailure, match="unsigned sector 0"):
            write_partition_table(target, table)

    def test_target_that_cannot_be_opened(self, tmp_path, fixture_image):
        target = tmp_path / "absent.img"
        with pytest.raises(ExecutionFailure) as info:
            write_partition_table(target, read_partition_table(fixture_image))
        assert str(info.value) == (f"cannot write partition table to {target}: [Errno "
                                   f"{errno.ENOENT}] No such file or directory: '{target}'")
        assert info.value.exit_code == 2

    def test_target_shorter_than_a_sector(self, fixture_image):
        with pytest.raises(ExecutionFailure) as info:
            write_partition_table(io.BytesIO(bytes(100)), read_partition_table(fixture_image))
        assert str(info.value) == "target is only 100 bytes, need at least 512"
        assert info.value.exit_code == 2

    def test_target_open_for_reading_only(self, fixture_image):
        table = read_partition_table(fixture_image)
        with open(fixture_image, "rb") as target, pytest.raises(ExecutionFailure) as info:
            write_partition_table(target, table)  # its write raises io.UnsupportedOperation
        assert str(info.value) == "partition table write failed: write"
        assert info.value.exit_code == 2

    def test_untouched_bytes_preserved(self, tmp_path):
        img = tmp_path / "boot.img"
        mbr_oracle.write_image(img, size_bytes=1024 * 1024)
        # plant recognizable boot code and post-table bytes
        with open(img, "r+b") as fh:
            fh.write(b"\xab" * 440)
        table = read_partition_table(img)
        write_partition_table(img, table)
        sector = img.read_bytes()[:512]
        assert sector[:440] == b"\xab" * 440
        assert sector[510:] == b"\x55\xaa"


class TestGrowImageFile:
    def test_grow_by_16m(self, fixture_image):
        assert grow_image_file(fixture_image, 16 * 1024 * 1024) == 83886080
        assert fixture_image.stat().st_size == 83886080

    def test_grow_by_100m_from_64mib(self, fixture_image):
        # 67108864 + 104857600
        assert grow_image_file(fixture_image, parse_size("100M")) == 171966464

    def test_zero_is_identity(self, fixture_image):
        before = fixture_image.stat().st_size
        assert grow_image_file(fixture_image, 0) == before
        assert fixture_image.stat().st_size == before

    def test_appended_region_is_zeros_and_prefix_untouched(self, tmp_path):
        img = tmp_path / "small.img"
        img.write_bytes(b"\x5a" * 4096)
        grow_image_file(img, 1024)
        data = img.read_bytes()
        assert data[:4096] == b"\x5a" * 4096
        assert data[4096:] == bytes(1024)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ExecutionFailure, match="cannot stat"):
            grow_image_file(tmp_path / "absent.img", 512)

    def test_directory_refused(self, tmp_path):
        with pytest.raises(ExecutionFailure, match="is not a regular file"):
            grow_image_file(tmp_path, 512)

    def test_failed_truncate(self, fixture_image, monkeypatch):
        def truncate(path, length):
            raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))

        monkeypatch.setattr(os, "truncate", truncate)
        with pytest.raises(ExecutionFailure) as info:
            grow_image_file(fixture_image, 512)
        assert str(info.value) == (f"cannot grow {fixture_image}: "
                                   f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}")
        assert info.value.exit_code == 2

    def test_negative_amount_refused(self, fixture_image):
        before = fixture_image.stat().st_size
        with pytest.raises(ExecutionFailure, match=r"cannot grow by a negative amount \(-1\)"):
            grow_image_file(fixture_image, -1)
        assert fixture_image.stat().st_size == before

    def test_block_device_refused(self, fixture_image, monkeypatch):
        import os
        import stat as stat_module
        real_stat = os.stat

        def fake_stat(path, **kwargs):
            result = real_stat(path, **kwargs)
            if str(path) == str(fixture_image):
                fake_mode = stat_module.S_IFBLK | 0o600
                return os.stat_result((fake_mode,) + tuple(result)[1:])
            return result

        monkeypatch.setattr(os, "stat", fake_stat)
        with pytest.raises(ExecutionFailure, match="is a block device and cannot grow"):
            grow_image_file(fixture_image, 512)


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

    def test_index_beyond_table_refused(self, tmp_path, fixture_image):
        # build_plan refuses such an index; the image layer keeps its own check
        plan = replace(plan_for(tmp_path, fixture_image, "1M"), partition_index=7)
        with pytest.raises(ExecutionFailure, match="outside the 4 MBR slots"):
            pump_image(plan, DryRunExecutor(), fixture_image)

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

    def test_empty_slot_raises_and_leaves_image_untouched(self, fixture_image):
        digest = sha256(fixture_image)
        with pytest.raises(ExecutionFailure, match="partition 3 is an empty slot"):
            LocalExecutor(runner=stub_runner).emit(Action(ActionKind.TABLE_WRITE, {
                "path": str(fixture_image), "partition": "3",
                "added_sectors": "8", "lba_size": "8",
            }))
        assert sha256(fixture_image) == digest


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


@given(partition_tables())
def test_table_write_read_round_trip(table):
    buf = io.BytesIO(bytearray(mbr_oracle.build_sector0(0, [])))
    write_partition_table(buf, table)
    assert read_partition_table(buf) == table


@given(partition_tables())
def test_generated_tables_are_valid(table):
    validate_table(table)
