import logging
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from imgforge.errors import ExecutionFailure
from imgforge.executor import Action, ActionKind, DryRunExecutor
from imgforge.image import PartitionEntry, PartitionTable, check_partition
from imgforge.mounts import (
    ROOT_TOKEN,
    base_mount_actions,
    discover_emulators,
    fstab_mount_actions,
    map_fstab_device,
    parse_fstab,
    partition_device,
    teardown_actions,
)
from imgforge.pifile import parse_pifile_text
from imgforge.plan import build_plan
from imgforge.source import SourceKind

EMULATOR = "/usr/bin/qemu-arm-static"

FIXTURE_TABLE = PartitionTable(disk_id=0xDEADBEEF, entries=(
    PartitionEntry(index=1, bootable=True, type_code=0x0C, lba_start=2048, lba_size=16384),
    PartitionEntry(index=2, bootable=False, type_code=0x83, lba_start=18432, lba_size=112640),
    PartitionEntry.vacant(3),
    PartitionEntry.vacant(4),
))

FIXTURE_FSTAB = (
    "PARTUUID=deadbeef-01 /boot vfat defaults 0 2\n"
    "PARTUUID=deadbeef-02 / ext4 defaults 0 1\n"
    "proc /proc proc defaults 0 0\n"
)


def make_plan(partition=2, image="disk.img", block_device=False):
    kind = SourceKind.BLOCK_DEVICE if block_device else SourceKind.LOCAL_FILE
    text = f"INPLACE {image}\n" if partition == 2 else f"FROM {image} {partition}\n"
    pifile = parse_pifile_text(text, {}, source_path=Path("golden.Pifile"))
    return build_plan(pifile, lambda loc: kind)


def compose_mount_plan(plan, table, guest_fstab=None, *, emulators):
    """Setup actions composed the way execute() composes them."""
    actions = base_mount_actions(plan, table, emulators=emulators)
    if guest_fstab is not None:
        mounted = {a.payload["target"] for a in actions}
        actions += fstab_mount_actions(plan, table, guest_fstab, already_mounted=mounted)
    return actions


def mount_action(kind, source, target):
    return Action(kind, {"source": source, "target": target})


# FIXTURE_TABLE's partitions as mount(8) options, offsets and sizes in bytes
P1_OPTIONS = "loop,offset=1048576,sizelimit=8388608"
P2_OPTIONS = "loop,offset=9437184,sizelimit=57671680"

# the warning for a line whose dump or pass field is not an integer, before the line
NON_NUMERIC = "fstab line 1 has non-numeric dump/pass fields, skipped: "


class TestParseFstab:
    def test_proc_line(self):
        entries = parse_fstab("proc /proc proc defaults 0 0\n")
        assert entries == [("proc", "/proc", "proc")]

    def test_comment_line(self):
        assert parse_fstab("# just a comment\n") == []

    def test_partuuid_line_matches_manual_split(self):
        line = "PARTUUID=deadbeef-02 / ext4 defaults 0 1"
        entries = parse_fstab(line + "\n")
        assert entries == [tuple(line.split()[:3])] == [("PARTUUID=deadbeef-02", "/", "ext4")]

    def test_malformed_lines_skipped_with_warning(self, caplog):
        text = "only three fields\nproc /proc proc defaults 0 0\n"
        with caplog.at_level(logging.WARNING, logger="imgforge.mounts"):
            entries = parse_fstab(text)
        assert len(entries) == 1
        assert any("skipped" in r.message for r in caplog.records)

    @pytest.mark.parametrize("line", ["proc /proc proc defaults", "proc /proc proc defaults 1"])
    def test_missing_dump_and_pass_accepted(self, line):
        assert parse_fstab(line + "\n") == [("proc", "/proc", "proc")]

    def test_seven_fields_skipped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="imgforge.mounts"):
            assert parse_fstab("proc /proc proc defaults 0 0 extra\n") == []
        assert "has 7 fields" in caplog.records[0].getMessage()

    def test_non_numeric_pass_skipped(self, caplog):
        with caplog.at_level(logging.WARNING, logger="imgforge.mounts"):
            assert parse_fstab("proc /proc proc defaults 0 x\n") == []

    def test_tabs_and_blank_lines(self):
        entries = parse_fstab("\n\nproc\t/proc\tproc\tdefaults\t0\t0\n\n")
        assert len(entries) == 1

    def test_order_preserved(self):
        text = ("PARTUUID=deadbeef-02 / ext4 defaults 0 1\n"
                "PARTUUID=deadbeef-01 /boot vfat defaults 0 2\n")
        assert [mount_point for _, mount_point, _ in parse_fstab(text)] == ["/", "/boot"]

    @pytest.mark.parametrize("line, warning", [
        ("proc /proc proc", "fstab line 1 has 3 fields (expected 4 to 6), skipped: "),
        ("proc /proc proc defaults 0 0 extra",
         "fstab line 1 has 7 fields (expected 4 to 6), skipped: "),
        ("proc /proc proc defaults x 0", NON_NUMERIC),
        ("proc /proc proc defaults 0 x", NON_NUMERIC),
    ])
    def test_skipped_line_warns_once(self, caplog, line, warning):
        with caplog.at_level(logging.WARNING, logger="imgforge.mounts"):
            assert parse_fstab(line + "\n") == []
        assert [r.getMessage() for r in caplog.records] == [warning + line]


class TestMapFstabDevice:
    def test_partuuid_match(self):
        assert map_fstab_device("PARTUUID=deadbeef-01", FIXTURE_TABLE) == 1

    def test_partuuid_wrong_disk_id(self, caplog):
        with caplog.at_level(logging.WARNING, logger="imgforge.mounts"):
            assert map_fstab_device("PARTUUID=0000beef-01", FIXTURE_TABLE) is None

    def test_partuuid_slot_out_of_range(self):
        assert map_fstab_device("PARTUUID=deadbeef-09", FIXTURE_TABLE) is None

    def test_mmcblk_suffix(self):
        assert map_fstab_device("/dev/mmcblk0p1", FIXTURE_TABLE) == 1

    def test_sda_suffix(self):
        assert map_fstab_device("/dev/sda3", FIXTURE_TABLE) == 3

    @pytest.mark.parametrize("spec", ["proc", "sysfs", "tmpfs", "devpts", "swap", "none"])
    def test_pseudo_filesystems(self, spec):
        assert map_fstab_device(spec, FIXTURE_TABLE) is None

    def test_label_unmappable_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="imgforge.mounts"):
            assert map_fstab_device("LABEL=rootfs", FIXTURE_TABLE) is None
        assert any("LABEL=rootfs" in r.message for r in caplog.records)

    def test_uuid_unmappable(self):
        assert map_fstab_device("UUID=1234-ABCD", FIXTURE_TABLE) is None


class TestPartitionDevice:
    def test_trailing_digit_gets_p(self):
        assert partition_device("/dev/mmcblk0", 2) == "/dev/mmcblk0p2"
        assert partition_device("/dev/loop7", 1) == "/dev/loop7p1"

    def test_letter_base_concatenates(self):
        assert partition_device("/dev/sdc", 2) == "/dev/sdc2"


class TestBuildMountPlan:
    def test_base_plan_shape(self):
        actions = compose_mount_plan(make_plan(), FIXTURE_TABLE, emulators=[EMULATOR])
        assert actions[0].payload == {"source": "disk.img", "target": ROOT_TOKEN,
                                      "options": P2_OPTIONS}
        assert [(a.kind, a.payload["source"], a.payload["target"]) for a in actions] == [
            (ActionKind.MOUNT_PARTITION, "disk.img", ROOT_TOKEN),
            (ActionKind.BIND_MOUNT, "/dev", "<root>/dev"),
            (ActionKind.BIND_MOUNT, "/sys", "<root>/sys"),
            (ActionKind.BIND_MOUNT, "/proc", "<root>/proc"),
            (ActionKind.BIND_MOUNT, "/dev/pts", "<root>/dev/pts"),
            (ActionKind.BIND_MOUNT, "/etc/resolv.conf", "<root>/etc/resolv.conf"),
            (ActionKind.COPY_EMULATOR, EMULATOR, "<root>/usr/bin/qemu-arm-static"),
        ]

    def test_fstab_boot_mount_follows_emulator(self):
        actions = compose_mount_plan(make_plan(), FIXTURE_TABLE, FIXTURE_FSTAB,
                                   emulators=[EMULATOR])
        kinds = [a.kind for a in actions]
        boot = next(a for a in actions if a.payload["target"] == "<root>/boot")
        assert boot.payload == {"source": "disk.img", "target": "<root>/boot",
                                "options": P1_OPTIONS}
        assert kinds.index(ActionKind.COPY_EMULATOR) < actions.index(boot)
        assert actions.index(boot) == len(actions) - 1

    def test_fstab_root_entry_skipped_quietly_when_matching(self, caplog):
        with caplog.at_level(logging.WARNING, logger="imgforge.mounts"):
            actions = compose_mount_plan(make_plan(), FIXTURE_TABLE, FIXTURE_FSTAB,
                                       emulators=[])
        assert all(a.payload["target"] != ROOT_TOKEN or a.kind is ActionKind.MOUNT_PARTITION
                   for a in actions)
        assert sum(1 for a in actions if a.kind is ActionKind.MOUNT_PARTITION) == 2
        assert not any("mounted as root" in r.message for r in caplog.records)

    def test_fstab_root_mismatch_warns(self, caplog):
        fstab = "PARTUUID=deadbeef-01 / ext4 defaults 0 1\n"
        with caplog.at_level(logging.WARNING, logger="imgforge.mounts"):
            actions = compose_mount_plan(make_plan(), FIXTURE_TABLE, fstab, emulators=[])
        assert any("mounted as root" in r.message for r in caplog.records)
        # still only the plan's root partition is mounted at <root>
        roots = [a for a in actions if a.payload["target"] == ROOT_TOKEN]
        assert len(roots) == 1 and roots[0].payload["options"] == P2_OPTIONS

    def test_no_fstab_means_base_only(self):
        actions = compose_mount_plan(make_plan(), FIXTURE_TABLE, None, emulators=[EMULATOR])
        assert len(actions) == 7

    def test_mount_point_depth_ordering(self):
        table = PartitionTable(disk_id=0xDEADBEEF, entries=(
            PartitionEntry(index=1, bootable=False, type_code=0x83,
                           lba_start=64, lba_size=64),
            PartitionEntry(index=2, bootable=False, type_code=0x83,
                           lba_start=128, lba_size=64),
            PartitionEntry(index=3, bootable=False, type_code=0x83,
                           lba_start=256, lba_size=64),
            PartitionEntry(index=4, bootable=False, type_code=0x83,
                           lba_start=512, lba_size=64),
        ))
        fstab = ("PARTUUID=deadbeef-03 /var/lib/data ext4 defaults 0 2\n"
                 "PARTUUID=deadbeef-01 /boot ext4 defaults 0 2\n"
                 "PARTUUID=deadbeef-04 /var ext4 defaults 0 2\n")
        actions = compose_mount_plan(make_plan(), table, fstab, emulators=[])
        extra_targets = [a.payload["target"] for a in actions if a.kind is ActionKind.MOUNT_PARTITION
                         and a.payload["target"] != ROOT_TOKEN]
        assert extra_targets == ["<root>/boot", "<root>/var", "<root>/var/lib/data"]

    def test_prefix_mounts_precede_nested_mounts(self):
        actions = compose_mount_plan(make_plan(), FIXTURE_TABLE, FIXTURE_FSTAB,
                                   emulators=[EMULATOR])
        mount_targets = [a.payload["target"] for a in actions if a.kind is ActionKind.MOUNT_PARTITION]
        for i, shallow in enumerate(mount_targets):
            for deep in mount_targets[i + 1:]:
                assert not deep.startswith(shallow + "/") or \
                    mount_targets.index(shallow) < mount_targets.index(deep)

    def test_duplicate_mount_point_skipped(self):
        fstab = ("PARTUUID=deadbeef-01 /boot vfat defaults 0 2\n"
                 "PARTUUID=deadbeef-01 /boot vfat defaults 0 2\n")
        actions = compose_mount_plan(make_plan(), FIXTURE_TABLE, fstab, emulators=[])
        assert sum(1 for a in actions if a.payload["target"] == "<root>/boot") == 1

    def test_swap_entries_ignored(self):
        fstab = "PARTUUID=deadbeef-01 /swap swap sw 0 0\n"
        actions = compose_mount_plan(make_plan(), FIXTURE_TABLE, fstab, emulators=[])
        assert all("/swap" not in a.payload["target"] for a in actions)

    def test_relative_mount_point_skipped(self, caplog):
        fstab = "PARTUUID=deadbeef-01 boot vfat defaults 0 2\n"
        with caplog.at_level(logging.WARNING, logger="imgforge.mounts"):
            actions = compose_mount_plan(make_plan(), FIXTURE_TABLE, fstab, emulators=[])
        assert sum(1 for a in actions if a.kind is ActionKind.MOUNT_PARTITION) == 1
        assert any("not absolute" in r.message for r in caplog.records)

    @pytest.mark.parametrize("mount_point", ["/../boot", "/boot/../../etc", "/boot/.."])
    def test_mount_point_with_dotdot_skipped(self, caplog, mount_point):
        fstab = f"PARTUUID=deadbeef-01 {mount_point} vfat defaults 0 2\n"
        with caplog.at_level(logging.WARNING, logger="imgforge.mounts"):
            actions = compose_mount_plan(make_plan(), FIXTURE_TABLE, fstab, emulators=[])
        assert sum(1 for a in actions if a.kind is ActionKind.MOUNT_PARTITION) == 1
        assert any("'..'" in r.message for r in caplog.records)

    def test_missing_root_partition_raises(self):
        assert FIXTURE_TABLE.entries[2].empty
        with pytest.raises(ExecutionFailure, match="partition 3 is an empty slot"):
            check_partition(make_plan(partition=3), FIXTURE_TABLE, None)

    def test_block_device_destination_skips_loop(self):
        plan = make_plan(image="/dev/sdc", block_device=True)
        actions = compose_mount_plan(plan, FIXTURE_TABLE, FIXTURE_FSTAB, emulators=[])
        mounts = [a.payload for a in actions if a.kind is ActionKind.MOUNT_PARTITION]
        # the partition nodes themselves, never a loop over the device
        assert mounts == [{"source": "/dev/sdc2", "target": ROOT_TOKEN},
                          {"source": "/dev/sdc1", "target": "<root>/boot"}]

    def test_all_targets_inside_root_except_attach(self):
        # no action attaches anything any more, so every target is inside the root
        actions = compose_mount_plan(make_plan(), FIXTURE_TABLE, FIXTURE_FSTAB,
                                   emulators=[EMULATOR])
        for action in actions:
            assert action.payload["target"] == ROOT_TOKEN or action.payload["target"].startswith(ROOT_TOKEN + "/")


class TestDiscoverEmulators:
    def test_finds_static_emulators_on_path(self, tmp_path):
        bindir = tmp_path / "bin"
        bindir.mkdir()
        for name in ("qemu-arm-static", "qemu-aarch64-static", "qemu-system-x86_64"):
            exe = bindir / name
            exe.write_text("#!/bin/sh\n")
            exe.chmod(0o755)
        found = discover_emulators(str(bindir))
        assert [Path(p).name for p in found] == ["qemu-aarch64-static", "qemu-arm-static"]

    def test_first_path_entry_wins(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for d in (first, second):
            d.mkdir()
            exe = d / "qemu-arm-static"
            exe.write_text("#!/bin/sh\n")
            exe.chmod(0o755)
        found = discover_emulators(f"{first}:{second}")
        assert found == [str(first / "qemu-arm-static")]

    def test_empty_path(self):
        assert discover_emulators("") == []

    def test_entry_that_cannot_be_listed_is_skipped(self, tmp_path):
        bindir = tmp_path / "bin"
        bindir.mkdir()
        (bindir / "qemu-arm-static").write_text("#!/bin/sh\n")
        (bindir / "qemu-arm-static").chmod(0o755)
        (tmp_path / "file").write_text("")  # listing a file, or a missing entry, fails
        found = discover_emulators(f"{tmp_path / 'gone'}:{tmp_path / 'file'}:{bindir}")
        assert found == [str(bindir / "qemu-arm-static")]


# --- teardown properties -----------------------------------------------------

_setup_kind = st.sampled_from([
    ActionKind.MOUNT_PARTITION, ActionKind.BIND_MOUNT, ActionKind.COPY_EMULATOR,
])
_name = st.text(alphabet="abcdefghij/-", min_size=1, max_size=10)


@st.composite
def setup_plans(draw):
    kinds = draw(st.lists(_setup_kind, max_size=12))
    return [mount_action(kind, draw(_name), draw(_name)) for kind in kinds]


_SWAP = {
    ActionKind.MOUNT_PARTITION: ActionKind.UNMOUNT,
    ActionKind.BIND_MOUNT: ActionKind.UNMOUNT,
    ActionKind.COPY_EMULATOR: ActionKind.REMOVE_EMULATOR,
}


@given(setup_plans())
def test_teardown_is_reverse_with_kinds_swapped(setup):
    torn = teardown_actions(setup)
    # independent oracle: swap each kind in place, then compare reversed
    swapped = [mount_action(_SWAP[a.kind], a.payload["source"], a.payload["target"])
               for a in setup]
    assert list(reversed(torn)) == swapped
    assert len(torn) == len(setup)


@given(setup_plans())
def test_every_setup_action_has_one_counterpart(setup):
    torn = teardown_actions(setup)
    # pair by position: setup action i is undone by teardown action n-1-i
    paired = {(i, a.payload["source"], a.payload["target"]) for i, a in enumerate(setup)}
    assert {(len(torn) - 1 - i, a.payload["source"], a.payload["target"])
            for i, a in enumerate(torn)} == paired


def test_teardown_rejects_non_setup_kinds():
    for kind in (ActionKind.UNMOUNT, ActionKind.LOOP_ATTACH):  # nothing emits LOOP_ATTACH now
        with pytest.raises(ValueError):
            teardown_actions([mount_action(kind, "x", "y")])


def test_golden_mount_plan_log():
    plan = make_plan()
    setup = compose_mount_plan(plan, FIXTURE_TABLE, FIXTURE_FSTAB, emulators=[EMULATOR])
    backend = DryRunExecutor()
    for action in setup + teardown_actions(setup):
        backend.emit(action)
    golden = Path(__file__).parent / "data" / "mount_plan_golden.log"
    assert backend.render_log() == golden.read_text()
