"""Acceptance suite: one test per criterion, run at the stated tolerances.

The conftest hook prints a PASS/FAIL line per criterion.  Every expected
value here is either arithmetic done in the test, read back through the
independent minimal table reader (mbr_oracle), or compared against the
reviewed golden file in tests/data/.
"""

import hashlib
import io
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mbr_oracle
from imgforge.cli import main
from imgforge.errors import ExecutionFailure
from imgforge.executor import (
    ActionKind,
    DryRunExecutor,
    LocalExecutor,
    serialize_actions,
)
from imgforge.image import (
    check_partition,
    parse_size,
    pump,
    read_partition_table,
    render_size,
)
from imgforge.mounts import base_mount_actions, fstab_mount_actions, teardown_actions
from imgforge.pifile import CommandKind, parse_pifile, parse_pifile_text
from imgforge.plan import Stage, assign_stages, build_plan
from imgforge.source import SourceKind, cache_key, fetch_to_cache
from pifile_render import render_pifile

ENV = {"PATH": "/usr/bin:/bin"}
EMULATOR = "/usr/bin/qemu-arm-static"

LISTING_1 = """\
# Upgrade the base image and enable the serial console.
FROM raspbian-buster.img 2
TO raspbian-serial.img

PUMP 100M

RUN raspi-config nonint do_serial 0

RUN DEBIAN_FRONTEND=noninteractive apt-get -y dist-upgrade

INSTALL 600 id_ed25519.pub /home/pi/.ssh/authorized_keys
"""


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_criterion_1_grammar_fidelity(tmp_path):
    pifile_path = tmp_path / "example.Pifile"
    pifile_path.write_text(LISTING_1)
    pifile = parse_pifile(pifile_path, {})

    assert len(pifile.commands) == 6
    assert [c.kind for c in pifile.commands] == [
        CommandKind.FROM, CommandKind.TO, CommandKind.PUMP,
        CommandKind.RUN, CommandKind.RUN, CommandKind.INSTALL,
    ]
    assert pifile.commands[0].args == ("raspbian-buster.img", "2")
    assert pifile.commands[4].args[0].startswith("DEBIAN_FRONTEND=noninteractive apt-get")
    assert pifile.commands[5].args == ("600", "id_ed25519.pub",
                                       "/home/pi/.ssh/authorized_keys")

    staged = assign_stages(pifile)
    assert [c.kind for c in staged[Stage.SETUP]] == [CommandKind.FROM, CommandKind.TO]
    assert [c.kind for c in staged[Stage.PREPARE]] == [CommandKind.PUMP]
    assert [c.kind for c in staged[Stage.CHROOT]] == [
        CommandKind.RUN, CommandKind.RUN, CommandKind.INSTALL,
    ]


def test_criterion_2_pump_arithmetic(tmp_path):
    image = mbr_oracle.write_image(tmp_path / "disk.img")
    middle_before = hashlib.sha256(image.read_bytes()[512:]).hexdigest()
    pifile = parse_pifile_text(
        "INPLACE disk.img\nPUMP 16M\n", {}, source_path=tmp_path / "grow.Pifile")
    plan = build_plan(pifile, lambda loc: SourceKind.LOCAL_FILE)
    backend = LocalExecutor(runner=lambda argv, **kw: (0, ""))

    started = time.monotonic()
    with open(image, "rb") as fh:
        table = read_partition_table(fh)
    check_partition(plan, table, image.stat().st_size)
    for action in pump(plan, table)[0]:
        backend.emit(action)
    elapsed = time.monotonic() - started

    assert image.stat().st_size == 83886080  # 64 MiB + 16 MiB, exactly
    oracle = mbr_oracle.read_table(image)
    assert oracle["entries"][1]["size"] == 112640 + 32768  # exactly 32768 sectors more
    assert oracle["entries"][0]["size"] == 16384  # boot partition untouched
    middle_after = hashlib.sha256(image.read_bytes()[512:67108864]).hexdigest()
    assert middle_after == middle_before
    assert elapsed < 1.0


def test_criterion_3_100m_semantics():
    assert parse_size("100M") == 104857600


def test_criterion_4_mount_plan_golden(tmp_path):
    with open(mbr_oracle.write_image(tmp_path / "disk.img"), "rb") as fh:
        table = read_partition_table(fh)
    pifile = parse_pifile_text("INPLACE disk.img\n", {},
                               source_path=Path("golden.Pifile"))
    plan = build_plan(pifile, lambda loc: SourceKind.LOCAL_FILE)
    fstab = (
        "PARTUUID=deadbeef-01 /boot vfat defaults 0 2\n"
        "PARTUUID=deadbeef-02 / ext4 defaults 0 1\n"
        "proc /proc proc defaults 0 0\n"
    )
    setup = base_mount_actions(plan, table, emulators=[EMULATOR])
    mounted = {a.payload["target"] for a in setup}
    setup += fstab_mount_actions(plan, table, fstab, already_mounted=mounted)
    backend = DryRunExecutor()
    for action in setup + teardown_actions(setup):
        backend.emit(action)
    golden = (Path(__file__).parent / "data" / "mount_plan_golden.log").read_text()
    assert backend.render_log() == golden  # byte-identical


def test_criterion_5_cache_property(tmp_path):
    calls = []

    def fetcher(url, dest):
        calls.append(url)
        Path(dest).write_bytes(b"fetched-image-bytes")

    url = "https://example.net/base.img"
    first = fetch_to_cache(url, tmp_path / "cache", fetcher)
    second = fetch_to_cache(url, tmp_path / "cache", fetcher)
    assert len(calls) == 1  # exactly one fetch for two resolves
    assert first.read_bytes() == second.read_bytes()

    def failing(url, dest):
        Path(dest).write_bytes(b"partial")
        raise ExecutionFailure("connection dropped mid-transfer")

    bad_url = "https://example.net/other.img"
    with pytest.raises(ExecutionFailure, match="connection dropped mid-transfer"):
        fetch_to_cache(bad_url, tmp_path / "cache", failing)
    assert not (tmp_path / "cache" / cache_key(bad_url) / "image").exists()


# --- criterion 6: randomized round-trip properties, >= 1000 cases each --------

from test_image import oracle_partitions, partition_tables  # noqa: E402
from test_pifile import commands as command_specs, _build_pifile  # noqa: E402
from test_plan import _pifile_of_kinds, _stage_kinds  # noqa: E402


@settings(max_examples=1000, deadline=None)
@given(partition_tables())
def test_criterion_6a_table_round_trip(table):
    sector = mbr_oracle.build_sector0(table.disk_id, oracle_partitions(table))
    assert read_partition_table(io.BytesIO(sector)) == table


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2**50))
def test_criterion_6b_size_round_trip(size):
    assert parse_size(render_size(size)) == size


@settings(max_examples=1000, deadline=None)
@given(st.lists(command_specs(), max_size=8))
def test_criterion_6c_parser_round_trip(specs):
    pifile = _build_pifile(specs)
    assert parse_pifile_text(render_pifile(pifile), {}).commands == pifile.commands


@settings(max_examples=1000, deadline=None)
@given(st.lists(_stage_kinds, max_size=20))
def test_criterion_6d_stage_assignment_partition(kind_list):
    pifile = _pifile_of_kinds(kind_list)
    staged = assign_stages(pifile)
    flattened = [c for stage in Stage for c in staged[stage]]
    assert len(flattened) == len(pifile.commands)
    assert sorted(id(c) for c in flattened) == sorted(id(c) for c in pifile.commands)


class FailingSecondRun(DryRunExecutor):
    def __init__(self):
        super().__init__()
        self.guest_execs = 0

    def _perform(self, action):
        if action.kind is ActionKind.GUEST_EXEC:
            self.guest_execs += 1
            if self.guest_execs == 2:
                return 1
        return 0


def test_criterion_7_failure_semantics(tmp_path):
    mbr_oracle.write_image(tmp_path / "base.img")
    pifile = tmp_path / "fail.Pifile"
    pifile.write_text(
        "FROM base.img\nRUN first\nRUN second\nRUN third\nINSTALL a /b\n")
    log_path = tmp_path / "plan.log"
    backend = FailingSecondRun()

    code = main(["--dry-run", str(log_path), "--emulator", EMULATOR, str(pifile)],
                ENV, executor_factory=lambda cfg: backend)

    assert code == 2
    kinds = [a.kind for a in backend.actions]
    assert kinds.count(ActionKind.GUEST_EXEC) == 2  # third RUN aborted
    assert ActionKind.COPY_IN not in kinds  # INSTALL aborted too
    failed_at = len(kinds) - 1 - kinds[::-1].index(ActionKind.GUEST_EXEC)
    teardown = kinds[failed_at + 1:]
    assert teardown == [
        ActionKind.REMOVE_EMULATOR,
        ActionKind.UNMOUNT, ActionKind.UNMOUNT, ActionKind.UNMOUNT,
        ActionKind.UNMOUNT, ActionKind.UNMOUNT, ActionKind.UNMOUNT,
    ]
    assert log_path.read_text() == serialize_actions(backend.actions)


def test_criterion_8_pump_safety(tmp_path):
    image = mbr_oracle.write_image(tmp_path / "disk.img")
    digest_before = sha256(image)
    pifile = parse_pifile_text(  # partition 1 is boot: partition 2 starts after it
        "FROM disk.img 1\nTO disk.img\nPUMP 16M\n", {}, source_path=tmp_path / "unsafe.Pifile")
    plan = build_plan(pifile, lambda loc: SourceKind.LOCAL_FILE)

    with open(image, "rb") as fh:
        table = read_partition_table(fh)
    with pytest.raises(ExecutionFailure, match="cannot grow: partition 2 starts after it"):
        check_partition(plan, table, image.stat().st_size)
        backend = LocalExecutor(runner=lambda argv, **kw: (0, ""))
        for action in pump(plan, table)[0]:
            backend.emit(action)
    assert sha256(image) == digest_before  # image byte-identical


LISTING_2 = """\
# Flash target comes from the environment.
INPLACE ${DEVICE}

source wifi.Pifile

RUN tee /etc/network/interfaces << IFACES
auto wlan0
iface wlan0 inet dhcp
    hostname node-${NODE}
IFACES

HOST make dtnd
INSTALL 755 dtnd /usr/local/bin/dtnd
"""

WIFI_MODULE = "RUN apk add wpa_supplicant\nRUN rc-update add wpa_supplicant boot\n"


def test_criterion_9_end_to_end_dry_run(tmp_path):
    device = mbr_oracle.write_image(tmp_path / "target.img")
    (tmp_path / "wifi.Pifile").write_text(WIFI_MODULE)
    pifile = tmp_path / "node.Pifile"
    pifile.write_text(LISTING_2)
    env = dict(ENV, DEVICE=str(device), NODE="alpha")

    logs = []
    backends = []
    for _ in range(2):
        backend = DryRunExecutor()
        backends.append(backend)
        code = main(["--dry-run", str(tmp_path / "plan.log"),
                     "--emulator", EMULATOR, str(pifile)],
                    env, executor_factory=lambda cfg: backend)
        assert code == 0
        logs.append((tmp_path / "plan.log").read_bytes())
    assert logs[0] == logs[1]  # deterministic

    actions = backends[0].actions
    guest_commands = [a.payload["command"] for a in actions
                      if a.kind is ActionKind.GUEST_EXEC]
    # the included module's commands are spliced in order, before later lines
    assert guest_commands == [
        "apk add wpa_supplicant",
        "rc-update add wpa_supplicant boot",
        "tee /etc/network/interfaces",
    ]
    heredoc = next(a for a in actions if a.kind is ActionKind.GUEST_EXEC
                   and a.payload["stdin"])
    assert heredoc.payload["stdin"] == (
        "auto wlan0\niface wlan0 inet dhcp\n    hostname node-alpha\n"
    )
    kinds = [a.kind for a in actions]
    assert kinds.index(ActionKind.HOST_EXEC) < kinds.index(ActionKind.COPY_IN)
    # in-place dry run: target image untouched, no copy emitted
    assert ActionKind.COPY_IMAGE not in kinds
