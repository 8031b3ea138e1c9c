import logging
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from imgforge.errors import PifileError
from imgforge.pifile import CommandKind, parse_pifile_text
from imgforge.plan import (
    Stage,
    assign_stages,
    build_plan,
    validate_plan,
)
from imgforge.source import SourceKind, TargetKind


def pifile_at(tmp_path, text, name="example.Pifile"):
    path = tmp_path / name
    path.write_text(text)
    return parse_pifile_text(text, {}, source_path=path)


def files_probe(*existing):
    paths = {str(p) for p in existing}

    def probe(locator):
        return SourceKind.LOCAL_FILE if locator in paths else None

    return probe


def kinds(staged, stage):
    return [c.kind for c in staged[stage]]


class TestAssignStages:
    def test_listing_shape(self, tmp_path):
        text = ("FROM a.img 2\nTO b.img\nPUMP 100M\n"
                "RUN raspi-config nonint do_serial 0\n"
                "RUN apt-get update\nINSTALL 600 key /root/key\n")
        staged = assign_stages(pifile_at(tmp_path, text))
        assert kinds(staged, Stage.SETUP) == [CommandKind.FROM, CommandKind.TO]
        assert kinds(staged, Stage.PREPARE) == [CommandKind.PUMP]
        assert kinds(staged, Stage.CHROOT) == [
            CommandKind.RUN, CommandKind.RUN, CommandKind.INSTALL,
        ]

    def test_empty_program(self, tmp_path):
        staged = assign_stages(pifile_at(tmp_path, ""))
        assert all(staged[stage] == [] for stage in Stage)

    def test_textual_order_within_stage_preserved(self, tmp_path):
        text = "RUN one\nFROM a.img\nHOST two\nPATH /opt/bin\nRUN three\n"
        staged = assign_stages(pifile_at(tmp_path, text))
        assert kinds(staged, Stage.SETUP) == [CommandKind.FROM]
        assert [c.args for c in staged[Stage.CHROOT]] == [
            ("one",), ("two",), ("/opt/bin",), ("three",),
        ]

    def test_matches_filter_by_kind_oracle(self, tmp_path):
        text = "PUMP 1M\nRUN a\nFROM x.img\nINSTALL f /f\nTO y.img\nHOST b\n"
        pifile = pifile_at(tmp_path, text)
        staged = assign_stages(pifile)
        setup_kinds = {CommandKind.FROM, CommandKind.TO, CommandKind.INPLACE}
        chroot_kinds = {CommandKind.RUN, CommandKind.HOST,
                        CommandKind.INSTALL, CommandKind.PATH}
        assert staged[Stage.SETUP] == [c for c in pifile.commands if c.kind in setup_kinds]
        assert staged[Stage.PREPARE] == [c for c in pifile.commands
                                         if c.kind is CommandKind.PUMP]
        assert staged[Stage.CHROOT] == [c for c in pifile.commands if c.kind in chroot_kinds]


class TestBuildPlan:
    def test_default_destination_named_after_pifile(self, tmp_path):
        pifile = pifile_at(tmp_path, "FROM base.img\n")
        plan = build_plan(pifile, files_probe(tmp_path / "base.img"))
        assert plan.destination.path == str(tmp_path / "example.img")
        assert plan.destination.kind is TargetKind.LOCAL_FILE
        assert plan.destination.path != plan.source.locator
        assert plan.partition_index == 2

    def test_inplace(self, tmp_path):
        pifile = pifile_at(tmp_path, "INPLACE x.img\n")
        plan = build_plan(pifile, files_probe(tmp_path / "x.img"))
        assert plan.source.locator == str(tmp_path / "x.img")
        assert plan.destination.path == plan.source.locator
        assert Path(plan.destination.path) == Path(plan.source.locator)

    def test_from_partition_and_to(self, tmp_path):
        pifile = pifile_at(tmp_path, "FROM a.img 1\nTO b.img\n")
        plan = build_plan(pifile, files_probe(tmp_path / "a.img"))
        assert plan.partition_index == 1
        assert plan.destination.path == str(tmp_path / "b.img")

    def test_url_source(self, tmp_path):
        pifile = pifile_at(tmp_path, "FROM https://example.net/base.img.gz\n")
        plan = build_plan(pifile, files_probe())
        assert plan.source.kind is SourceKind.URL
        assert plan.source.locator == "https://example.net/base.img.gz"

    def test_absolute_paths_unchanged(self, tmp_path):
        img = tmp_path / "elsewhere" / "a.img"
        pifile = pifile_at(tmp_path, f"FROM {img}\n")
        plan = build_plan(pifile, files_probe(img))
        assert plan.source.locator == str(img)

    def test_absolute_paths_are_normalised(self, tmp_path):
        """``//``, ``/./`` and a trailing ``/`` fold away, as in a relative path."""
        (tmp_path / "out").mkdir()
        pifile = pifile_at(tmp_path, f"FROM {tmp_path}//./a.img\nTO {tmp_path}/out/./b.img/\n")
        plan = build_plan(pifile, files_probe(tmp_path / "a.img"))
        assert plan.source.locator == str(tmp_path / "a.img")
        assert plan.destination.path == str(tmp_path / "out" / "b.img")

    def test_missing_source(self, tmp_path):
        with pytest.raises(PifileError, match="neither FROM nor INPLACE"):
            build_plan(pifile_at(tmp_path, "RUN x\n"))

    def test_from_and_inplace_conflict(self, tmp_path):
        pifile = pifile_at(tmp_path, "FROM a.img\nINPLACE b.img\n")
        with pytest.raises(PifileError, match="FROM and INPLACE are mutually exclusive"):
            build_plan(pifile)

    def test_multiple_from_conflict(self, tmp_path):
        pifile = pifile_at(tmp_path, "FROM a.img\nFROM b.img\n")
        with pytest.raises(PifileError, match="multiple FROM directives"):
            build_plan(pifile)

    def test_to_with_inplace_conflict(self, tmp_path):
        pifile = pifile_at(tmp_path, "INPLACE a.img\nTO b.img\n")
        with pytest.raises(PifileError, match="TO cannot be combined with INPLACE"):
            build_plan(pifile)

    def test_inplace_url_refused_at_its_line(self, tmp_path):
        pifile = pifile_at(tmp_path, "RUN x\nINPLACE https://host/base.img\n")
        with pytest.raises(PifileError, match="FROM <url> with TO") as info:
            build_plan(pifile, files_probe())
        assert info.value.origin.line_no == 2

    @pytest.mark.parametrize("image", ["base.img.xz", "base.tar.gz"])
    def test_inplace_packed_image_refused_at_its_line(self, tmp_path, image):
        # refused by its name, before the source is classified
        pifile = pifile_at(tmp_path, f"RUN x\nINPLACE {image}\nPUMP 1M\n")
        with pytest.raises(PifileError, match="FROM <archive> with TO") as info:
            build_plan(pifile, files_probe(tmp_path / image))
        assert info.value.origin.line_no == 2

    def test_multiple_to_last_wins_with_warning(self, tmp_path, caplog):
        pifile = pifile_at(tmp_path, "FROM a.img\nTO first.img\nTO second.img\n")
        with caplog.at_level(logging.WARNING, logger="imgforge.plan"):
            plan = build_plan(pifile, files_probe(tmp_path / "a.img"))
        assert plan.destination.path == str(tmp_path / "second.img")
        assert any("multiple TO" in r.message for r in caplog.records)

    @pytest.mark.parametrize("index", ["0", "-1", "two", "5"])
    def test_invalid_partition_index(self, tmp_path, index):
        pifile = pifile_at(tmp_path, f"FROM a.img {index}\n")
        with pytest.raises(PifileError, match="partition index must be"):
            build_plan(pifile, files_probe(tmp_path / "a.img"))

    def test_to_directory_must_exist(self, tmp_path):
        pifile = pifile_at(tmp_path, "FROM a.img\nTO nodir/out.img\nHOST true\n")
        with pytest.raises(PifileError,
                           match="the directory of TO nodir/out.img does not exist") as err:
            build_plan(pifile, files_probe(tmp_path / "a.img"))
        assert err.value.origin.line_no == 2

    def test_source_must_exist(self, tmp_path):
        pifile = pifile_at(tmp_path, "FROM nowhere.img\n")
        with pytest.raises(PifileError, match="source not found"):
            build_plan(pifile, files_probe())

    def test_pump_amounts_sum(self, tmp_path):
        pifile = pifile_at(tmp_path, "FROM a.img\nPUMP 1M\nPUMP 512\nPUMP 1k\n")
        plan = build_plan(pifile, files_probe(tmp_path / "a.img"))
        assert plan.pump_bytes == 1048576 + 512 + 1024

    def test_malformed_pump_surfaces(self, tmp_path):
        pifile = pifile_at(tmp_path, "FROM a.img\nPUMP huge\n")
        with pytest.raises(PifileError, match="malformed size 'huge'"):
            build_plan(pifile, files_probe(tmp_path / "a.img"))

    @pytest.mark.parametrize("mode", ["999", "78", "worldwrite", "77777"])
    def test_invalid_modes(self, tmp_path, mode):
        pifile = pifile_at(tmp_path, f"FROM a.img\nINSTALL {mode} x /y\n")
        with pytest.raises(PifileError, match="INSTALL mode must be octal") as err:
            build_plan(pifile, files_probe(tmp_path / "a.img"))
        assert err.value.origin.line_no == 2

    @pytest.mark.parametrize("dst", ["../../dotdot.conf", "/etc/../../x", "/etc/.."])
    def test_install_destination_with_dotdot_refused_at_its_line(self, tmp_path, dst):
        pifile = pifile_at(tmp_path, f"FROM a.img\nINSTALL 644 x {dst}\n")
        with pytest.raises(PifileError, match="'..' component") as err:
            build_plan(pifile, files_probe(tmp_path / "a.img"))
        assert err.value.origin.line_no == 2

    @pytest.mark.parametrize("dst", ["/etc/..d/x", "/etc/a..b", "/etc/./x"])
    def test_install_destination_with_dots_in_names_accepted(self, tmp_path, dst):
        pifile = pifile_at(tmp_path, f"FROM a.img\nINSTALL x {dst}\n")
        build_plan(pifile, files_probe(tmp_path / "a.img"))

    def test_to_block_device_flag(self, tmp_path):
        def probe(locator):
            if locator == "/dev/sdc":
                return SourceKind.BLOCK_DEVICE
            if locator == str(tmp_path / "a.img"):
                return SourceKind.LOCAL_FILE
            return None

        pifile = pifile_at(tmp_path, "FROM a.img\nTO /dev/sdc\n")
        plan = build_plan(pifile, probe)
        assert plan.destination.kind is TargetKind.BLOCK_DEVICE
        assert plan.destination.path == "/dev/sdc"

    def test_pump_onto_block_device_is_refused(self, tmp_path):
        def probe(locator):
            return (SourceKind.BLOCK_DEVICE if locator == "/dev/sdc"
                    else SourceKind.LOCAL_FILE)

        for setup in ("INPLACE /dev/sdc\n", "FROM a.img\nTO /dev/sdc\n"):
            pifile = pifile_at(tmp_path, f"{setup}RUN x\nPUMP 1M\nPUMP 1M\n")
            with pytest.raises(PifileError, match="PUMP cannot grow the fixed-size device") as err:
                build_plan(pifile, probe)
            assert "/dev/sdc" in err.value.args[0]
            assert err.value.origin.line_no == setup.count("\n") + 2

    def test_build_plan_idempotent(self, tmp_path):
        pifile = pifile_at(tmp_path, "FROM a.img\nPUMP 1M\nRUN x\n")
        probe = files_probe(tmp_path / "a.img")
        assert build_plan(pifile, probe) == build_plan(pifile, probe)


class TestSourceKind:
    """build_plan knows a URL by its scheme and anything else by the probe."""

    def test_http_url_is_found_by_scheme_alone(self, tmp_path):
        plan = build_plan(pifile_at(tmp_path, "FROM https://host/img.zip\n"), lambda loc: None)
        assert plan.source.kind is SourceKind.URL

    def test_ftp_url_is_found_by_scheme_alone(self, tmp_path):
        plan = build_plan(pifile_at(tmp_path, "FROM ftp://host/base.img\n"), lambda loc: None)
        assert plan.source.kind is SourceKind.URL

    def test_block_device_is_found_by_the_probe(self, tmp_path):
        probe = lambda loc: SourceKind.BLOCK_DEVICE if loc == "/dev/sdc" else None
        plan = build_plan(pifile_at(tmp_path, "FROM /dev/sdc\n"), probe)
        assert plan.source.kind is SourceKind.BLOCK_DEVICE

    def test_local_file_is_found_by_the_default_probe(self, tmp_path):
        (tmp_path / "base.img").write_bytes(b"x")
        plan = build_plan(pifile_at(tmp_path, "FROM base.img\n"))
        assert plan.source.kind is SourceKind.LOCAL_FILE

    def test_missing_path_is_refused_at_its_line(self, tmp_path):
        pifile = pifile_at(tmp_path, "RUN x\nFROM gone.img\n")
        with pytest.raises(PifileError) as info:
            build_plan(pifile)
        assert info.value.args[0] == f"source not found: {tmp_path / 'gone.img'}"
        assert info.value.origin.line_no == 2
        assert info.value.exit_code == 1

    def test_unknown_scheme_is_probed_as_a_path(self, tmp_path):
        probed = []
        pifile = pifile_at(tmp_path, "FROM weird://host/x\n")
        with pytest.raises(PifileError, match="source not found"):
            build_plan(pifile, lambda loc: probed.append(loc))
        assert probed == [str(tmp_path / "weird:/host/x")]

    @pytest.mark.parametrize("text", ["FROM {}\nTO out.img\n", "INPLACE {}\n"])
    def test_directory_is_refused_at_its_line(self, tmp_path, text):
        (tmp_path / "dir").mkdir()
        with pytest.raises(PifileError) as info:
            build_plan(pifile_at(tmp_path, text.format("dir")))
        assert info.value.args[0] == f"source is not a file or block device: {tmp_path / 'dir'}"
        assert info.value.origin.line_no == 1


class TestValidatePlan:
    def _plan(self, tmp_path, text, extra_files=()):
        pifile = pifile_at(tmp_path, text)
        probe = files_probe(tmp_path / "a.img", *extra_files)
        return build_plan(pifile, probe)

    def test_no_chroot_commands_warns(self, tmp_path):
        plan = self._plan(tmp_path, "FROM a.img\n")
        assert any("no guest modifications" in w for w in validate_plan(plan))

    def test_consistent_plan_has_no_warnings(self, tmp_path):
        (tmp_path / "key.pub").write_text("ssh-ed25519 AAAA\n")
        text = ("FROM a.img 2\nTO out.img\nPUMP 100M\n"
                "RUN apt-get update\nINSTALL 600 key.pub /root/key.pub\n")
        plan = self._plan(tmp_path, text)
        assert validate_plan(plan) == []

    def test_install_after_host_is_deferred(self, tmp_path):
        text = ("FROM a.img\nHOST make build/dtnd\n"
                "INSTALL 755 build/dtnd /usr/local/bin/dtnd\n")
        warnings = validate_plan(self._plan(tmp_path, text))
        deferred = [w for w in warnings if "deferred existence" in w]
        missing = [w for w in warnings if "does not exist:" in w]
        assert len(deferred) == 1
        assert missing == []

    def test_install_without_prior_host_is_missing(self, tmp_path):
        # same commands, opposite order: nothing can produce the file first
        text = ("FROM a.img\nINSTALL 755 build/dtnd /usr/local/bin/dtnd\n"
                "HOST make build/dtnd\n")
        warnings = validate_plan(self._plan(tmp_path, text))
        assert any("does not exist: build/dtnd" in w for w in warnings)
        assert not any("deferred existence" in w for w in warnings)

    def test_unrelated_host_does_not_defer(self, tmp_path):
        text = ("FROM a.img\nHOST echo compiling\n"
                "INSTALL out.bin /usr/local/bin/tool\n")
        warnings = validate_plan(self._plan(tmp_path, text))
        assert any("does not exist: out.bin" in w for w in warnings)



# --- staging properties -------------------------------------------------------

_stage_kinds = st.sampled_from([
    CommandKind.FROM, CommandKind.TO, CommandKind.INPLACE, CommandKind.PUMP,
    CommandKind.PATH, CommandKind.RUN, CommandKind.INSTALL, CommandKind.HOST,
])


def _pifile_of_kinds(kind_list):
    from imgforge.pifile import Command, Pifile

    args = {
        CommandKind.FROM: ("a.img",),
        CommandKind.TO: ("b.img",),
        CommandKind.INPLACE: ("c.img",),
        CommandKind.PUMP: ("1M",),
        CommandKind.PATH: ("/opt/bin",),
        CommandKind.RUN: ("true",),
        CommandKind.INSTALL: ("src", "dst"),
        CommandKind.HOST: ("true",),
    }
    commands = [
        Command(kind=k, args=args[k], file=Path("<gen>"), line_no=i + 1)
        for i, k in enumerate(kind_list)
    ]
    return Pifile(commands=commands, source_path=Path("<gen>"))


@given(st.lists(_stage_kinds, max_size=20))
def test_stage_assignment_is_a_partition(kind_list):
    pifile = _pifile_of_kinds(kind_list)
    staged = assign_stages(pifile)
    flattened = [c for stage in Stage for c in staged[stage]]
    assert len(flattened) == len(pifile.commands)
    assert sorted(id(c) for c in flattened) == sorted(id(c) for c in pifile.commands)


@given(st.lists(_stage_kinds, max_size=20))
def test_cross_stage_order_is_fixed(kind_list):
    # wherever commands sit in the text, execution order is setup, prepare, chroot
    pifile = _pifile_of_kinds(kind_list)
    staged = assign_stages(pifile)
    execution = [c for stage in sorted(Stage) for c in staged[stage]]
    stages_seen = [s for s in Stage for _ in staged[s]]
    assert stages_seen == sorted(stages_seen)
    assert len(execution) == len(kind_list)
