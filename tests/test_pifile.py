import logging
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from imgforge.errors import PifileError
from imgforge.pifile import (
    Command,
    CommandKind,
    parse_pifile,
    parse_pifile_text,
    pathlib_join,
    render_pifile,
    substitute_env,
)


def parse(text, env=None):
    return parse_pifile_text(text, env)


def kinds_and_args(pifile):
    return [(c.kind, c.args) for c in pifile.commands]


class TestKeywords:
    def test_every_keyword_parses_to_its_kind(self):
        text = ("FROM a.img\nTO b.img\nINPLACE c.img\nPUMP 1M\nPATH /opt/bin\nRUN true\n"
                "INSTALL a /b\nHOST true\n")
        kinds = [c.kind for c in parse(text).commands]
        assert kinds == [CommandKind.FROM, CommandKind.TO, CommandKind.INPLACE, CommandKind.PUMP,
                         CommandKind.PATH, CommandKind.RUN, CommandKind.INSTALL, CommandKind.HOST]
        assert {*kinds, CommandKind.INCLUDE} == set(CommandKind)

    def test_include_and_lower_case_source_both_include(self, tmp_path):
        (tmp_path / "mod.Pifile").write_text("RUN from-mod\n")
        pifile = parse_pifile_text("INCLUDE mod.Pifile\nsource mod.Pifile\n",
                                   source_path=tmp_path / "main.Pifile")
        assert [(c.kind, c.args, c.origin.file.name) for c in pifile.commands] == [
            (CommandKind.RUN, ("from-mod",), "mod.Pifile")] * 2

    @pytest.mark.parametrize("token", ["pump", "From", "SOURCE", "FROMM", "echo"])
    def test_other_tokens_are_unknown_directives(self, token):
        """Matching is exact and case-sensitive; ``source`` is the one lower-case keyword."""
        with pytest.raises(PifileError, match=f"unknown directive '{token}'"):
            parse(f"{token} a.img\n")


class TestBasicParsing:
    def test_from_with_partition(self):
        pifile = parse("FROM raspbian.img 1\n")
        assert kinds_and_args(pifile) == [(CommandKind.FROM, ("raspbian.img", "1"))]

    def test_empty_file(self):
        assert parse("").commands == []

    def test_blank_and_comment_lines(self):
        text = "\n  \n# a comment\nFROM a.img\n   # indented comment\n\nTO b.img\n"
        assert kinds_and_args(parse(text)) == [
            (CommandKind.FROM, ("a.img",)),
            (CommandKind.TO, ("b.img",)),
        ]

    def test_crlf_line_endings(self):
        pifile = parse("FROM a.img\r\nPUMP 1M\r\n")
        assert kinds_and_args(pifile) == [
            (CommandKind.FROM, ("a.img",)),
            (CommandKind.PUMP, ("1M",)),
        ]

    def test_line_numbers_track_source(self):
        pifile = parse("# header\n\nFROM a.img\n\nRUN uname -a\n")
        assert [c.origin.line_no for c in pifile.commands] == [3, 5]

    def test_run_argument_is_verbatim(self):
        pifile = parse("RUN apt-get update && apt-get -y upgrade\n")
        assert pifile.commands[0].args == ("apt-get update && apt-get -y upgrade",)

    def test_run_keeps_inner_spacing(self):
        pifile = parse('RUN echo "two  spaces"\n')
        assert pifile.commands[0].args == ('echo "two  spaces"',)

    def test_leading_whitespace_before_keyword(self):
        pifile = parse("  PUMP 1M\n")
        assert pifile.commands[0].kind is CommandKind.PUMP

    def test_line_continuation(self):
        pifile = parse("RUN apt-get install -y \\\n    tmux vim\nPUMP 1M\n")
        assert pifile.commands[0].args == ("apt-get install -y     tmux vim",)
        assert pifile.commands[1].kind is CommandKind.PUMP

    def test_determinism(self):
        text = "FROM a.img\nRUN x\nINSTALL f /etc/f\n"
        assert parse(text).commands == parse(text).commands


class TestErrors:
    def test_unknown_caps_command(self):
        with pytest.raises(PifileError, match="unknown directive 'BOGUS'"):
            parse("BOGUS stuff\n")

    def test_shell_line_rejected(self):
        with pytest.raises(PifileError, match="unknown directive 'echo'"):
            parse("echo hello\n")

    def test_error_carries_location(self):
        with pytest.raises(PifileError, match="unknown directive 'BOGUS'") as err:
            parse("FROM a.img\nBOGUS\n")
        assert ":2:" in str(err.value)

    @pytest.mark.parametrize("text", [
        "FROM\n",
        "FROM a b c\n",
        "TO\n",
        "TO a b\n",
        "PUMP\n",
        "PUMP 1M 2M\n",
        "PATH\n",
        "INSTALL onlyone\n",
        "INSTALL a b c d\n",
        "RUN\n",
        "HOST\n",
        "INCLUDE\n",
    ])
    def test_arity_violations(self, text):
        with pytest.raises(PifileError, match="takes .* argument"):
            parse(text)

    def test_missing_pifile(self, tmp_path):
        with pytest.raises(PifileError) as err:
            parse_pifile(tmp_path / "missing.Pifile")
        assert "missing.Pifile" in str(err.value)


class TestSubstitution:
    def test_substitution_matches_textual_oracle(self):
        # oracle: replace the variable in the text first, then parse
        env = {"SZ": "100M"}
        direct = parse("PUMP $SZ\n", env)
        oracle = parse("PUMP $SZ\n".replace("$SZ", "100M"), {})
        assert direct.commands == oracle.commands

    def test_braced_form(self):
        pifile = parse("FROM ${BASE}.img\n", {"BASE": "raspbian"})
        assert pifile.commands[0].args == ("raspbian.img",)

    def test_undefined_expands_empty_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="imgforge.pifile"):
            pifile = parse("RUN echo [$NOPE]\n", {})
        assert pifile.commands[0].args == ("echo []",)
        assert any("NOPE" in record.message for record in caplog.records)

    def test_substitute_env_helper(self):
        assert substitute_env("$A ${B} $A", {"A": "1", "B": "2"}) == "1 2 1"

    def test_dollar_without_name_left_alone(self):
        pifile = parse("RUN echo $ 5$\n", {})
        assert pifile.commands[0].args == ("echo $ 5$",)


class TestHeredocs:
    def test_two_line_body(self):
        pifile = parse("RUN tee /etc/x << EOF\na\nb\nEOF\n")
        cmd = pifile.commands[0]
        assert cmd.args == ("tee /etc/x",)
        assert cmd.heredoc == "a\nb\n"

    def test_empty_body(self):
        pifile = parse("RUN cat << EOF\nEOF\n")
        assert pifile.commands[0].heredoc == ""

    def test_no_space_marker(self):
        pifile = parse("HOST cat <<END\nline\nEND\n")
        assert pifile.commands[0].heredoc == "line\n"

    def test_body_substitution_matches_oracle(self):
        text = "RUN tee /etc/hostname << EOF\nnode-$NAME\nEOF\n"
        parsed = parse(text, {"NAME": "alpha"})
        # oracle: capture the raw body by parsing with no substitution target,
        # then apply the same textual replacement
        raw = parse(text, {"NAME": "$NAME"}).commands[0].heredoc
        assert parsed.commands[0].heredoc == raw.replace("$NAME", "alpha")

    def test_body_lines_not_parsed_as_commands(self):
        pifile = parse("RUN tee /x << EOF\nFROM not-a-command\nEOF\nPUMP 1M\n")
        assert [c.kind for c in pifile.commands] == [CommandKind.RUN, CommandKind.PUMP]
        assert pifile.commands[0].heredoc == "FROM not-a-command\n"

    def test_unterminated(self):
        with pytest.raises(PifileError, match="never terminated"):
            parse("RUN cat << EOF\nnever closed\n")

    def test_delimiter_must_match_exactly(self):
        with pytest.raises(PifileError, match="never terminated"):
            parse("RUN cat << EOF\nbody\n EOF\n")  # leading space: not the delimiter

    @pytest.mark.parametrize("line", [
        "HOST echo $((1 << 4))",
        "RUN echo 'a << b'",
        "RUN cat <<< word",  # a here-string: the command's text, like any other
        "RUN << EOF",  # no command before the marker
    ])
    def test_a_non_marker_is_command_text(self, line):
        pifile = parse(f"{line}\nPUMP 1M\n")
        assert kinds_and_args(pifile) == [(CommandKind(line.split()[0]), (line[4:].strip(),)),
                                          (CommandKind.PUMP, ("1M",))]
        assert pifile.commands[0].heredoc is None

    def test_plain_word_delimiters(self):
        pifile = parse("RUN a << EOF_\nx\nEOF_\nHOST b <<end-1.x\ny\nend-1.x\n")
        assert [c.heredoc for c in pifile.commands] == ["x\n", "y\n"]

    @pytest.mark.parametrize("form", ["<< 'EOF'", '<< "EOF"', "<<'EOF'", "<<-EOF", "<<- EOF"])
    def test_a_quoted_or_dash_marker_is_refused_at_its_line(self, form):
        with pytest.raises(PifileError, match="unsupported here-document form") as err:
            parse(f"FROM a.img\nRUN cat {form}\nFROM body-line\nEOF\n")
        assert err.value.origin.line_no == 2
        assert form in str(err.value)

    @pytest.mark.parametrize("line, form", [
        ("RUN cat << EOF > /etc/motd", "<< EOF >"),
        ("RUN cat <<EOF>>/etc/motd", "<<EOF>>"),
        ("HOST sort << EOF | uniq", "<< EOF |"),
        ("RUN cat << EOF 2> /dev/null", "<< EOF 2>"),
        ("RUN cat << EOF; echo done", "<< EOF;"),
        ("HOST cat << EOF && echo done", "<< EOF &"),
        ("RUN cat << EOF < /dev/null", "<< EOF <"),
        ("RUN echo $((1 << 4 | 2)); cat << EOF > /etc/motd", "<< EOF >"),
    ])
    def test_a_marker_followed_by_an_operator_is_refused_at_its_line(self, line, form):
        with pytest.raises(PifileError, match="must end the line") as err:
            parse(f"FROM a.img\n{line}\nPUMP 1G\nEOF\n")
        assert err.value.origin.line_no == 2
        assert f"unsupported here-document form {form!r}" in str(err.value)
        assert "'tee FILE << WORD'" in str(err.value)

    @pytest.mark.parametrize("line", [
        "RUN echo $((1 << 4)) > f",
        "RUN echo $((1 << 4 | 2)) > f",
        "RUN test $(( (x << 2) & 4 )) -eq 4",
        "RUN echo 'a << b' > f",
        "RUN cat <<< word > f",
    ])
    def test_a_non_marker_before_an_operator_is_command_text(self, line):
        pifile = parse(f"{line}\nPUMP 1M\n")
        assert kinds_and_args(pifile) == [(CommandKind.RUN, (line[4:],)),
                                          (CommandKind.PUMP, ("1M",))]

    def test_heredoc_on_non_run_is_malformed(self):
        with pytest.raises(PifileError, match="PUMP takes 1 argument"):
            parse("PUMP 1M << EOF\nEOF\n")


class TestIncludes:
    def test_splice_preserves_order(self, tmp_path):
        (tmp_path / "wifi.Pifile").write_text("RUN setup-wifi\n")
        main = tmp_path / "main.Pifile"
        main.write_text("FROM a.img\nINCLUDE wifi.Pifile\nRUN after\n")
        pifile = parse_pifile(main)
        assert [(c.kind, c.args) for c in pifile.commands] == [
            (CommandKind.FROM, ("a.img",)),
            (CommandKind.RUN, ("setup-wifi",)),
            (CommandKind.RUN, ("after",)),
        ]

    def test_source_alias(self, tmp_path):
        (tmp_path / "mod.Pifile").write_text("RUN included\n")
        main = tmp_path / "main.Pifile"
        main.write_text("FROM a.img\nsource mod.Pifile\n")
        pifile = parse_pifile(main)
        assert pifile.commands[1].args == ("included",)

    def test_relative_to_including_file(self, tmp_path):
        sub = tmp_path / "modules"
        sub.mkdir()
        (sub / "inner.Pifile").write_text("RUN deep\n")
        (sub / "outer.Pifile").write_text("INCLUDE inner.Pifile\n")
        main = tmp_path / "main.Pifile"
        main.write_text("FROM a.img\nINCLUDE modules/outer.Pifile\n")
        pifile = parse_pifile(main)
        assert pifile.commands[1].args == ("deep",)

    def test_include_origin_points_at_included_file(self, tmp_path):
        (tmp_path / "mod.Pifile").write_text("RUN included\n")
        main = tmp_path / "main.Pifile"
        main.write_text("FROM a.img\nINCLUDE mod.Pifile\n")
        pifile = parse_pifile(main)
        assert pifile.commands[1].origin.file.name == "mod.Pifile"

    def test_missing_include(self, tmp_path):
        main = tmp_path / "main.Pifile"
        main.write_text("FROM a.img\nINCLUDE nowhere.Pifile\n")
        with pytest.raises(PifileError, match="included file not found"):
            parse_pifile(main)

    def test_self_include_by_bare_name_is_a_cycle(self, tmp_path):
        loop = tmp_path / "loop.Pifile"
        loop.write_text("INCLUDE loop.Pifile\n")
        with pytest.raises(PifileError, match="include cycle"):
            parse_pifile(loop)

    def test_self_include_is_a_cycle_at_its_line(self, tmp_path):
        loop = tmp_path / "loop.Pifile"
        loop.write_text("RUN true\nINCLUDE ./loop.Pifile\n")
        with pytest.raises(PifileError, match="include cycle") as caught:
            parse_pifile(loop)
        assert caught.value.origin.line_no == 2
        assert caught.value.args[0] == f"include cycle: {loop} -> {tmp_path}/loop.Pifile"

    def test_two_file_cycle_names_the_chain(self, tmp_path):
        (tmp_path / "main.Pifile").write_text("FROM base.img\nsource loop.Pifile\n")
        (tmp_path / "loop.Pifile").write_text("HOST true\nsource main.Pifile\n")
        with pytest.raises(PifileError, match="include cycle") as caught:
            parse_pifile(tmp_path / "main.Pifile")
        origin = caught.value.origin
        assert (origin.file.name, origin.line_no) == ("loop.Pifile", 2)
        assert caught.value.args[0] == "include cycle: " + " -> ".join(
            str(tmp_path / name) for name in ("main.Pifile", "loop.Pifile", "main.Pifile"))

    def test_include_through_a_symlink_is_a_cycle(self, tmp_path):
        (tmp_path / "main.Pifile").write_text("FROM base.img\nINCLUDE link.Pifile\n")
        (tmp_path / "link.Pifile").symlink_to("main.Pifile")
        with pytest.raises(PifileError, match="include cycle"):
            parse_pifile(tmp_path / "main.Pifile")

    def test_diamond_include_is_no_cycle(self, tmp_path):
        """a sources b and c, and both source d: d is read twice, in a chain of its own."""
        (tmp_path / "a.Pifile").write_text("FROM base.img\nsource b.Pifile\nsource c.Pifile\n")
        (tmp_path / "b.Pifile").write_text("RUN b\nsource d.Pifile\n")
        (tmp_path / "c.Pifile").write_text("RUN c\nsource d.Pifile\n")
        (tmp_path / "d.Pifile").write_text("RUN d\n")
        pifile = parse_pifile(tmp_path / "a.Pifile")
        assert [c.args[0] for c in pifile.commands] == ["base.img", "b", "d", "c", "d"]

    def test_env_reaches_included_file(self, tmp_path):
        (tmp_path / "mod.Pifile").write_text("RUN echo $GREETING\n")
        main = tmp_path / "main.Pifile"
        main.write_text("FROM a.img\nINCLUDE mod.Pifile\n")
        pifile = parse_pifile(main, {"GREETING": "hi"})
        assert pifile.commands[1].args == ("echo hi",)


# --- round-trip and noise-immunity properties --------------------------------

_token = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-/=:",
    min_size=1, max_size=12,
)
_verbatim_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 ._-/=:&|'\"<()",
    max_size=40,
)
# a trailing `<< word` opens a here-document, is refused, or is followed by the marker of
# the rendered here-document, and a plain `<< word` followed by an operator is refused;
# any other `<<` is command text
_TRAILING_MARKER = re.compile(
    r"(?:^|\S\s+|[^\s<])<<\s*([A-Za-z0-9_][A-Za-z0-9_.-]*|-\s*\S+|['\"]\S*)$"
    r"|(?<!<)<<\s*[A-Za-z0-9_][A-Za-z0-9_.-]*\s*(?:2>|[<>|&;])")
_verbatim = st.one_of(
    _verbatim_text,
    st.tuples(_verbatim_text, st.sampled_from(["<<", " << ", "$((n << 2))"]),
              _verbatim_text).map("".join),
).map(lambda s: s.strip()).filter(lambda s: s and not _TRAILING_MARKER.search(s))
_heredoc_line = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 ._-{}=",
    max_size=30,
)


@st.composite
def commands(draw):
    kind = draw(st.sampled_from([
        CommandKind.FROM, CommandKind.TO, CommandKind.INPLACE, CommandKind.PUMP,
        CommandKind.PATH, CommandKind.RUN, CommandKind.INSTALL, CommandKind.HOST,
    ]))
    if kind in (CommandKind.RUN, CommandKind.HOST):
        args = (draw(_verbatim),)
        heredoc = None
        if draw(st.booleans()):
            lines = draw(st.lists(_heredoc_line, max_size=4))
            heredoc = "\n".join(lines) + "\n" if lines else ""
        return kind, args, heredoc
    if kind is CommandKind.FROM:
        n = draw(st.integers(1, 2))
    elif kind is CommandKind.INSTALL:
        n = draw(st.integers(2, 3))
    else:
        n = 1
    return kind, tuple(draw(_token) for _ in range(n)), None


def _build_pifile(specs):
    from pathlib import Path

    from imgforge.pifile import Pifile, SourceLine

    cmds = [
        Command(kind=kind, args=args,
                origin=SourceLine(Path("<gen>"), i + 1, ""), heredoc=heredoc)
        for i, (kind, args, heredoc) in enumerate(specs)
    ]
    return Pifile(commands=cmds, source_path=Path("<gen>"))


@given(st.lists(commands(), max_size=8))
def test_render_parse_round_trip(specs):
    pifile = _build_pifile(specs)
    reparsed = parse_pifile_text(render_pifile(pifile), {})
    assert reparsed.commands == pifile.commands


@given(st.lists(commands(), max_size=6), st.data())
def test_comment_and_blank_injection_leaves_ast_unchanged(specs, data):
    # noise goes between commands, never inside a heredoc body, where any
    # line is legitimately content
    from imgforge.pifile import render_command

    pifile = _build_pifile(specs)
    noise_strategy = st.lists(
        st.sampled_from(["", "   ", "# noise", "  # indented noise"]), max_size=2,
    )
    chunks = []
    for command in pifile.commands:
        chunks.extend(data.draw(noise_strategy))
        chunks.append(render_command(command))
    chunks.extend(data.draw(noise_strategy))
    noisy = "\n".join(chunks) + "\n" if chunks else ""
    assert parse_pifile_text(noisy, {}).commands == pifile.commands


_component = st.sampled_from(["a", "b.c", ".", "..", "", "-x"])


@given(st.sampled_from([".", "/", "//", "mods", "/abs/d", "../up"]),
       st.lists(_component, min_size=1, max_size=5).map("/".join).filter(bool))
def test_pathlib_join_spells_a_path_as_pathlib_does(directory, path_text):
    # INSTALL's src= spelling: pathlib folds `a//b` and `./x`, os.path.join does not
    assert pathlib_join(directory, path_text) == str(Path(directory) / path_text)
