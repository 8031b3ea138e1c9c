"""Pifile parsing.

A Pifile is a line-based configuration file: every line is blank, a ``#``
comment, or a directive keyword in caps followed by its arguments.

Directives::

    FROM <source> [partition]    base image: local file, block device, or URL
    TO <destination>             output image file or block device
    INPLACE <image>              modify the given image directly, no copy
    PUMP <size>                  grow the image (binary suffixes k/M/G/T)
    PATH <dir>                   prepend a directory to the guest PATH
    RUN <command...>             run a command inside the guest image
    HOST <command...>            run a command on the build host
    INSTALL [mode] <src> <dst>   copy a host file or tree into the guest
    INCLUDE <file>               splice another Pifile (alias: source)

``RUN`` and ``HOST`` accept here-documents; the body is fed to the command
on standard input::

    RUN tee /etc/wpa_supplicant.conf << EOF
    network={ ... }
    EOF

Environment variables (``$NAME`` or ``${NAME}``) are substituted once, at
parse time, from the supplied environment map; undefined names expand to
the empty string with a warning.  Comments, blank lines, and CRLF line
endings are handled; a trailing backslash joins physical lines.  The text
of RUN/HOST arguments is never interpreted here: pipes, redirections, and
``&&`` travel verbatim to the executor, which runs them under a shell.
"""

from __future__ import annotations

import logging
import posixpath
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping

from .errors import PifileError

logger = logging.getLogger(__name__)


class CommandKind(Enum):
    FROM = "FROM"
    TO = "TO"
    INPLACE = "INPLACE"
    PUMP = "PUMP"
    PATH = "PATH"
    RUN = "RUN"
    INSTALL = "INSTALL"
    HOST = "HOST"
    INCLUDE = "INCLUDE"
    __hash__ = object.__hash__  # C-level; Enum's own is a Python call on every dict lookup


# a line's first token, matched exactly: ``pump`` and ``From`` are unknown directives
_KEYWORDS: dict[str, CommandKind] = {kind.value: kind for kind in CommandKind}
_KEYWORDS["source"] = CommandKind.INCLUDE  # lower-case include alias

# (min, max) argument count per kind; None means unbounded
_ARITY: dict[CommandKind, tuple[int, int | None]] = {
    CommandKind.FROM: (1, 2),
    CommandKind.TO: (1, 1),
    CommandKind.INPLACE: (1, 1),
    CommandKind.PUMP: (1, 1),
    CommandKind.PATH: (1, 1),
    CommandKind.RUN: (1, None),
    CommandKind.INSTALL: (2, 3),
    CommandKind.HOST: (1, None),
    CommandKind.INCLUDE: (1, 1),
}

# kinds whose argument text is one uninterpreted string handed to a shell
_VERBATIM = frozenset({CommandKind.RUN, CommandKind.HOST})

# `<< WORD` ending a RUN/HOST line opens a here-document when WORD is a plain
# word; a quoted WORD or `<<-` is refused, and so is a plain word followed by an
# operator (_MARKER_NOT_LAST); any other `<<`, `<<<` among them, is command text
_HEREDOC_MARKER = re.compile(
    r"(?P<cmd>.*\S)(?:\s+|(?<!<))"  # a `<<` right after a `<` is part of a `<<<`
    r"(?P<form><<\s*(?:(?P<delim>[A-Za-z0-9_][A-Za-z0-9_.-]*)|-\s*\S+|['\"]\S*))"
)
# a plain `<< WORD` followed by a redirection or a control operator, as in
# `cat << EOF > FILE`: its body would otherwise parse as directives
_MARKER_NOT_LAST = re.compile(r"(?<!<)<<\s*[A-Za-z0-9_][A-Za-z0-9_.-]*\s*(?:2?>>?|[<|&;])")
_ENV_VAR = re.compile(
    r"\$\{(?P<braced>[A-Za-z_][A-Za-z0-9_]*)\}|\$(?P<plain>[A-Za-z_][A-Za-z0-9_]*)"
)


@dataclass(slots=True)
class Command:
    """One parsed directive and where it starts: ``file`` and its 1-based ``line_no``.

    Two commands compare equal when kind, arguments, and here-document body
    match; the location is carried for error reporting and logging only, and
    a command is the location of every warning and error about its line.
    """

    kind: CommandKind
    args: tuple[str, ...]
    file: Path = field(compare=False)
    line_no: int = field(compare=False)
    heredoc: str | None = None


@dataclass
class Pifile:
    commands: list[Command]
    source_path: Path


def substitute_env(text: str, env: Mapping[str, str], where: Command | None = None) -> str:
    """Expand $NAME / ${NAME} from env; undefined names become "" with a warning."""
    if "$" not in text:
        return text

    def repl(match: re.Match[str]) -> str:
        name = match.group("braced") or match.group("plain")
        if name in env:
            return env[name]
        location = f"{where.file}:{where.line_no}: " if where else ""
        logger.warning("%sundefined variable $%s expands to empty string", location, name)
        return ""

    return _ENV_VAR.sub(repl, text)


def pathlib_join(directory: str, path_text: str) -> str:
    """``str(Path(directory) / path_text)`` for a Path's text ``directory``, joined as
    text unless ``path_text`` has an empty or ``.`` component for pathlib to fold."""
    parts = path_text.split("/")
    if "" in parts[1:] or "." in parts:
        return str(Path(directory, path_text))
    return path_text if directory == "." else posixpath.join(directory, path_text)


def parse_heredoc(lines: list[str], start: int, delimiter: str,
                  command: Command) -> tuple[str, int]:
    """Capture a here-document body from ``lines`` beginning at index ``start``.

    Returns the raw body (internal newlines kept, a single trailing newline
    appended unless the body is empty) and the index just past the
    terminating delimiter line.  The delimiter must appear alone on a line,
    matched exactly.
    """
    try:
        end = lines.index(delimiter, start)
    except ValueError:
        raise PifileError(f"here-document delimited by {delimiter!r} never terminated",
                          origin=command) from None
    return ("\n".join(lines[start:end]) + "\n" if end > start else ""), end + 1


def parse_pifile(path: str | Path, env: Mapping[str, str] | None = None,
                 chain: tuple[Path, ...] = ()) -> Pifile:
    """Parse the Pifile at ``path``, splicing INCLUDEd files in place."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise PifileError(f"Pifile not found: {path}") from None
    except OSError as exc:
        raise PifileError(f"cannot read {path}: {exc}") from exc
    return parse_pifile_text(text, env, source_path=path, chain=chain)


def parse_pifile_text(text: str, env: Mapping[str, str] | None = None, *,
                      source_path: Path | str = Path("<text>"),
                      chain: tuple[Path, ...] = ()) -> Pifile:
    """Parse Pifile source text; ``source_path`` anchors includes and errors.  An INCLUDE of
    it, or of a file in ``chain`` (those whose INCLUDE led here), raises PifileError."""
    env = {} if env is None else env
    source_path = Path(source_path)
    chain = (*chain, source_path)
    lines = text.splitlines()  # also strips \r from CRLF input
    commands: list[Command] = []
    include = CommandKind.INCLUDE  # a member read through the class is a slow lookup on 3.11
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        # made at line ``i`` (1-based), it locates the line's warnings and errors; its
        # kind, arguments and here-document body are filled in once they are parsed
        command = Command(None, (), source_path, i)
        logical = line
        while logical.endswith("\\") and i < len(lines):
            logical = logical[:-1] + lines[i]
            i += 1
        expanded = substitute_env(logical, env, command)
        parts = expanded.split(None, 1)
        if not parts:
            continue  # the line was nothing but a variable that expanded away
        kind = _KEYWORDS.get(parts[0])
        if kind is None:
            raise PifileError(f"unknown directive {parts[0]!r}", origin=command)
        remainder = parts[1].strip() if len(parts) > 1 else ""

        if kind in _VERBATIM:
            for late in _MARKER_NOT_LAST.finditer(remainder) if "<<" in remainder else ():
                head = remainder[:late.start()]
                if head.count("((") <= head.count("))"):  # not a shift inside `$((`
                    raise PifileError(f"unsupported here-document form {late[0]!r}: << WORD "
                                      "must end the line, as in 'tee FILE << WORD'",
                                      origin=command)
            marker = "<<" in remainder and _HEREDOC_MARKER.fullmatch(remainder)
            if marker:
                if marker.group("delim") is None:
                    raise PifileError(f"unsupported here-document form {marker['form']!r}; "
                                      "use << WORD with a plain WORD", origin=command)
                remainder = marker.group("cmd")
                raw_body, i = parse_heredoc(lines, i, marker.group("delim"), command)
                command.heredoc = substitute_env(raw_body, env, command)
            args = (remainder,) if remainder else ()
        else:
            args = tuple(remainder.split())
        low, high = _ARITY[kind]
        if len(args) < low or (high is not None and len(args) > high):
            bound = f"{low}" if high == low else f"{low}..{high if high is not None else 'n'}"
            raise PifileError(f"{kind.value} takes {bound} argument(s), got {len(args)}",
                              origin=command)

        if kind is include:
            target = source_path.parent / args[0]
            if not target.is_file():
                raise PifileError(f"included file not found: {target}", origin=command)
            if target.resolve() in {path.resolve() for path in chain}:
                raise PifileError("include cycle: " + " -> ".join(map(str, (*chain, target))),
                                  origin=command)
            included = parse_pifile(target, env, chain)
            commands.extend(included.commands)
        else:
            command.kind, command.args = kind, args
            commands.append(command)
    return Pifile(commands=commands, source_path=source_path)


def render_first_line(command: Command) -> str:
    """The command's first line as canonical Pifile text: a here-document shows as
    ``<< DELIM``, a delimiter that no line of its body is, and its body is left out."""
    if command.kind not in _VERBATIM:
        return " ".join((command.kind._value_, *command.args))
    head = f"{command.kind._value_} {command.args[0]}"
    return head if command.heredoc is None else f"{head} << {_pick_delimiter(command.heredoc)}"


def _pick_delimiter(body: str) -> str:
    lines = set(body.split("\n"))
    delim = "EOF"
    while delim in lines:
        delim += "_"
    return delim
