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

from .errors import (
    IncludeCycle,
    IncludeNotFound,
    MalformedArgs,
    PifileError,
    UnknownCommand,
    UnterminatedHeredoc,
)

logger = logging.getLogger(__name__)

MAX_INCLUDE_DEPTH = 16


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
# word; a quoted WORD or `<<-` is refused, and any other `<<`, `<<<` among
# them, is command text
_HEREDOC_MARKER = re.compile(
    r"(?P<cmd>.*\S)(?:\s+|(?<!<))"  # a `<<` right after a `<` is part of a `<<<`
    r"(?P<form><<\s*(?:(?P<delim>[A-Za-z0-9_][A-Za-z0-9_.-]*)|-\s*\S+|['\"]\S*))"
)
_ENV_VAR = re.compile(
    r"\$\{(?P<braced>[A-Za-z_][A-Za-z0-9_]*)\}|\$(?P<plain>[A-Za-z_][A-Za-z0-9_]*)"
)


@dataclass(frozen=True, slots=True)
class SourceLine:
    """Location of a directive in its file; line numbers are 1-based."""

    file: Path
    line_no: int
    text: str


@dataclass(frozen=True, slots=True)
class Command:
    """One parsed directive.

    Two commands compare equal when kind, arguments, and here-document body
    match; the origin is carried for error reporting and logging only.
    """

    kind: CommandKind
    args: tuple[str, ...]
    origin: SourceLine = field(compare=False)
    heredoc: str | None = None


@dataclass
class Pifile:
    commands: list[Command]
    source_path: Path


def classify_token(first_token: str) -> CommandKind | None:
    """Map a line's first token to its directive kind; None when unknown.

    Matching is exact and case-sensitive: ``PUMP`` classifies, ``pump`` does
    not.  The single lower-case exception is ``source``, the include alias.
    """
    return _KEYWORDS.get(first_token)


def substitute_env(text: str, env: Mapping[str, str], where: SourceLine | None = None) -> str:
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
                  origin: SourceLine) -> tuple[str, int]:
    """Capture a here-document body from ``lines`` beginning at index ``start``.

    Returns the raw body (internal newlines kept, a single trailing newline
    appended unless the body is empty) and the index just past the
    terminating delimiter line.  The delimiter must appear alone on a line,
    matched exactly.
    """
    body: list[str] = []
    i = start
    while i < len(lines):
        if lines[i] == delimiter:
            text = "\n".join(body) + "\n" if body else ""
            return text, i + 1
        body.append(lines[i])
        i += 1
    raise UnterminatedHeredoc(
        f"here-document delimited by {delimiter!r} never terminated", origin=origin
    )


def parse_pifile(path: str | Path, env: Mapping[str, str] | None = None,
                 include_depth: int = 0) -> Pifile:
    """Parse the Pifile at ``path``, splicing INCLUDEd files in place."""
    path = Path(path)
    if include_depth >= MAX_INCLUDE_DEPTH:
        raise IncludeCycle(
            f"include depth limit ({MAX_INCLUDE_DEPTH}) reached at {path}; include cycle?"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise PifileError(f"Pifile not found: {path}") from None
    except OSError as exc:
        raise PifileError(f"cannot read {path}: {exc}") from exc
    return parse_pifile_text(text, env, source_path=path, include_depth=include_depth)


def parse_pifile_text(text: str, env: Mapping[str, str] | None = None, *,
                      source_path: Path | str = Path("<text>"),
                      include_depth: int = 0) -> Pifile:
    """Parse Pifile source text; ``source_path`` anchors includes and errors."""
    env = {} if env is None else env
    source_path = Path(source_path)
    lines = text.splitlines()  # also strips \r from CRLF input
    commands: list[Command] = []
    i = 0
    while i < len(lines):
        line_no = i + 1
        line = lines[i]
        i += 1
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        logical = line
        while logical.endswith("\\") and i < len(lines):
            logical = logical[:-1] + lines[i]
            i += 1
        origin = SourceLine(source_path, line_no, logical)
        expanded = substitute_env(logical, env, origin)
        parts = expanded.split(None, 1)
        if not parts:
            continue  # the line was nothing but a variable that expanded away
        kind = classify_token(parts[0])
        if kind is None:
            raise UnknownCommand(f"unknown directive {parts[0]!r}", origin=origin)
        remainder = parts[1].strip() if len(parts) > 1 else ""

        heredoc: str | None = None
        if kind in _VERBATIM:
            marker = "<<" in remainder and _HEREDOC_MARKER.fullmatch(remainder)
            if marker:
                if marker.group("delim") is None:
                    raise MalformedArgs(f"unsupported here-document form {marker['form']!r}; "
                                        "use << WORD with a plain WORD", origin=origin)
                remainder = marker.group("cmd")
                raw_body, i = parse_heredoc(lines, i, marker.group("delim"), origin)
                heredoc = substitute_env(raw_body, env, origin)
            args = (remainder,) if remainder else ()
        else:
            args = tuple(remainder.split())
        _check_arity(kind, args, origin)

        if kind is CommandKind.INCLUDE:
            target = source_path.parent / args[0]
            if not target.is_file():
                raise IncludeNotFound(f"included file not found: {target}", origin=origin)
            included = parse_pifile(target, env, include_depth + 1)
            commands.extend(included.commands)
        else:
            commands.append(Command(kind, args, origin, heredoc))
    return Pifile(commands=commands, source_path=source_path)


def _check_arity(kind: CommandKind, args: tuple[str, ...], origin: SourceLine) -> None:
    low, high = _ARITY[kind]
    if len(args) < low or (high is not None and len(args) > high):
        bound = f"{low}" if high == low else f"{low}..{high if high is not None else 'n'}"
        raise MalformedArgs(
            f"{kind.value} takes {bound} argument(s), got {len(args)}", origin=origin
        )


def render_command(command: Command) -> str:
    """Render one command back to canonical Pifile text."""
    if command.kind in _VERBATIM:
        head = f"{command.kind.value} {command.args[0]}"
        if command.heredoc is None:
            return head
        delim = _pick_delimiter(command.heredoc)
        return f"{head} << {delim}\n{command.heredoc}{delim}"
    return " ".join((command.kind.value, *command.args))


def render_pifile(pifile: Pifile) -> str:
    """Canonical text form; re-parsing it yields an equal command list."""
    if not pifile.commands:
        return ""
    return "\n".join(render_command(c) for c in pifile.commands) + "\n"


def _pick_delimiter(body: str) -> str:
    lines = set(body.split("\n"))
    delim = "EOF"
    while delim in lines:
        delim += "_"
    return delim
