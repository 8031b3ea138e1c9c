"""Canonical Pifile text of parsed commands, for the parser's round-trip tests.

Re-parsing :func:`render_pifile`'s text yields an equal command list.  A
build never renders a whole command, only its first line, which
``imgforge.pifile.render_first_line`` makes.
"""

from imgforge.pifile import Command, Pifile, render_first_line


def render_command(command: Command) -> str:
    """One command as Pifile text, its here-document body and delimiter line included."""
    first = render_first_line(command)
    if command.heredoc is None:
        return first
    return f"{first}\n{command.heredoc}{first.rsplit(' ', 1)[1]}"  # the line ends in the delimiter


def render_pifile(pifile: Pifile) -> str:
    """Every command of ``pifile`` as Pifile text, one after the other."""
    if not pifile.commands:
        return ""
    return "\n".join(render_command(c) for c in pifile.commands) + "\n"
