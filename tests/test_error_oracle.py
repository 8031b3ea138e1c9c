"""An oracle for the parser's and planner's error paths: exact stderr and exit code.

Each case writes a small Pifile (and an empty ``a.img`` for FROM to name)
into a fresh directory and runs ``imgforge main.Pifile`` there in its own
process, so logging is configured as on the command line and every path
in stderr is relative.  The expected text was recorded before the
per-directive path was made faster; a change that only speeds that path up
must leave every line as it is.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"

# case: (files, exit code, stderr)
CASES = {
    "unknown-directive": (
        {"main.Pifile": "FROM a.img\n\nFOO bar\n"},
        1, "[error] main.Pifile:3: unknown directive 'FOO'\n"),
    "arity-FROM": (
        {"main.Pifile": "FROM a.img 2 x\n"},
        1, "[error] main.Pifile:1: FROM takes 1..2 argument(s), got 3\n"),
    "arity-TO": (
        {"main.Pifile": "FROM a.img\nTO\n"},
        1, "[error] main.Pifile:2: TO takes 1 argument(s), got 0\n"),
    "arity-INPLACE": (
        {"main.Pifile": "INPLACE a.img b.img\n"},
        1, "[error] main.Pifile:1: INPLACE takes 1 argument(s), got 2\n"),
    "arity-PUMP": (
        {"main.Pifile": "FROM a.img\nPUMP 1M 2M\n"},
        1, "[error] main.Pifile:2: PUMP takes 1 argument(s), got 2\n"),
    "arity-PATH": (
        {"main.Pifile": "FROM a.img\nPATH /opt/bin /usr/local/bin\n"},
        1, "[error] main.Pifile:2: PATH takes 1 argument(s), got 2\n"),
    "arity-RUN": (
        {"main.Pifile": "FROM a.img\nRUN\n"},
        1, "[error] main.Pifile:2: RUN takes 1..n argument(s), got 0\n"),
    "arity-INSTALL": (
        {"main.Pifile": "FROM a.img\nINSTALL 644 a b c\n"},
        1, "[error] main.Pifile:2: INSTALL takes 2..3 argument(s), got 4\n"),
    "arity-HOST": (
        {"main.Pifile": "FROM a.img\nHOST   \n"},
        1, "[error] main.Pifile:2: HOST takes 1..n argument(s), got 0\n"),
    "arity-INCLUDE": (
        {"main.Pifile": "FROM a.img\nsource\n"},
        1, "[error] main.Pifile:2: INCLUDE takes 1 argument(s), got 0\n"),
    "unterminated-heredoc": (
        {"main.Pifile": "FROM a.img\nRUN tee /etc/x << END\nline\nEND \n"},
        1, "[error] main.Pifile:2: here-document delimited by 'END' never terminated\n"),
    "dash-heredoc": (
        {"main.Pifile": "FROM a.img\nRUN cat <<-EOF\n\tx\nEOF\n"},
        1, "[error] main.Pifile:2: unsupported here-document form '<<-EOF'; "
           "use << WORD with a plain WORD\n"),
    "quoted-heredoc": (
        {"main.Pifile": "FROM a.img\nHOST cat << 'EOF'\nx\nEOF\n"},
        1, "[error] main.Pifile:2: unsupported here-document form \"<< 'EOF'\"; "
           "use << WORD with a plain WORD\n"),
    "include-missing": (
        {"main.Pifile": "FROM a.img\nINCLUDE mods/net.Pifile\n"},
        1, "[error] main.Pifile:2: included file not found: mods/net.Pifile\n"),
    "include-cycle": (
        {"main.Pifile": "FROM a.img\nsource loop.Pifile\n",
         "loop.Pifile": "RUN true\nsource main.Pifile\n"},
        1, "[error] loop.Pifile:2: include cycle: main.Pifile -> loop.Pifile -> main.Pifile\n"),
    "undefined-variable": (
        {"main.Pifile": "FROM a.img\nRUN echo ${NOPE} $ALSO_NOPE\nBOGUS\n"},
        1, "WARNING: main.Pifile:2: undefined variable $NOPE expands to empty string\n"
           "WARNING: main.Pifile:2: undefined variable $ALSO_NOPE expands to empty string\n"
           "[error] main.Pifile:3: unknown directive 'BOGUS'\n"),
    "install-mode": (
        {"main.Pifile": "FROM a.img\nINSTALL 0648 a.conf /etc/a.conf\n"},
        1, "[error] main.Pifile:2: INSTALL mode must be octal 0..7777, got '0648'\n"),
    "install-dotdot": (
        {"main.Pifile": "FROM a.img\nINSTALL a.conf /etc/../../x\n"},
        1, "[error] main.Pifile:2: INSTALL destination /etc/../../x has a '..' component\n"),
}


def run_cli(work: Path, *args: str) -> subprocess.CompletedProcess:
    """``imgforge ARGS`` in its own process, in ``work``, with a pinned build PATH."""
    script = ("import sys\nfrom imgforge.cli import main\n"
              "sys.exit(main(sys.argv[1:], {'PATH': '/usr/bin:/bin'}))")
    return subprocess.run([sys.executable, "-c", script, *args], cwd=work,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=False)


@pytest.mark.parametrize("case", CASES)
def test_error_path_is_pinned(tmp_path, case):
    files, code, stderr = CASES[case]
    (tmp_path / "a.img").write_bytes(b"")
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    result = run_cli(tmp_path, "main.Pifile")
    assert (result.returncode, result.stdout, result.stderr) == (code, "", stderr)
