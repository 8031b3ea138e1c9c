"""An oracle for the CLI's error paths: exact stdout, stderr and exit code.

Each case writes a small Pifile (and an empty ``a.img`` for FROM to name)
into a fresh directory and runs ``imgforge main.Pifile`` there in its own
process, so logging is configured as on the command line and every path
in stderr is relative.  ``CASES`` are the parser's and planner's errors
(exit 1); their text was recorded before the per-directive path was made
faster, and the cases from ``multiple-FROM`` on, which pin the file:line of
planner errors and of warnings, before a directive's location moved into its
``Command``; ``partition-five`` and ``TO-without-directory`` are refusals the
planner gained later, which before failed only in setup or not at all, and
``FROM-missing`` and ``INPLACE-character-device`` were recorded when a source
refusal began to name its line.  ``to-directory`` was a build case (exit 2
in setup, with no line) until the planner began to refuse a ``TO`` that is
neither a regular file nor a block device; ``TO-fifo``, which hung in setup
before, and ``TO-character-device``, which failed its copy, were recorded
then.
``BUILD_CASES`` fail while a build runs (exit 2) or on the host it runs on
(exit 3), and none of them mounts anything; their text was recorded before
the exception classes were folded into one per exit code, except
``corrupt-xz``'s, which is the ``xz`` tool's own diagnostic since archives
are unpacked by the format's tool, and ``pump-unsigned-image``'s, recorded
when TABLE_WRITE stopped checking the signature that setup checks in the
source.  A change that only speeds up a path or
reshapes the error classes must leave every line as it is.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"

FIFO = None  # a file's content that makes it a named pipe

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
    "multiple-FROM": (
        {"main.Pifile": "FROM a.img\nFROM a.img\n"},
        1, "[error] main.Pifile:2: multiple FROM directives\n"),
    "FROM-and-INPLACE": (
        {"main.Pifile": "FROM a.img\nINPLACE a.img\n"},
        1, "[error] main.Pifile:2: FROM and INPLACE are mutually exclusive\n"),
    "TO-with-INPLACE": (
        {"main.Pifile": "INPLACE a.img\nTO b.img\n"},
        1, "[error] main.Pifile:2: TO cannot be combined with INPLACE\n"),
    "INPLACE-url": (
        {"main.Pifile": "INPLACE http://example.invalid/a.img\n"},
        1, "[error] main.Pifile:1: INPLACE cannot edit a URL; use FROM <url> with TO\n"),
    "partition-zero": (
        {"main.Pifile": "FROM a.img 0\n"},
        1, "[error] main.Pifile:1: partition index must be >= 1, got 0\n"),
    "partition-word": (
        {"main.Pifile": "FROM a.img two\n"},
        1, "[error] main.Pifile:1: partition index must be a positive integer, got 'two'\n"),
    "multiple-TO-then-install-mode": (
        {"main.Pifile": "FROM a.img\nTO x.img\nTO y.img\nINSTALL 0648 a b\n"},
        1, "WARNING: multiple TO directives; using the last one (main.Pifile:3)\n"
           "[error] main.Pifile:4: INSTALL mode must be octal 0..7777, got '0648'\n"),
    "undefined-variable-in-include": (
        {"main.Pifile": "FROM a.img\nINCLUDE mod.Pifile\n",
         "mod.Pifile": "RUN echo $NOPE\nBOGUS\n"},
        1, "WARNING: mod.Pifile:1: undefined variable $NOPE expands to empty string\n"
           "[error] mod.Pifile:2: unknown directive 'BOGUS'\n"),
    "undefined-variable-in-heredoc": (
        {"main.Pifile": "FROM a.img\nRUN tee /x << EOF\n$NOPE\nEOF\nBOGUS\n"},
        1, "WARNING: main.Pifile:2: undefined variable $NOPE expands to empty string\n"
           "[error] main.Pifile:5: unknown directive 'BOGUS'\n"),
    "undefined-variable-alone": (
        {"main.Pifile": "FROM a.img\n$NOPE\nFOO\n"},
        1, "WARNING: main.Pifile:2: undefined variable $NOPE expands to empty string\n"
           "[error] main.Pifile:3: unknown directive 'FOO'\n"),
    "partition-five": (
        {"main.Pifile": "FROM a.img 5\nTO out.img\nPUMP 1M\n"},
        1, "[error] main.Pifile:1: partition index must be <= 4, the MBR slots, got 5\n"),
    "TO-without-directory": (
        {"main.Pifile": "FROM a.img\nTO nodir/out.img\nHOST true\n"},
        1, "[error] main.Pifile:2: the directory of TO nodir/out.img does not exist\n"),
    "FROM-missing": (
        {"main.Pifile": "FROM missing.img\nTO out.img\nHOST true\n"},
        1, "[error] main.Pifile:1: source not found: missing.img\n"),
    "INPLACE-character-device": (
        {"main.Pifile": "INPLACE /dev/null\nHOST true\n"},
        1, "[error] main.Pifile:1: source is not a file or block device: /dev/null\n"),
    "to-directory": (
        {"main.Pifile": "FROM a.img\nTO out\nHOST true\n", "out/keep": ""},
        1, "[error] main.Pifile:2: destination is not a file or block device: out\n"),
    "TO-fifo": (
        {"main.Pifile": "FROM a.img\nTO out.fifo\nHOST true\n", "out.fifo": FIFO},
        1, "[error] main.Pifile:2: destination is not a file or block device: out.fifo\n"),
    "TO-character-device": (
        {"main.Pifile": "FROM a.img\nTO /dev/full\nHOST true\n"},
        1, "[error] main.Pifile:2: destination is not a file or block device: /dev/full\n"),
}

# case: (files, arguments, exit code, stdout, stderr); bytes are written as they are
BUILD_CASES = {
    "host-false": (
        {"main.Pifile": "FROM a.img\nTO out.img\nHOST false\n"}, ["main.Pifile"],
        2, "[setup] begin\n[prepare] begin\n[chroot] begin\n"
           "[chroot] main.Pifile:3 HOST false\n"
           "[chroot] main.Pifile:3 failed: HOST command failed with status 1: false\n",
        "[chroot] main.Pifile:3: HOST command failed with status 1: false\n"),
    "pump-empty-image": (
        {"main.Pifile": "FROM a.img\nTO out.img\nPUMP 1M\n"},
        ["--dry-run", "plan.log", "main.Pifile"],
        2, "[setup] begin\n",
        "warning: no guest modifications: the chroot stage is empty\n"
        "[setup] image is only 0 bytes, need at least 512\n"),
    "pump-unsigned-image": (
        {"main.Pifile": "FROM a.img\nTO out.img\nPUMP 1M\n", "a.img": bytes(1024)},
        ["--dry-run", "plan.log", "main.Pifile"],
        2, "[setup] begin\n",
        "warning: no guest modifications: the chroot stage is empty\n"
        "[setup] sector 0 lacks the 55 AA boot signature\n"),
    "corrupt-xz": (
        {"main.Pifile": "FROM a.img.xz\nTO out.img\nHOST true\n",
         "a.img.xz": b"not an xz stream\n"}, ["main.Pifile"],
        2, "[setup] begin\n",
        "[setup] cannot decompress a.img.xz: xz: (stdin): File format not recognized\n"),
    "missing-emulator": (
        {"main.Pifile": "FROM a.img\nTO out.img\nRUN true\n"},
        ["--emulator", "missing", "main.Pifile"],
        3, "[setup] begin\n", "[setup] emulator is not a file: missing\n"),
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
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        if text is FIFO:
            os.mkfifo(tmp_path / name)
        else:
            (tmp_path / name).write_text(text)
    result = run_cli(tmp_path, "main.Pifile")
    assert (result.returncode, result.stdout, result.stderr) == (code, "", stderr)


@pytest.mark.parametrize("case", BUILD_CASES)
def test_build_error_path_is_pinned(tmp_path, case):
    files, args, code, stdout, stderr = BUILD_CASES[case]
    (tmp_path / "a.img").write_bytes(b"")
    for name, content in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    result = run_cli(tmp_path, *args)
    assert (result.returncode, result.stdout, result.stderr) == (code, stdout, stderr)
