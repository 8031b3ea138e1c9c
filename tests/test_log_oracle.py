"""A byte-identity oracle for the dry-run path: parse, plan, validate, emit, render.

``write_oracle_pifile`` generates a seeded Pifile of about 1,000 directives
over two Pifile directories, and the test pins the SHA-256 of the dry-run
log, stdout and stderr of one ``imgforge --dry-run`` process on it.  The
inputs do not depend on the host: the build environment is pinned, the
emulator is named, and every path in the log is relative to the working
directory.  A change that only makes the pipeline faster must leave all
three digests as they are.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import mbr_oracle

SRC = Path(__file__).parent.parent / "src"

# forms of the generated directives; {n} is the directive's number
_RUN_FORMS = (
    "apt-get install -y pkg-{n}",
    "echo ${{NODE}}-{n} >> /etc/motd",
    "sed -i 's/^#opt{n}=.*/opt{n}=on/' /etc/app.conf",
    "printf 'col\\tval\\n' > /etc/tab-{n}\tx",  # a backslash and a real tab
    "echo tab\there-{n}",  # a real tab alone
    "systemctl enable svc-$NODE-{n}.service && echo done",
)
# here-document lines: plain, or with a tab or a backslash for the log to escape
_BODY_ENDS = ("", "\ttab", "\\back")
_HOST_FORMS = (
    "./scripts/gen-{n}.sh --target $NODE",
    "cp -r assets/set{n} out/",
    "test -d out || mkdir -p out",
)
# INSTALL sources: ./x, a//b, /abs, a trailing slash, missing, and made by an earlier HOST
_INSTALL_FORMS = (
    ("644", "./files/a.conf"),
    (None, "files//a.conf"),
    ("600", "files/./a.conf/"),
    (None, "/imgforge-oracle-missing/fw-{n}.bin"),
    (None, "blobs/fw-{n}.bin"),
    (None, "out/gen-{n}.bin"),  # made, by the warning's rule, by any earlier HOST naming out
    ("755", "files"),
)


def _module(rng: random.Random, count: int, first: int) -> list[str]:
    lines = []
    for n in range(first, first + count):
        if n % 7 == 0:
            lines += ["", f"# step {n}: {rng.getrandbits(32):08x}"]
        form = rng.choice(("run", "run", "run", "host", "install", "heredoc", "built", "path"))
        if form == "run":
            lines.append(f"RUN {rng.choice(_RUN_FORMS).format(n=n)}")
        elif form == "host":
            lines.append(f"HOST {rng.choice(_HOST_FORMS).format(n=n)}")
        elif form == "install":
            mode, src = rng.choice(_INSTALL_FORMS)
            lines.append(" ".join(["INSTALL", *([mode] if mode else []), src.format(n=n),
                                   f"/etc/oracle/f-{n}"]))
        elif form == "heredoc":
            body = [f"key{j} = ${{NODE}}-{rng.getrandbits(24):06x}{rng.choice(_BODY_ENDS)}"
                    for j in range(3)]
            kind = rng.choice(("RUN tee /etc/oracle/h-{n}.ini", "HOST cat > out/h-{n}.txt"))
            lines += [f"{kind.format(n=n)} << EOF", *body, "EOF"]
        elif form == "built":
            lines += [f"HOST make -C build/b{n} tool", f"INSTALL 755 build/b{n}/tool /usr/bin/t{n}"]
        else:
            lines.append(f"PATH /opt/oracle/bin{n}")
    return lines


def write_oracle_pifile(work: Path, seed: int = 17, directives: int = 1000) -> Path:
    """A seeded Pifile in ``work`` that sources a module from ``mods/``; returns its path."""
    rng = random.Random(seed)
    mbr_oracle.write_image(work / "base.img")
    for folder in (work, work / "mods"):
        (folder / "files").mkdir(parents=True)
        (folder / "files" / "a.conf").write_text("a = 1\n")
    half = directives // 2
    main = ["# generated oracle Pifile", "FROM base.img", "TO out.img", "PUMP 8M",
            "RUN apt-get install -y \\", "    tool-a tool-b",  # a joined line
            "RUN echo $UNSET_ORACLE_NAME", *_module(rng, half, 0), "source mods/net.Pifile"]
    (work / "main.Pifile").write_text("\n".join(main) + "\n")
    module = ["# module in a subdirectory: cwd= and src= anchor at mods/",
              *_module(rng, directives - half, half)]
    (work / "mods" / "net.Pifile").write_text("\r\n".join(module) + "\r\n")  # CRLF
    return work / "main.Pifile"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_oracle_dry_run_is_byte_identical(tmp_path):
    pifile = write_oracle_pifile(tmp_path)
    script = ("import sys\nfrom imgforge.cli import main\n"
              "sys.exit(main(sys.argv[1:], {'PATH': '/usr/bin:/bin'}))")
    argv = [sys.executable, "-c", script, "--dry-run", "plan.log", "--env", "NODE=alpha",
            "--emulator", "/usr/bin/qemu-arm-static", pifile.name]
    # the host's own environment, so debugfs is found; the build's environment is pinned
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, check=False)
    assert result.returncode == 0, result.stderr.decode()
    log = (tmp_path / "plan.log").read_bytes()
    assert log.count(b"\n") > 1000
    assert {
        "log": _digest(log),
        "stdout": _digest(result.stdout),
        "stderr": _digest(result.stderr),
    } == {
        "log": "4a3d90283d543f28a066aad50eda2048892f1e4d55fbe5f6abb2a6bc8f089561",
        "stdout": "262168fbabd2b9818efbc9c2765f5f1692e52c8059a6763e0830ff89d1c65d1a",
        "stderr": "bece7f40edf53f08775026b3a3db46ac071a97162b3401a2a80249c848d8f119",
    }
