import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for mbr_oracle

import mbr_oracle  # noqa: E402


@pytest.fixture
def fixture_image(tmp_path):
    """64 MiB two-partition image: boot (8 MiB) + root (remainder)."""
    return mbr_oracle.write_image(tmp_path / "disk.img")


@pytest.fixture(autouse=True)
def private_tempdir(tmp_path_factory, monkeypatch):
    """A tempfile directory of the test's own, which must hold no chroot directory after it."""
    scratch = tmp_path_factory.mktemp("tempdir")
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    yield scratch
    leftover = sorted(p.name for p in scratch.glob("imgforge-root-*"))
    if leftover:
        pytest.fail(f"chroot directories left behind: {leftover}")


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {outcome}")
