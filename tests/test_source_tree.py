"""The source tree holds Python sources only: no generated or compiled files."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_c_extension_sources_or_binaries_under_src():
    found = sorted(str(p.relative_to(SRC)) for pattern in ("*.c", "*.so", "*.pyx") for p in SRC.rglob(pattern))
    assert found == []
