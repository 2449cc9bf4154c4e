"""The package stays within its line cap.

Lines are counted as ``bench/layers.py`` counts ``src_lines``: the
``splitlines()`` of every ``src/hartogs/*.py``, blank lines and comments
included.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hartogs"
LINE_CAP = 3_000


def test_package_holds_at_most_the_line_cap():
    counts = {path.name: len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py")}
    assert counts and sum(counts.values()) <= LINE_CAP, sorted(counts.items(), key=lambda item: -item[1])
