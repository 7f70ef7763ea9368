"""The README's library tour, run as written.

`python tests/test_readme.py` runs the same block against whichever
sumnets package Python imports, so an installed package can be checked
from any directory.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour() -> str:
    """The first python block under the "Library tour" heading."""
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_tour_runs():
    exec(compile(tour(), str(README), "exec"), {})


if __name__ == "__main__":
    test_the_library_tour_runs()
