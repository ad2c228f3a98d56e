import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    # every public name the README tour uses must stay importable and working
    text = README.read_text()
    tour = re.search(r"## Library quick tour\s+```python\n(.*?)```", text, re.S)
    assert tour is not None
    exec(compile(tour.group(1), str(README), "exec"), {})
