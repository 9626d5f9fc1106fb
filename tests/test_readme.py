"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_python_example_runs(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(example, "README.md", "exec"), {})
    motifs, accuracy = capsys.readouterr().out.split()
    assert int(motifs) > 0
    assert 0.0 <= float(accuracy) <= 1.0
