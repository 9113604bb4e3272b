"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    rel_l2 = float(capsys.readouterr().out.split()[0])
    # the fit keeps its second iterate here, whose output error, 4.2e-5
    # of the data's norm, is the reported metric; the fifth reads 3.4e-4
    assert 0.0 < rel_l2 < 1e-4
