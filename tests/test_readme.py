"""The README's Python examples run as documented.

The ``python`` code blocks of README.md are executed in order in one
namespace (the later blocks reuse the quick start's ``scheme`` and
``rates``), so a change to the public API that breaks the documented usage
fails here.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run_in_order(capsys):
    blocks = python_blocks()
    assert len(blocks) == 3  # library quick start, a coefficient read, dynamics
    namespace: dict = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    out = capsys.readouterr().out
    assert "M=1/2: p=" in out
    assert "Gamma_bc(1/2, 1/2) = " in out and namespace["gamma_bc"] != 0.0
    assert "(64, 64)" in out
    assert namespace["traj"].populations().shape == (301, 8)
