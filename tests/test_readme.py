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
    assert len(blocks) == 4  # library quick start, a p(M) sweep, a coefficient read, dynamics
    namespace: dict = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    out = capsys.readouterr().out
    assert "M=1/2: p=" in out
    # free space has no cross term; the sweep's rows are the reports' degrees
    assert "r=0.00: p(1/2)=+0.000000" in out and "r=0.90: p(1/2)=" in out
    k = namespace["ks"][-1]
    report = namespace["interference_report"](namespace["rates_fine"](namespace["scheme"], k, k))
    assert [p.value for p in report.points] == namespace["sweep"].values[-1].tolist()
    assert "Gamma_bc(1/2, 1/2) = " in out and namespace["gamma_bc"] != 0.0
    assert "(64, 64)" in out
    assert namespace["traj"].populations().shape == (301, 8)
