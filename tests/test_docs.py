"""The README quick start and the demo run as documented."""

import re
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) < 1


def test_quantizer_walkthrough_runs(capsys):
    demo = runpy.run_path(str(ROOT / "demos" / "quantizer_walkthrough.py"))
    demo["run_demo"]()
    assert "relative error" in capsys.readouterr().out
