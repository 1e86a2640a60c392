"""Every ```python block of README.md runs, each in a fresh namespace and an
empty working directory, so the documented API cannot drift from the code."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line of the opening fence, code) of each block
BLOCKS = [(TEXT.count("\n", 0, m.start()) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)]


def test_readme_shows_the_estimator_and_the_functional_pipeline():
    code = "".join(block for _, block in BLOCKS)
    assert "CARNNRecommender" in code
    for step in ("parse_interactions", "build_sequences", "annotate_sequences",
                 "split_sequences", "train(", "evaluate("):
        assert step in code, step


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_python_block_runs(line, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README}:{line}", "exec"), {"__name__": "readme"})
