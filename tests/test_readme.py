import contextlib
import io
import re
from pathlib import Path

from factorcover.graphs import CubicGraph, to_mgf

from conftest import PETERSEN_EDGES

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block of the README's Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_comments(tmp_path, monkeypatch):
    """Run on Petersen, the example prints what its comments say, up to
    a colon: the find_core -> cover_from_core path included."""
    code = library_example()
    want = [line.split("#", 1)[1].split(":")[0].strip()
            for line in code.splitlines() if line.startswith("print(")]
    assert want == ["6 5", "[10, 6, 3, 1, 0]", "22 21"]
    (tmp_path / "petersen.mgf").write_text(
        to_mgf(CubicGraph(10, PETERSEN_EDGES)))
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
