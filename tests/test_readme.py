"""The README's library example runs as written (CI runs its CLI examples)."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["root"].residual <= 1e-12
    assert len(namespace["branch"]) == 41
    assert capsys.readouterr().out.strip() == f"{namespace['root'].omega} {namespace['root'].residual}"
