"""Run the examples that double as usage documentation."""

import doctest
import re
from pathlib import Path

import modematch
from modematch import distill, units

README = Path(__file__).resolve().parents[1] / "README.md"


def test_docstring_examples():
    for mod in (units, distill):
        result = doctest.testmod(mod)
        assert result.attempted > 0, "%s lost its examples" % mod.__name__
        assert result.failed == 0


def test_readme_library_section():
    # the README's Library code block runs, and every name it cites exists
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    names = re.findall(r"`([A-Za-z_]\w*)`", section)
    assert names
    assert [n for n in names if not hasattr(modematch, n)] == []
