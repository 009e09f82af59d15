import re
from pathlib import Path

import numpy as np
import pytest

import catscan

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_sorted_unique_and_resolves():
    names = catscan.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(catscan, name), name
    namespace: dict = {}
    exec("from catscan import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_readme_library_sketch_runs():
    text = README.read_text()
    section = text[text.index("## Library sketch") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README.name} library sketch", "exec"), {})


def test_numpy_warnings_still_fail_tests():
    # pyproject.toml ignores one warning of the hypothesis plugin; the rest are errors
    with pytest.raises(RuntimeWarning):
        np.log(np.array(0.0))
