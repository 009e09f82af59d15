import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LOADED_SCIPY = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


@pytest.mark.parametrize(
    "code",
    [
        "import catscan.cli",
        "import contextlib, io, catscan.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert catscan.cli.main(['verify']) == 0",
        # python -m catscan.cli verify --out OUT, as the benchmark runs it
        "import runpy, sys\n"
        "sys.argv = ['catscan', 'verify', '--out', sys.argv[1]]\n"
        "try:\n"
        "    runpy.run_module('catscan.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0, stop.code",
    ],
    ids=["import", "verify", "verify-out-as-main"],
)
def test_cli_loads_no_scipy(tmp_path, code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{LOADED_SCIPY}", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
