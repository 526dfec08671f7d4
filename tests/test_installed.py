"""The installed `isingbath` console script, run as a user runs it.

tests/test_cli.py checks every command through `cli.main`.  This file checks
what that cannot see: the `entry_point` exit path, and that every module
imports from an installed copy.  It runs the `isingbath` found on PATH from
a temporary directory with PYTHONPATH removed, so the source tree is not on
the child's path, and skips when no script is installed.  After
`pip install .`, run it from outside the source tree:

    cd /tmp && python -m pytest /path/to/tests/test_installed.py
"""

import os
import shutil
import subprocess

import pytest

SCRIPT = shutil.which("isingbath")
pytestmark = pytest.mark.skipif(SCRIPT is None, reason="no isingbath script on PATH")


def run(cwd, *argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return subprocess.run([SCRIPT, *argv], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


def test_help_exits_0(tmp_path):
    done = run(tmp_path, "--help")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: isingbath ")


@pytest.mark.parametrize("argv, files", [
    (["phase", "--T-over-Tc", "0.5"], ["o"]),
    (["coherence", "--points", "3"], ["o"]),
    (["concurrence", "--case", "4", "--points", "3"], ["o"]),
    (["fig1", "--points", "3"], [f"o_TTc{r}.csv" for r in ("0.25", "0.35", "0.50", "0.75")]),
    (["fig2", "--points", "3"], ["o"]),
    (["verify", "--N-max", "2"], ["o"]),
])
def test_each_command_writes_its_output(tmp_path, argv, files):
    done = run(tmp_path, *argv, "--out", "o")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    for name in files:
        text = (tmp_path / name).read_text()
        if argv[0] == "verify":
            assert text.endswith("verify: all checks passed\n")
        else:
            assert text.startswith(f"# command={argv[0]} ")


def test_a_bad_input_exits_2_with_one_line(tmp_path):
    done = run(tmp_path, "coherence", "--points", str(10**15))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("isingbath: error: points: ") and done.stderr.count("\n") == 1
