"""Each script in demos/ runs to completion against this checkout."""

import os
import pathlib
import subprocess
import sys

import pytest

import qperm

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(qperm.__file__)),
                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          timeout=300, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
