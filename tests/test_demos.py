"""Every demo script runs to the end, exit 0 and no traceback, under
``-W error::RuntimeWarning`` as the tests themselves run, and prints the
stdout kept in ``tests/golden/demos/<stem>.txt``.

After a deliberate change of a demo's output, regenerate the copies with
``PYTHONPATH=src python tests/test_demos.py`` and review the diff.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = pathlib.Path(__file__).with_name("golden") / "demos"
#: stands for the run directory in a demo's stdout
RUN_DIR = "<run>"


def run_demo(demo, run_dir):
    """Run a copy of the demo in run_dir (zeros_and_waves.py writes its CSV
    and SVG beside itself); returns the process, its stdout with run_dir
    replaced by RUN_DIR."""
    script = pathlib.Path(run_dir) / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(script)], cwd=run_dir, env=env,
                          capture_output=True, text=True, timeout=300)
    proc.stdout = proc.stdout.replace(str(run_dir), RUN_DIR)
    return proc


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == (GOLDEN / (demo.stem + ".txt")).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for demo in DEMOS:
        with tempfile.TemporaryDirectory() as run_dir:
            proc = run_demo(demo, run_dir)
        if proc.returncode != 0:
            sys.exit("%s failed:\n%s" % (demo.name, proc.stderr))
        (GOLDEN / (demo.stem + ".txt")).write_text(proc.stdout)
