import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_tour_runs_on_the_root_exports():
    tour = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    assert ns["tr"].gamma_hat == pytest.approx(0.3, abs=1e-5)
    assert ns["prof"].regularity["label"] == "holder"

    names = {}
    exec("from emlab import *", names)
    assert {"closed_form_ab_spectrum", "run_scenario", "scenario_from_dict"} <= names.keys()
