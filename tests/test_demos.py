"""Every script under demos/ runs to completion and prints pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demo -> SHA-256 of its stdout; every demo is seeded, so the output is fixed
DEMO_STDOUT = {
    "01_field_and_planes.py": "f58b65ac111350496d1abd772aec04a194836616660b18295b2bf0528627d6b1",
    "02_grs_erasure_decoding.py":
        "622a9be7ded654dabb96590b8083b144123c21480e53f40156637277621c4cd6",
    "03_code_families.py": "8dd4682691d8755f9e9a5bb508b99fa960951a05aeb5f6abe6efd38cec7fcc7d",
    "04_single_failure_two_degrees.py":
        "023a530fbf1aa2df22a502ced840649b86367e341956db79a68e9d5f2bc47abf",
    "05_multi_failure_repair.py":
        "822d0f12bfdd28bc275735018a06a02d05df5d35c41a88f7c0cb1e59fcc33a3d",
    "06_hadamard_coset_repair.py":
        "36e65b86c39971d228a63a0acb17cb7e100072841faf16a4d318579c0544bf21",
    "07_subpacketization_table.py":
        "d9e9f864dc121e266b52339ea2e0e911118947733331eed883dc612ee2da884c",
    "08_cluster_simulation.py": "3eff2ebf4ce5f9802575bc919552193f4c0f577216a82f5a875c95f056b13641",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT[demo.name], proc.stdout.decode()
