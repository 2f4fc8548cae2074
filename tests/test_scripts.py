"""The scripts under ``scripts/`` run as documented."""

import os
import subprocess
import sys
from pathlib import Path

from rqmc.experiment import CATALOG_NAMES

ROOT = Path(__file__).resolve().parents[1]


def test_run_rate_studies_quick(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_rate_studies.py"),
         "--quick", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # a header, a rule, then one row per catalog study and the plain-MC contrast
    rows = proc.stdout.splitlines()[2:]
    assert len(rows) == len(CATALOG_NAMES) + 1 == 8
    assert rows[-1].split()[:2] == ["halfspace", "plain_mc"]
    written = sorted(p.name for p in tmp_path.iterdir())
    assert len(written) == 16
    assert {p.rsplit(".", 1)[1] for p in written} == {"csv", "json"}
    assert "geometric_indicator_payoff[ot]_scrambled_net.json" in written
