"""The demos' stdout, pinned byte for byte.

Each demo runs in its own interpreter on the checkout's src/, and its stdout
must hash to the sha256 recorded from the code before the geometry
certificates and the three-point audit became array passes.  A change that
moves a printed digit fails here; a new demo needs its digest recorded.
Demos run under -W error::RuntimeWarning, the filter the test suite sets for
itself, so a demo that starts to warn fails too.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

STDOUT_SHA256 = {
    "accelerated_rate": "237f7c381a6cc7725b99859b9b99f141e8f7c45ab93f680967416b0ad29bbc10",
    "feedback_vs_feedforward": "2c2e784c78ff29c719097333a9860f9a995bcc773ffb7fd0e2df9b2c0a07700c",
    "geometry_certificates": "b57f1a8a93433c81f35f5353b80cbe3c8b8839bab405246dda208b27c4f12eea",
    "noise_floor": "0d4352e80ccc3d479d95388b4eb677d0485f7189c408e522b68040b19921c7dc",
    "proof_audit": "23a403c76a153b835bbd19eebfddb59e0f6c490cd9e0ef1a46762753be24cc31",
    "value_iteration": "7e370ea8b7b6d54550e2dbc17841b5b9cc0e0c1861a19f348ca8f9ce29c00122",
}


def test_every_demo_has_a_recorded_digest():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_matches_recorded_digest(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(DEMOS / f"{name}.py")],
                          capture_output=True, env={**os.environ, "PYTHONPATH": path}, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name], proc.stdout.decode()
