import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Run in a fresh interpreter: the synthesis names load reachkit.synth on first
# use, which an earlier test in this process may already have done.
PROBE = """
import json, sys
import reachkit
synth_loaded_on_import = "reachkit.synth" in sys.modules
unresolved = []
for name in reachkit.__all__:
    try:
        getattr(reachkit, name)
    except AttributeError:
        unresolved.append(name)
star = {}
exec("from reachkit import *", star)
from reachkit import min_energy_transfer
import reachkit.synth
try:
    reachkit.no_such_name
    error = None
except AttributeError as exc:
    error = str(exc)
print(json.dumps({
    "synth_loaded_on_import": synth_loaded_on_import,
    "unresolved": unresolved,
    "missing_from_star": sorted(set(reachkit.__all__) - set(star)),
    "same_object": [
        min_energy_transfer is reachkit.synth.min_energy_transfer,
        reachkit.min_energy_transfer is reachkit.synth.min_energy_transfer,
    ],
    "error": error,
}))
"""


def test_public_names_resolve_and_synthesis_loads_on_demand():
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "synth_loaded_on_import": False,
        "unresolved": [],
        "missing_from_star": [],
        "same_object": [True, True],
        "error": "module 'reachkit' has no attribute 'no_such_name'",
    }
