"""Dependency guard: importing powersum loads numpy and the standard library
only, so scipy or any other third-party package cannot slip in as a
dependency unnoticed."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
before = set(sys.modules)
import powersum
print(json.dumps(sorted({name.partition('.')[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_numpy_and_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                          capture_output=True, text=True)
    loaded = set(json.loads(done.stdout))
    assert {"numpy", "powersum"} <= loaded
    assert loaded - {"numpy", "powersum"} - sys.stdlib_module_names == set()
