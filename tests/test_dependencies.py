"""Dependency guard: importing powersum loads numpy and the standard library
only, so scipy or any other third-party package cannot slip in as a
dependency unnoticed; and the random starts do not load ``numpy.random``,
whose import costs more than a whole optimizer restart."""

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

_RANDOM_PROBE = """
import contextlib, io, json, sys
from powersum import OptimizerConfig, cli, minimize
minimize(OptimizerConfig(5, restarts=2))
after_minimize = "numpy.random" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["profile", "--random", "4"])
print(json.dumps([after_minimize, code, "numpy.random" in sys.modules]))
"""


def _run_probe(probe: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_only_numpy_and_the_standard_library():
    loaded = set(json.loads(_run_probe(_PROBE)))
    assert {"numpy", "powersum"} <= loaded
    assert loaded - {"numpy", "powersum"} - sys.stdlib_module_names == set()


def test_random_starts_do_not_import_numpy_random():
    assert json.loads(_run_probe(_RANDOM_PROBE)) == [False, 0, False]
