"""The package's import set: what a fresh ``hartogs`` process loads.

Every CLI command and every ``verify`` pass starts a fresh interpreter, so
each SciPy subpackage imported with the package is paid on every start.
``scipy.integrate`` (with the ``scipy.optimize`` / ``scipy.sparse`` chain it
loads) would cost every start about 0.3 s, and no part of the package uses
it.  What the package does load must be loaded at import, not on a first
call inside a timed pass.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys

def scipy_modules():
    return {m for m in sys.modules if m == "scipy" or m.startswith("scipy.")}

import hartogs, hartogs.cli
at_import = scipy_modules()

from hartogs import coeffspace, kernels, quadrature, verify
from hartogs.geometry import HartogsPoint

memos = [memo.cache_info().currsize for memo in (quadrature._jacobi01, coeffspace._gamma_weight, coeffspace._space_above)]
quadrature.build_rule(0.7, 8, 5)
quadrature.build_tau_rule()
kernels.kernel(0.7, HartogsPoint(0.1, 0.5), HartogsPoint(0.2j, 0.4))
assert verify.run_suite("normalization").passed
print(json.dumps({"at_import": sorted(at_import), "later": sorted(scipy_modules() - at_import), "memos": memos}))
"""


@functools.cache
def _probe():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_set_and_first_calls_load_no_heavy_scipy():
    loaded = _probe()
    for heavy in ("scipy.integrate", "scipy.optimize", "scipy.sparse"):
        assert heavy not in loaded["at_import"], heavy
    assert loaded["later"] == []


def test_import_builds_no_rule_and_no_weight():
    """The Gauss rules and Gamma weights are built on first use, so the
    set-up of every command stays free of them."""
    assert _probe()["memos"] == [0, 0, 0]


def test_only_specfun_and_quadrature_import_scipy():
    """SciPy stays in its two call sites, hyp2f1 in ``specfun`` and the Gauss
    rules' roots_jacobi (with scipy.linalg) in ``quadrature``."""
    importers = set()
    for path in (SRC / "hartogs").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                importers.add(path.name)
    assert importers == {"specfun.py", "quadrature.py"}
