"""The package's import set: what a fresh ``hartogs`` process loads.

Every CLI command and every ``verify`` pass starts a fresh interpreter, so
each module imported with the package is paid on every start.  The package
runs on numpy alone: ``scipy.special`` with ``scipy.linalg`` cost about
0.3 s a start when the Gauss rules and the kernel's 2F1 came from SciPy.
SciPy stays a test dependency, a reference for the tests.
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
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import hartogs, hartogs.cli
at_import = scipy_modules()

from hartogs import cli, coeffspace, kernels, projections, quadrature, verify
from hartogs.geometry import HartogsPoint

memos = [memo.cache_info().currsize for memo in (quadrature._jacobi01, coeffspace._gamma_weight, coeffspace._space_above)]
z, w = HartogsPoint(0.1, 0.5), HartogsPoint(0.2j, 0.4)
for nu in (-2.0, -1.5, -1.0, 0.7, 2.0, 20.7):
    kernels.kernel(nu, z, w)
kernels.kernel_series(0.7, z, w)
kernels.bound_ratio_profile(0.7, [0.5, 0.999j])
quadrature.integrate_mu(0.7, lambda z1, z2: abs(z1) ** 2, quadrature.build_rule(0.7, 8, 5))
quadrature.integrate_tau(lambda z1, z2: 0.0 * z1, quadrature.build_tau_rule(8, 4))
quadrature.mc_integrate_mu(0.7, lambda z1, z2: abs(z2) ** 2, 1000, 0)
projections.critical_range(0.7)
results = verify.run_all(0)
assert all(r.passed for r in results)
assert cli.main(["critical-range", "--nu", "0.7"]) == 0
print(json.dumps({"at_import": at_import, "later": scipy_modules(), "memos": memos}))
"""


@functools.cache
def _probe():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_set_and_first_calls_load_no_heavy_scipy():
    """No SciPy module at all, after the import or after a first call of each
    public entry: every kernel regime, the series oracle, the profile, the three
    integrals, the Monte Carlo, every verify suite and a CLI command."""
    loaded = _probe()
    assert loaded["at_import"] == []
    assert loaded["later"] == []


def test_import_builds_no_rule_and_no_weight():
    """The Gauss rules and Gamma weights are built on first use, so the
    set-up of every command stays free of them."""
    assert _probe()["memos"] == [0, 0, 0]


def test_no_module_imports_scipy():
    """No module of the package imports SciPy, at its top or inside a function."""
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
    assert importers == set()
