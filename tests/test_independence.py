"""The oracles stay independent of the closed forms they check.

Each oracle runs once under ``sys.setprofile``, which records every
``hartogs`` function that the calling thread enters, and must enter none
of the closed-form routines listed beside it.  Every call here runs on
the calling thread: the Monte Carlo call is one chunk of at most
``quadrature._MAX_BLOCK`` samples, and the integrands are coefficient
objects.  The memos are cleared first, so a memoized routine is entered,
not looked up.

What an oracle does share with its closed form is named in README's
independence table, with the check that covers it.
"""

import sys

import numpy as np
import pytest

from hartogs import coeffspace, kernels, quadrature
from hartogs.coeffspace import LaurentCoeffs, MixedPoly, SpaceParam
from hartogs.geometry import HartogsPoint

Z = HartogsPoint(np.array([0.1 + 0.2j, -0.3j]), np.array([0.5, 0.6 + 0.1j]))
W = HartogsPoint(np.array([0.2j, 0.1]), np.array([0.4 - 0.2j, -0.5j]))
G = MixedPoly({(1, 1, 0, 0): 1.0, (0, 0, 1, 1): 0.5})

# oracle -> (one call of it, the closed-form routines it must not enter)
ORACLES = {
    "kernel_series": (
        lambda: kernels.kernel_series(0.7, Z, W),
        {"kernels.prefactor_a", "specfun.gauss_2f1", "kernels._kernel_2f1", "coeffspace._gamma_weight"},
    ),
    "integrate_mu": (
        lambda: quadrature.integrate_mu(0.7, G),
        {"coeffspace._gamma_weight", "kernels.kernel", "kernels.prefactor_a"},
    ),
    "mc_integrate_mu": (
        lambda: quadrature.mc_integrate_mu(0.7, G, quadrature._MAX_BLOCK, 0),
        {"geometry.normalization_C", "quadrature._jacobi01", "specfun.gamma_ratio_signed"},
    ),
}


def entered(call):
    """The hartogs functions, as module.qualname without the package, that call() enters."""
    coeffspace._gamma_weight.cache_clear()
    quadrature._jacobi01.cache_clear()
    names = set()

    def record(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("hartogs."):
            names.add(f"{module[len('hartogs.'):]}.{frame.f_code.co_qualname}")

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return names


@pytest.mark.parametrize("oracle", ORACLES)
def test_oracle_enters_no_closed_form_routine(oracle):
    call, forbidden = ORACLES[oracle]
    names = entered(call)
    assert any(name.endswith(f".{oracle}") for name in names), "the profile missed the oracle itself"
    assert not names & forbidden


def test_every_forbidden_routine_is_entered_by_a_closed_form():
    """The names above are live: the closed forms enter each of them, so a
    renamed routine fails here instead of leaving its check vacuous."""
    closed = (
        lambda: kernels.kernel(0.7, Z, W),
        lambda: SpaceParam(0.7).norm_sq(LaurentCoeffs({(1, 0): 1.0})),
        lambda: quadrature.integrate_mu(0.7, G),
    )
    reached = set().union(*(entered(call) for call in closed))
    assert set().union(*(forbidden for _, forbidden in ORACLES.values())) <= reached
