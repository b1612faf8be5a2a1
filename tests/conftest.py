import numpy as np
import pytest
from hypothesis import Phase, settings

from wave4d.quadrature import QuadratureSpec
from wave4d.spectrum import assemble_radial, negative_spectrum
from wave4d.states import ground_state, surrogate_excited_state

# scripts/mutants.py runs under this profile (pytest's
# --hypothesis-profile=mutants): a planted defect is killed by its first
# failing example, so the runs skip shrinking and explaining it
settings.register_profile(
    "mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])


@pytest.fixture(scope="session")
def W():
    return ground_state()


@pytest.fixture(scope="session")
def Qs():
    return surrogate_excited_state()


@pytest.fixture(scope="session")
def ground_eigen(W):
    """(lam1, Y1) of the radial linearized operator, shared across tests."""
    op = assemble_radial(W, r_max=30.0, n=4000)
    res = negative_spectrum(op, k=1)
    return res.lams[0], res.fields[0]


@pytest.fixture(scope="session")
def fast_spec():
    return QuadratureSpec(nodes=8, r_max=25.0)


@pytest.fixture
def rng():
    """A fresh generator per test: its draws must not depend on test order."""
    return np.random.default_rng(20260810)
