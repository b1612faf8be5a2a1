import math

import numpy as np
import pytest

from wave4d.fields import FormulaField
from wave4d.quadrature import QuadratureSpec
from wave4d.spectrum import (all_eigen_below, assemble_cylindrical,
                             assemble_radial, kernel_count, negative_spectrum,
                             rayleigh_quotient, shooting_rate,
                             verify_cancellation, verify_exponential_decay)
from wave4d.states import dilate, ground_state, symmetry_generator


def _zero_profile():
    return FormulaField(lambda X: np.zeros(X.shape[0]),
                        lambda X: np.zeros_like(X),
                        symmetry="radial", decay=100.0)


def test_free_laplacian_is_nonnegative():
    op = assemble_radial(_zero_profile(), r_max=20.0, n=1000)
    res = negative_spectrum(op, k=3)
    assert res.count == 0
    vals, _ = all_eigen_below(op, 1.0)
    assert np.all(vals > 0)


def test_exactly_one_negative_eigenvalue(W):
    op = assemble_radial(W, r_max=30.0, n=3000)
    res = negative_spectrum(op, k=4)
    assert res.count == 1
    assert res.residuals[0] < 1e-9


def test_grid_rate_matches_shooting_oracle(W, ground_eigen):
    lam1, _ = ground_eigen
    lam_shoot = shooting_rate(W)
    assert abs(lam1 - lam_shoot) / lam_shoot < 0.01


def test_shooting_oracle_matches_extrapolated_grid_rate(W):
    """The oracle agrees with the second-order Richardson limit of the
    radial grid rates far inside the grid's own error."""
    lams = [negative_spectrum(assemble_radial(W, r_max=30.0, n=n), k=1).lams[0]
            for n in (1000, 2000, 4000)]
    order = math.log2((lams[1] - lams[0]) / (lams[2] - lams[1]))
    assert order == pytest.approx(2.0, abs=0.05)
    limit = (4.0 * lams[2] - lams[1]) / 3.0
    lam_shoot = shooting_rate(W)
    assert abs(limit - lam_shoot) / lam_shoot < 1e-9


def test_rate_self_convergence(W):
    lams = []
    for n in (1000, 2000, 4000):
        op = assemble_radial(W, r_max=30.0, n=n)
        lams.append(negative_spectrum(op, k=1).lams[0])
    gaps = [abs(lams[0] - lams[1]), abs(lams[1] - lams[2])]
    assert gaps[1] < gaps[0]
    assert math.log2(gaps[0] / gaps[1]) > 1.5


def test_cylindrical_operator_symmetric(W):
    op = assemble_cylindrical(W, length=12.0, r_max=12.0, n1=60, nr=60)
    gap = op.matrix - op.matrix.T
    assert abs(gap).max() == 0.0


def test_sector_containment(W):
    rad = assemble_radial(W, r_max=20.0, n=2000)
    cyl = assemble_cylindrical(W, length=20.0, r_max=20.0, n1=140, nr=140)
    lam_rad = negative_spectrum(rad, k=1).eigenvalues[0]
    res_cyl = negative_spectrum(cyl, k=3, tol=0.02)
    assert res_cyl.count == 1
    assert res_cyl.eigenvalues[0] == pytest.approx(lam_rad, abs=5e-3)


def test_kernel_count_radial(W, ground_eigen):
    op = assemble_radial(W, r_max=30.0, n=3000)
    kc = kernel_count(op, [symmetry_generator(W, "scaling")])
    assert kc["count"] == 1
    assert kc["alignments"][0] >= 0.99


def test_kernel_count_free_laplacian():
    op = assemble_radial(_zero_profile(), r_max=30.0, n=3000)
    kc = kernel_count(op)
    assert kc["count"] == 0


def test_kernel_count_cylindrical_contains_translation(W):
    op = assemble_cylindrical(W, length=20.0, r_max=20.0, n1=120, nr=120)
    kc = kernel_count(op, [symmetry_generator(W, "translation_1"),
                           symmetry_generator(W, "scaling")])
    assert kc["count"] >= 2
    assert min(kc["alignments"]) >= 0.99


def test_rayleigh_quotient_consistency(W):
    op = assemble_radial(W, r_max=30.0, n=2000)
    vals, vecs = all_eigen_below(op, -1e-10)
    for i in range(len(vals)):
        assert rayleigh_quotient(op, vecs[:, i]) == pytest.approx(
            vals[i], abs=1e-9)


def test_orthonormality(W):
    op = assemble_radial(W, r_max=30.0, n=2000)
    res = negative_spectrum(op, k=1)
    assert np.allclose(res.gram, np.eye(res.count), atol=1e-10)


def test_eigenfield_decay_rate(ground_eigen):
    lam1, Y1 = ground_eigen
    fit = verify_exponential_decay(Y1, lam1)
    assert abs(-fit.slope - lam1) / lam1 < 0.10
    assert fit.r_squared > 0.999


def test_decay_check_requires_rate():
    with pytest.raises(ValueError):
        verify_exponential_decay(_zero_profile(), 0.0)


def test_decay_check_requires_trusted_window():
    """A positive rate on a field with no trusted radius has no window."""
    with pytest.raises(ValueError, match="trusted window"):
        verify_exponential_decay(_zero_profile(), 1.0)


def test_decay_rate_scales_with_dilation(W):
    """lam(dilated profile) = lam * dilation, and so does the decay rate."""
    scale = 1.5
    q = dilate(W, scale)
    op = assemble_radial(FormulaField(q.evaluate, symmetry="radial",
                                      decay=2.0),
                         r_max=25.0, n=3000)
    res = negative_spectrum(op, k=1)
    op0 = assemble_radial(W, r_max=30.0, n=3000)
    lam0 = negative_spectrum(op0, k=1).lams[0]
    assert res.lams[0] == pytest.approx(scale * lam0, rel=1e-3)
    fit = verify_exponential_decay(res.fields[0], res.lams[0])
    assert -fit.slope == pytest.approx(res.lams[0], rel=0.05)


def test_cancellation_identities(W, rng):
    lam = symmetry_generator(W, "scaling")
    d1 = symmetry_generator(W, "translation_1")
    c1 = symmetry_generator(W, "conformal_1")
    for trip in ((lam, lam, lam), (d1, d1, lam), (d1, c1, lam)):
        val, scale = verify_cancellation(*trip, W)
        assert abs(val) <= 1e-12 * scale

    # 20 seeded random triples from the nonvanishing generators
    ids = [g for g in ("scaling", "translation_1", "translation_2",
                       "translation_3", "translation_4", "conformal_1",
                       "conformal_2", "conformal_3", "conformal_4")]
    gens = {g: symmetry_generator(W, g) for g in ids}
    for _ in range(20):
        trip = rng.choice(ids, size=3)
        val, scale = verify_cancellation(*[gens[g] for g in trip], W)
        assert abs(val) <= 1e-6 * scale

    # negative control: a non-kernel bump makes the pairing generically big
    bump = FormulaField(
        lambda X: np.exp(-(np.sqrt(np.sum(X * X, axis=1)) - 2.0) ** 2),
        symmetry="radial", decay=50.0)
    val, scale = verify_cancellation(lam, lam, bump, W,
                                     QuadratureSpec(r_max=40.0))
    assert abs(val) > 1e-3 * scale


def test_sector_mismatch_rejected(Qs):
    with pytest.raises(ValueError):
        assemble_radial(Qs)
    with pytest.raises(ValueError):
        assemble_cylindrical(FormulaField(lambda X: np.zeros(X.shape[0]),
                                          symmetry="full"))
