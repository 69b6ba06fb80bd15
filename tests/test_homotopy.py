import numpy as np
import pytest

from hologroup import (BudgetExhausted, BumpFunction, NonFinite,
                       NonInvertibleStep, OutOfRange, Overshear, OvershearPath, Poly,
                       TranspositionPath, Word, certify_path,
                       continuity_modulus, eval_word, homotopy, jacobian_det,
                       path_at, path_det, path_target, transposition_matrix)
from hologroup.words import check_invertible
from oracles import (certify_path_per_time, continuity_modulus_per_time,
                     fd_jacobian_det)

SHEAR = Overshear(2, Poly.coordinate(2, 1), Poly.zero(2))


def shear_path():
    return OvershearPath(SHEAR, 2)


def swap_path(bump=None):
    if bump is None:
        return TranspositionPath(1, 2, 2)
    return TranspositionPath(1, 2, 2, bump)


def test_overshear_path_midpoint():
    w = path_at(shear_path(), 0.5)
    got = eval_word(w, np.array([1.0, 2.0], dtype=complex))
    assert np.allclose(got, [1.0, 2.5], atol=1e-15)


def test_path_endpoints_are_target_and_identity():
    z = np.array([0.3 + 0.1j, -1.2j], dtype=complex)
    for path in (shear_path(), swap_path()):
        tgt = eval_word(path_target(path), z)
        assert np.allclose(eval_word(path_at(path, 0.0), z), tgt, atol=1e-15)
        assert np.allclose(eval_word(path_at(path, 1.0), z), z, atol=1e-12)


def test_transposition_start_swaps():
    z = np.array([1.0, 2.0], dtype=complex)
    assert np.allclose(eval_word(path_at(swap_path(), 0.0), z), [2.0, 1.0])


def test_t_out_of_range():
    for bad in (-0.1, 1.5, 2.0):
        with pytest.raises(OutOfRange):
            path_at(shear_path(), bad)
        with pytest.raises(OutOfRange):
            path_at(swap_path(), bad)


def test_constructor_validation():
    with pytest.raises(ValueError):
        TranspositionPath(2, 1, 2)
    with pytest.raises(ValueError):
        TranspositionPath(1, 3, 2)
    with pytest.raises(ValueError):
        OvershearPath(SHEAR, 3)


def test_path_det_examples():
    p = swap_path()
    assert abs(path_det(p, 0.0) - (-1.0)) < 1e-15
    assert abs(path_det(p, 1.0) - 1.0) < 1e-15
    assert abs(path_det(p, 0.5) - (-0.5j)) < 1e-15


def test_path_det_matches_jacobian():
    p = swap_path()
    z = np.array([0.4, -0.7j], dtype=complex)
    for t in (0.0, 0.125, 0.3, 0.5, 0.77, 1.0):
        closed = path_det(p, t)
        analytic = jacobian_det(path_at(p, t), z)
        fd = fd_jacobian_det(path_at(p, t), z, step=0.01)
        assert abs(closed - analytic) < 1e-12
        assert abs(closed - fd) < 1e-10


def test_path_det_rejects_overshear_paths():
    with pytest.raises(TypeError):
        path_det(shear_path(), 0.5)


def test_path_det_never_vanishes_on_fine_grid():
    p = swap_path()
    ts = np.linspace(0.0, 1.0, 100001)
    dets = (2.0 * ts - 1.0) - 1j * (1.0 - ts) * np.sin(np.pi * ts)
    spot = [path_det(p, float(t)) for t in ts[:: 10000]]
    assert np.allclose(spot, dets[::10000])
    assert float(np.min(np.abs(dets))) > 0.4


def test_certify_overshear_path():
    rep = certify_path(shear_path(), 101, 2.0)
    assert rep.endpoint_err0 == 0.0
    assert rep.endpoint_err1 < 1e-12
    assert rep.min_abs_det > 0.9
    assert rep.max_inverse_residual < 1e-9


def test_certify_transposition_path():
    rep = certify_path(swap_path(), 101, 2.0)
    assert rep.endpoint_err0 < 1e-12
    assert rep.endpoint_err1 < 1e-12
    assert rep.min_abs_det > 0.4
    assert rep.max_inverse_residual < 1e-9


def test_certify_degenerate_identity_path():
    p = OvershearPath(Overshear(2, Poly.zero(2), Poly.zero(2)), 2)
    rep = certify_path(p, 11, 1.0)
    assert rep.endpoint_err0 == 0.0
    assert rep.endpoint_err1 == 0.0
    assert rep.min_abs_det == 1.0
    assert rep.max_inverse_residual == 0.0


def test_certify_grid_too_small():
    with pytest.raises(OutOfRange):
        certify_path(shear_path(), 1, 2.0)


def test_certify_deterministic():
    a = certify_path(swap_path(), 21, 2.0, seed=9)
    b = certify_path(swap_path(), 21, 2.0, seed=9)
    assert a == b


def test_table_bump_accepted():
    bump = BumpFunction("table", (0.0, 1.0, 0.0))
    assert bump(0.0) == 0.0 and bump(1.0) == 0.0
    assert bump(0.5) == 1.0
    assert bump(0.25) == 0.5
    rep = certify_path(swap_path(bump), 51, 1.5)
    assert rep.endpoint_err0 < 1e-12 and rep.endpoint_err1 < 1e-12
    assert rep.min_abs_det > 0.0


def test_bump_validation():
    with pytest.raises(ValueError):
        BumpFunction("table", (0.5, 1.0, 0.0))  # nonzero start
    with pytest.raises(ValueError):
        BumpFunction("table", (0.0, 1.0, 0.5))  # nonzero end
    with pytest.raises(ValueError):
        BumpFunction("table", (0.0, 0.0, 0.0))  # vanishes at 1/2
    with pytest.raises(ValueError):
        BumpFunction("table", (0.0, 1.0))  # too short
    with pytest.raises(ValueError):
        BumpFunction("sin", (0.0, 1.0, 0.0))  # sin takes no table
    with pytest.raises(ValueError):
        BumpFunction("cos")


def test_continuity_constant_path_is_zero():
    p = OvershearPath(Overshear(2, Poly.zero(2), Poly.zero(2)), 2)
    assert continuity_modulus(p, 0.01, 2.0) == 0.0


def test_continuity_scales_linearly():
    for p in (shear_path(), swap_path()):
        prev = continuity_modulus(p, 1e-2, 2.0)
        for dt in (5e-3, 2.5e-3):
            cur = continuity_modulus(p, dt, 2.0)
            assert 0.4 <= cur / prev <= 0.6
            prev = cur


def test_continuity_dt_range():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(OutOfRange):
            continuity_modulus(shear_path(), bad, 2.0)


def bit_identity_paths():
    f = Poly(3, {(1, 0, 0): 0.5 - 0.25j, (2, 0, 1): 0.3j, (0, 0, 0): -0.2})
    g = Poly(3, {(0, 0, 2): 0.25 + 0.1j, (1, 0, 1): -0.15, (0, 0, 0): 0.05j})
    table = BumpFunction("table", (0.0, 0.7, -0.4, 0.9, 0.0))
    return {
        "overshear-fg": OvershearPath(Overshear(2, f, g), 3),
        "overshear-g": OvershearPath(Overshear(2, Poly.zero(3), g), 3),
        "overshear-f": OvershearPath(Overshear(2, f, Poly.zero(3)), 3),
        "transposition-sin": TranspositionPath(2, 3, 3),
        "transposition-table": TranspositionPath(2, 3, 3, table),
    }


@pytest.mark.parametrize("name", sorted(bit_identity_paths()))
def test_block_evaluation_equals_per_time_words(name):
    # grids 2, 33 (not a block multiple) and 1001, and dt 1, 1/257, 1e-3,
    # so that one block, a partial last block and many block boundaries occur
    path = bit_identity_paths()[name]
    for grid in (2, 33, 1001):
        assert certify_path(path, grid, 1.5, seed=7) == \
            certify_path_per_time(path, grid, 1.5, seed=7)
    for dt in (1.0, 1.0 / 257, 1e-3):
        assert continuity_modulus(path, dt, 1.5, seed=7) == \
            continuity_modulus_per_time(path, dt, 1.5, seed=7)


def test_no_per_time_word_rebuild(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a word or polynomial was rebuilt for one time")

    monkeypatch.setattr(homotopy, "path_at", forbidden)
    monkeypatch.setattr(Poly, "scale", forbidden)
    for path in bit_identity_paths().values():
        certify_path(path, 101, 1.0)
        continuity_modulus(path, 0.01, 1.0)


def test_invertibility_check_covers_every_matrix_of_a_stack():
    stack = transposition_matrix(swap_path(), np.linspace(0.0, 1.0, 5))
    check_invertible(stack)
    stack[3] = [[1.0, 2.0], [2.0, 4.0 + 1e-14]]
    with pytest.raises(NonInvertibleStep, match="singular to tolerance"):
        check_invertible(stack)
    stack[1, 0] = 0.0
    with pytest.raises(NonInvertibleStep, match="zero row"):
        check_invertible(stack)


def test_work_cap():
    cap = homotopy.MAX_GRID_TIMES
    assert cap >= 1001
    with pytest.raises(BudgetExhausted):
        certify_path(shear_path(), cap + 1, 2.0)
    with pytest.raises(BudgetExhausted):
        continuity_modulus(shear_path(), 1.0 / cap, 2.0)
    with pytest.raises(BudgetExhausted):
        continuity_modulus(shear_path(), 5e-324, 2.0)


def test_bad_radius():
    for bad in (float("nan"), float("inf"), -2.0):
        with pytest.raises(OutOfRange):
            certify_path(shear_path(), 11, bad)
        with pytest.raises(OutOfRange):
            continuity_modulus(swap_path(), 0.1, bad)


def test_overflow_is_refused():
    # exp((1-t) 400 z1) leaves the float range on the radius-2 polydisc: at
    # t = 0 the round trip multiplies an overflowed exp(-g) by 0, and at
    # radius 3 the image itself overflows
    path = OvershearPath(Overshear(2, Poly.coordinate(2, 1), Poly(2, {(1, 0): 400.0})), 2)
    with pytest.raises(NonFinite, match="inverse residual is not finite at t = 0.0"):
        certify_path(path, 101, 2.0)
    with pytest.raises(NonFinite, match="jump is not finite at t = 0.01"):
        continuity_modulus(path, 0.01, 3.0)
