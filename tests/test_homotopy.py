import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from hologroup import (BudgetExhausted, BumpFunction, Linear, NonFinite,
                       NonInvertibleStep, OutOfRange, Overshear, OvershearPath, Permutation,
                       Poly, TranspositionPath, certify_path, continuity_modulus, eval_word,
                       homotopy, jacobian_det, path_det, path_target, sample_polydisc)
from hologroup.homotopy import CERTIFY_POINTS
from hologroup.words import check_invertible
from oracles import (certify_path_per_time, continuity_modulus_per_time,
                     fd_jacobian_det, path_at, transposition_block)

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
    # each was built; certify_path then ended in AttributeError or IndexError
    with pytest.raises(TypeError, match=r"^the target must be an Overshear, got Permutation$"):
        OvershearPath(Permutation((2, 1)), 2)
    with pytest.raises(ValueError, match=r"^a dimension must be an integer, got 2\.0$"):
        OvershearPath(SHEAR, 2.0)
    for args, bad in (((1.5, 2, 3), r"j must be an integer, got 1\.5"),
                      ((1, 2, 2.5), r"n must be an integer, got 2\.5")):
        with pytest.raises(ValueError, match=rf"^a transposition path's {bad}$"):
            TranspositionPath(*args)
    assert TranspositionPath(np.int64(1), np.int64(2), np.int64(2)) == swap_path()


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


@pytest.mark.parametrize("t", [1.5, -3.0, float("nan")])
def test_path_det_refuses_times_outside_the_unit_interval(t):
    # path_at refused them, but path_det(swap, 1.5) returned (2-0.5j)
    with pytest.raises(OutOfRange, match="path parameter must lie in"):
        path_det(swap_path(), t)


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
    # numpy refused it with "'float' object cannot be interpreted as an integer"
    with pytest.raises(ValueError, match=r"^the grid size must be an integer, got 11\.0$"):
        certify_path(swap_path(), 11.0, 1.0)
    assert certify_path(swap_path(), np.int64(11), 1.0) == certify_path(swap_path(), 11, 1.0)


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


@pytest.mark.parametrize("table", [(np.nan, 1.0, np.nan), (0.0, np.nan, 0.0),
                                   (0.0, np.inf, 0.0)], ids=["nan ends", "nan middle", "inf"])
def test_bump_refuses_a_non_finite_table_value(table):
    # NaN compares false, so it passed the endpoint and midpoint checks
    with pytest.raises(NonFinite, match="bump table value"):
        BumpFunction("table", table)


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
    # |Im g| = 40 |Re z1| reaches 60 on the radius-1.5 polydisc, so the
    # phase (1-t) Im g runs through up to 9.5 turns from t = 0 to t = 1
    spin = Poly(3, {(1, 0, 0): 40j})
    table = BumpFunction("table", (0.0, 0.7, -0.4, 0.9, 0.0))
    wide = BumpFunction("table", (0.0, -0.6, 1.2, 0.0))
    return {
        "overshear-fg": OvershearPath(Overshear(2, f, g), 3),
        "overshear-g": OvershearPath(Overshear(2, Poly.zero(3), g), 3),
        "overshear-f": OvershearPath(Overshear(2, f, Poly.zero(3)), 3),
        "overshear-spin": OvershearPath(Overshear(2, f, spin), 3),
        "transposition-sin": TranspositionPath(2, 3, 3),
        "transposition-table": TranspositionPath(2, 3, 3, table),
        "transposition-wide": TranspositionPath(2, 4, 5, wide),
    }


def _path_at_tolerance(path, radius, seed):
    """64 eps (1 + B), where B bounds every |coordinate| of the path's
    images at the sample points over t in [0, 1]. For an overshear path
    |(1-t) f| <= |f| and |exp((1-t) g)| <= max(1, |exp(g)|); for a
    transposition path each entry of its block is at most 1 + max |bump|
    in modulus, and a table bump's largest modulus is at a knot."""
    pts = sample_polydisc(path.n, CERTIFY_POINTS, radius, np.random.default_rng(seed))
    if isinstance(path, TranspositionPath):
        bump = 1.0 if path.bump.table is None else max(map(abs, path.bump.table))
        bound = (2.0 + bump) * np.max(np.abs(pts))
    else:
        f, g = path.target.f.eval_batch(pts), path.target.g.eval_batch(pts)
        zs = pts[:, path.target.axis - 1]
        bound = max(np.max(np.abs(f) + np.maximum(1.0, np.abs(np.exp(g))) * np.abs(zs)),
                    np.max(np.abs(pts)))
    return 64 * np.finfo(np.float64).eps * (1.0 + bound)


@pytest.mark.parametrize("name", sorted(bit_identity_paths()))
def test_block_evaluation_equals_per_time_words(name):
    # grids 2, 33 (not a block multiple) and 1001, and dt 1, 1/257, 1e-3,
    # so that one block, a partial last block and many block boundaries
    # occur. Every path equals its closed form per time, on the coordinates
    # it moves, bit for bit, and the word path_at(path, t) to rounding
    path = bit_identity_paths()[name]
    tol = _path_at_tolerance(path, 1.5, 7)
    for grid in (2, 33, 1001):
        got = certify_path(path, grid, 1.5, seed=7)
        assert got == certify_path_per_time(path, grid, 1.5, seed=7, closed_form=True)
        words = certify_path_per_time(path, grid, 1.5, seed=7)
        assert np.all(np.abs(np.subtract(astuple(got), astuple(words))) <= tol)
    for dt in (1.0, 1.0 / 257, 1e-3):
        got = continuity_modulus(path, dt, 1.5, seed=7)
        assert got == continuity_modulus_per_time(path, dt, 1.5, seed=7, closed_form=True)
        assert abs(got - continuity_modulus_per_time(path, dt, 1.5, seed=7)) <= tol


@pytest.mark.parametrize("name", sorted(bit_identity_paths()))
def test_results_do_not_depend_on_the_block_size(name, monkeypatch):
    # one time per block, a partial last block and a single block give the
    # default's bits: a workspace row kept past the next block (certify's
    # first image, continuity's previous one) would show here
    path = bit_identity_paths()[name]

    def reports():
        fields = [v for grid in (2, 33, 1001) for v in astuple(certify_path(path, grid, 1.5, 7))]
        fields += [continuity_modulus(path, dt, 1.5, 7) for dt in (1.0, 1.0 / 257, 1e-3)]
        return [float(v).hex() for v in fields]

    want = reports()
    for block in (1, 7, 1001):
        monkeypatch.setattr(homotopy, "BLOCK_TIMES", block)
        assert reports() == want, f"BLOCK_TIMES = {block}"


def _traced_peak(run, size) -> int:
    tracemalloc.start()
    try:
        run(size)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(bit_identity_paths()))
def test_memory_grows_with_the_workspace_not_the_grid(name):
    # ten times the grid adds only its time array, not its images
    path = bit_identity_paths()[name]
    for run in (lambda size: certify_path(path, size, 1.5),
                lambda size: continuity_modulus(path, 1.0 / (size - 1), 1.5)):
        run(1001)
        assert _traced_peak(run, 10001) <= _traced_peak(run, 1001) + 128 * 1024


@pytest.mark.parametrize("name,moved", [("overshear-fg", 1), ("transposition-wide", 2)])
def test_evaluator_returns_only_the_moved_coordinates(name, moved):
    # a transposition of z2 and z4 in C^5 gives (T, P, 2), not (T, P, 5)
    path = bit_identity_paths()[name]
    pts = sample_polydisc(path.n, CERTIFY_POINTS, 1.5, np.random.default_rng(7))
    images, dets, resids = homotopy._evaluator(path, pts, 7)(np.linspace(0.0, 1.0, 7), True)
    assert images.shape == (7, CERTIFY_POINTS, moved)
    assert dets.shape == resids.shape == (7,)


@pytest.mark.parametrize("name", sorted(n for n, p in bit_identity_paths().items()
                                         if isinstance(p, OvershearPath)))
def test_overshear_min_abs_det_is_read_off_the_modulus(name):
    # |det exp((1-t) g)| is exp((1-t) Re g), with no complex abs
    path = bit_identity_paths()[name]
    pts = sample_polydisc(path.n, CERTIFY_POINTS, 1.5, np.random.default_rng(7))
    g = path.target.g.eval_batch(pts)
    for grid in (2, 33, 1001):
        times = np.linspace(0.0, 1.0, grid)
        want = np.min(np.exp((1 - times)[:, None] * g.real))
        assert certify_path(path, grid, 1.5, seed=7).min_abs_det == want


@pytest.mark.parametrize("name", sorted(bit_identity_paths()))
def test_identity_end_is_exact(name):
    # at t = 1 every path is the identity to the last bit
    path = bit_identity_paths()[name]
    for grid in (2, 33, 1001):
        assert certify_path(path, grid, 1.5, seed=7).endpoint_err1 == 0.0


def test_no_per_time_word_rebuild(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a step or polynomial was rebuilt for one time")

    paths = bit_identity_paths()
    for cls in (Linear, Overshear):
        monkeypatch.setattr(cls, "__init__", forbidden)
    monkeypatch.setattr(Poly, "scale", forbidden)
    for path in paths.values():
        certify_path(path, 101, 1.0)
        continuity_modulus(path, 0.01, 1.0)


def test_invertibility_check_covers_every_matrix_of_a_stack():
    stack = np.array([transposition_block(swap_path(), t) for t in np.linspace(0.0, 1.0, 5)])
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
    with pytest.raises(NonFinite, match=r"^the inverse residual is nan at t = 0\.0, "
                                        r"which is not finite$"):
        certify_path(path, 101, 2.0)
    with pytest.raises(NonFinite, match=r"^the jump is nan at t = 0\.01, "
                                        r"which is not finite$"):
        continuity_modulus(path, 0.01, 3.0)


def test_huge_bump_is_refused_as_non_finite():
    # the table's 1e308 overflowed the row norm of check_invertible, which
    # read the matrix at t = 0.1 as singular (NonInvertibleStep); then
    # np.interp's overflowing slope read the bump as NaN there, and |det|
    # was refused at t = 0.1. The bump is finite, and the round trip of
    # its 1e308 at t = 0.5 is not
    path = swap_path(BumpFunction("table", (0.0, 1e308, 0.0)))
    with pytest.raises(NonFinite, match=r"^the inverse residual is nan at t = 0\.5, "
                                        r"which is not finite$"):
        certify_path(path, 11, 2.0)


@pytest.mark.parametrize("table, times, want", [
    ((0.0, 1e308, 0.0), [0.1], [2e307]),
    ((0.0, 2e307, 4e307, 6e307, 8e307, 8e307, -1e308, 0.0, 0.0),
     [0.6875, 0.8125], [-1e307, -5e307]),
])
def test_table_bumps_are_finite_where_their_slope_overflows(table, times, want):
    # np.interp's slope (y[j+1] - y[j]) / dx overflows between these knots,
    # where it read inf or NaN; the piecewise-linear value is finite
    bump = BumpFunction("table", table)
    assert np.allclose(bump(np.array(times)), want, rtol=1e-15, atol=0)
    assert np.allclose([float(bump(t)) for t in times], want, rtol=1e-15, atol=0)
    # finite everywhere, and np.interp's bits wherever it is finite
    t = np.linspace(0.0, 1.0, 1001)
    got, interp = bump(t), np.interp(t, np.linspace(0.0, 1.0, len(table)), table)
    finite = np.isfinite(interp)
    assert np.isfinite(got).all() and not finite.all()
    assert got[finite].tobytes() == interp[finite].tobytes()


@pytest.mark.parametrize("block", [1, 7, homotopy.BLOCK_TIMES])
def test_the_earliest_non_finite_time_is_refused(block, monkeypatch):
    # the residual overflows from t = 0.4, where the bump nears 8e307 on the
    # radius-3 polydisc, and |det| is NaN from t = 0.7, where interpolating
    # down to -1e308 overflows; a block checked every |det| before any
    # residual, so one block of the 11 times named |det| at t = 0.7
    monkeypatch.setattr(homotopy, "BLOCK_TIMES", block)
    bump = BumpFunction("table", (0.0, 2e307, 4e307, 6e307, 8e307, 8e307, -1e308, 0.0, 0.0))
    with pytest.raises(NonFinite, match=r"^the inverse residual is nan at t = 0\.4, "
                                        r"which is not finite$"):
        certify_path(swap_path(bump), 11, 3.0)
