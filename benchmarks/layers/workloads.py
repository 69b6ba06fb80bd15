"""Seeded inputs, verdicts and reference checks for the four workloads.

Every item pairs one verdict (the call into hologroup that is timed)
with a check against a reference known by construction, so that a wrong
answer is counted, never trusted. Operations are looked up on their
modules at call time (`homotopy.certify_path`, not a bound name) so
that the span wrappers in `tracing.py` see every call.

Item pools are cycled by the caller. Their composition (the kinds and
counts of steps, where an escape sits) is fixed and only the random
data varies with the seed, which keeps the cost of a pass over a pool
nearly the same from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

import hologroup as hg
from hologroup import cli, domains, homotopy, torus, winding, words

WRONG, REFUSED, NON_FINITE = "wrong", "refused", "non_finite"
REASONS = (WRONG, REFUSED, NON_FINITE)

# Defects the ROADMAP already lists, by input family. Their failures are
# counted like any other. An input carries the failures (`Item.tolerated`)
# that the defect is predicted to cause on it, worked out at set-up from
# the input alone; `correct` stays true only while every failure is one
# predicted for its input.
KNOWN_DEFECTS = {
    "spin5": "winding aliasing: 64 start samples miss whole turns (ROADMAP item 5)",
    "spin10": "winding aliasing and absolute ZERO_TOL false zeros (ROADMAP items 4, 5)",
    "preserves-escape-rounded": "structural escape witnesses are verified by exact zero "
                                "tests, which rounding in exp(g)*exp(-g) or in an inverted "
                                "prefix defeats; sampling cannot find the escape (item 4)",
}
ZERO_ON_CONTOUR = f"{REFUSED}:ZeroOnContour"

CERTIFY_GRID = 1001      # CLI default for homotopy-certify --grid
CONTINUITY_DT = 1e-3
SAMPLE_RADIUS = 2.0      # CLI default for --radius
ENDPOINT_TOL = 1e-12     # bounds of tests/test_acceptance.py criterion 3
RESIDUAL_TOL = 1e-9
ROUND_TRIP_TOL = 1e-9
REL_TOL = 1e-9
WITNESS_MIN_DEVIATION = 1e-3


@dataclass
class Item:
    family: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    plant: Optional[Callable[[object], object]] = None  # alter a correct result
    argv: Optional[list] = None  # cli items: the command line after the program
    # failures a known defect is predicted to cause on this input: a reason,
    # or "reason:ExceptionName" for a refusal
    tolerated: frozenset = frozenset()


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


def _close(got, want, tol=REL_TOL) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


# ---------------------------------------------------------------------------
# random data


def _phase(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def _scalar(rng, lo=0.3, hi=2.0) -> complex:
    return rng.uniform(lo, hi) * _phase(rng)


def _exponents(n, axis, max_degree, constant=True):
    """All exponent vectors of total degree <= max_degree avoiding `axis`."""
    out = [()]
    for v in range(n):
        top = 0 if v == axis - 1 else max_degree
        out = [e + (k,) for e in out for k in range(top + 1) if sum(e) + k <= max_degree]
    return [e for e in out if constant or sum(e) > 0]


def _poly(rng, n, axis, max_degree, n_terms, lo, hi, constant=True) -> hg.Poly:
    pool = _exponents(n, axis, max_degree, constant)
    picks = rng.choice(len(pool), size=min(n_terms, len(pool)), replace=False)
    return hg.Poly(n, {pool[i]: _scalar(rng, lo, hi) for i in picks})


def _full_poly(rng, n, axis, max_degree, lo, hi) -> hg.Poly:
    """Every monomial up to max_degree, so that the cost is the same for all seeds."""
    return hg.Poly(n, {e: _scalar(rng, lo, hi) for e in _exponents(n, axis, max_degree)})


def _path_data(rng, n, axis) -> tuple:
    """f = a + b z_v + c z_w^2 and g = d + e z_u, with v, w, u other than
    the axis: the same evaluation cost in every dimension and for every seed."""
    others = [v for v in range(n) if v != axis - 1]

    def mono(v, k):
        return tuple(k if i == v else 0 for i in range(n))

    zero = (0,) * n
    v, w, u = (int(x) for x in rng.choice(others, size=3))
    f = {zero: _scalar(rng, 0.3, 2.0), mono(v, 1): _scalar(rng, 0.3, 2.0)}
    f[mono(w, 2)] = _scalar(rng, 0.3, 2.0)
    g = {zero: _scalar(rng, 0.1, 0.4), mono(u, 1): _scalar(rng, 0.1, 0.4)}
    return hg.Poly(n, f), hg.Poly(n, g)


def _polydisc(rng, count, n, radius) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=(count, n)))
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(count, n)))


def _poly_values(p: hg.Poly, pts: np.ndarray) -> np.ndarray:
    """Reference evaluation, independent of the kernel."""
    out = np.zeros(pts.shape[0], dtype=np.complex128)
    for exps, c in p.terms.items():
        out += c * np.prod(pts ** np.array(exps), axis=1)
    return out


def _unitary(rng, n, lo=0.5, hi=1.5) -> hg.Linear:
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return hg.Linear(q * np.array([_scalar(rng, lo, hi) for _ in range(n)])[None, :])


def _diagonal(rng, n, lo=0.3, hi=2.0) -> hg.Diagonal:
    return hg.Diagonal(tuple(_scalar(rng, lo, hi) for _ in range(n)))


# ---------------------------------------------------------------------------
# paths: certify_path + continuity_modulus on seeded homotopy paths


def _grid_times(dt: float) -> np.ndarray:
    # the time grid continuity_modulus walks
    steps = int(np.floor(1.0 / dt + 1e-9))
    return np.minimum(np.arange(steps + 1) * dt, 1.0)


def path_images(path, times: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Closed-form (T, P, n) images of the path at every time."""
    t = times[:, None]
    out = np.broadcast_to(pts, (len(times),) + pts.shape).copy()
    if isinstance(path, hg.OvershearPath):
        s = path.target.axis - 1
        f, g = _poly_values(path.target.f, pts), _poly_values(path.target.g, pts)
        out[:, :, s] = (1.0 - t) * f + np.exp((1.0 - t) * g) * pts[:, s]
    else:
        j, k = path.j - 1, path.k - 1
        b = np.asarray(path.bump(times), dtype=np.float64)[:, None]
        out[:, :, j] = t * pts[:, j] + (1.0 - t) * pts[:, k]
        out[:, :, k] = ((1.0 - t) + 1j * b) * pts[:, j] + t * pts[:, k]
    return out


def continuity_reference(path, dt, radius, seed) -> float:
    pts = homotopy.sample_polydisc(path.n, homotopy.CERTIFY_POINTS, radius,
                                   np.random.default_rng(seed))
    images = path_images(path, _grid_times(dt), pts)
    return float(np.max(np.abs(np.diff(images, axis=0))))


def min_det_reference(path, grid, radius, seed) -> float:
    times = np.linspace(0.0, 1.0, grid)
    if isinstance(path, hg.TranspositionPath):
        return min(abs(homotopy.path_det(path, float(t))) for t in times)
    pts = homotopy.sample_polydisc(path.n, homotopy.CERTIFY_POINTS, radius,
                                   np.random.default_rng(seed))
    re_g = _poly_values(path.target.g, pts).real
    return float(np.min(np.exp((1.0 - times[:, None]) * re_g[None, :])))


def _path_item(family, path, grid, dt, seed) -> Item:
    min_det = min_det_reference(path, grid, SAMPLE_RADIUS, seed)
    modulus = continuity_reference(path, dt, SAMPLE_RADIUS, seed)

    def run():
        rep = homotopy.certify_path(path, grid, SAMPLE_RADIUS, seed=seed)
        return rep, homotopy.continuity_modulus(path, dt, SAMPLE_RADIUS, seed=seed)

    def check(result):
        rep, got_modulus = result
        fields = (rep.endpoint_err0, rep.endpoint_err1, rep.min_abs_det,
                  rep.max_inverse_residual, got_modulus)
        if not _finite(*fields):
            return NON_FINITE
        ok = (rep.endpoint_err0 < ENDPOINT_TOL and rep.endpoint_err1 < ENDPOINT_TOL
              and rep.min_abs_det > 0 and rep.max_inverse_residual < RESIDUAL_TOL
              and _close(rep.min_abs_det, min_det) and _close(got_modulus, modulus))
        return None if ok else WRONG

    def plant(result):
        rep, got_modulus = result
        return replace(rep, min_abs_det=rep.min_abs_det * (1.0 + 1e-6)), got_modulus

    return Item(family, run, check, plant)


def _table_bump(rng) -> hg.BumpFunction:
    inner = rng.uniform(0.2, 1.0, size=5) * rng.choice([-1.0, 1.0])
    return hg.BumpFunction("table", (0.0, *inner, 0.0))


def paths_items(rng, small: bool) -> list:
    grid, dt = (101, 1e-2) if small else (CERTIFY_GRID, CONTINUITY_DT)
    # most verdicts of one cost, so that the median sits inside that cluster
    items = []
    for i in range(8):
        n = 2 + i % 2
        axis = int(rng.integers(1, n + 1))
        path = hg.OvershearPath(hg.Overshear(axis, *_path_data(rng, n, axis)), n)
        items.append(_path_item("overshear-path", path, grid, dt, int(rng.integers(2 ** 31))))
    for n, bump in ((2, hg.SIN_BUMP), (3, _table_bump(rng))):
        j, k = sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        path = hg.TranspositionPath(j, k, n, bump)
        items.append(_path_item("transposition-path", path, grid, dt,
                                int(rng.integers(2 ** 31))))
    return items


# ---------------------------------------------------------------------------
# sweep: images, determinants and the inverse round trip on a wide batch


def _sweep_word(rng, overshears: int) -> hg.Word:
    n = 3
    steps = []
    mixers = (lambda: _unitary(rng, n, 0.8, 1.25), lambda: _diagonal(rng, n, 0.8, 1.25),
              lambda: hg.Permutation(tuple(int(p) + 1 for p in rng.permutation(n))))
    for i in range(overshears):
        axis = int(rng.integers(1, n + 1))
        steps.append(hg.Overshear(axis, _full_poly(rng, n, axis, 4, 0.0, 0.03),
                                  _full_poly(rng, n, axis, 4, 0.0, 0.01)))
        steps.append(mixers[i % 3]())
    return hg.Word(n, tuple(steps))


def sweep_items(rng, small: bool) -> list:
    count = 1024 if small else 16384
    items = []
    for i in range(8):
        w = _sweep_word(rng, 3 + i % 2)
        pts = _polydisc(rng, count, w.n, 0.9)

        def run(w=w, pts=pts):
            images = words.eval_word_batch(w, pts)
            det = words.jacobian_det_batch(w, pts)
            back = words.eval_word_batch(words.invert_word(w), images)
            return images, det, back

        def check(result, pts=pts):
            images, det, back = result
            if not _finite(images, det, back):
                return NON_FINITE
            ok = np.all(det != 0) and np.max(np.abs(back - pts)) < ROUND_TRIP_TOL
            return None if ok else WRONG

        def plant(result):
            images, det, back = result
            back = back.copy()
            back[0, 0] += 1e-6
            return images, det, back

        items.append(Item("sweep-word", run, check, plant))
    return items


# ---------------------------------------------------------------------------
# verdicts: winding indices, torus centralizer + extraction, preservation

COMPLEMENTS = [hg.HyperplaneComplement(2, frozenset({1})),
               hg.HyperplaneComplement(3, frozenset({1})),
               hg.HyperplaneComplement(3, frozenset({1, 3}))]
PUNCTURED = [hg.Punctured(2), hg.Punctured(3)]
WINDING_RADII = (0.5, 1.0, 2.0)


def _free_axes(d):
    return [a for a in range(1, d.n + 1) if a not in d.deleted]


def _overshear(rng, n, axis, f_constant=True, f_zero=False, force=False):
    f = hg.Poly.zero(n) if f_zero else _poly(rng, n, axis, 2, 2, 0.3, 1.0, f_constant)
    if force and f.is_zero:
        f = _poly(rng, n, axis, 2, 1, 0.3, 1.0, f_constant)
    return hg.Overshear(axis, f, _poly(rng, n, axis, 1, 2, 0.05, 0.3))


def _block_permutation(rng, d):
    """Permutation that maps the deleted set onto itself."""
    perm = list(range(1, d.n + 1))
    for block in (sorted(d.deleted), _free_axes(d)):
        for src, dst in zip(block, rng.permutation(block)):
            perm[src - 1] = int(dst)
    return hg.Permutation(tuple(perm))


def _preserving_step(rng, d, pick: int, allow_permutation=True):
    """A generator that maps the domain bijectively onto itself; `pick`
    chooses its kind, the rng its data."""
    n = d.n
    if isinstance(d, hg.Punctured):
        kind = pick % (4 if allow_permutation else 3)
        if kind == 0:
            return _diagonal(rng, n)
        if kind == 1:
            return _unitary(rng, n)
        if kind == 2:
            return _overshear(rng, n, int(rng.integers(1, n + 1)), f_constant=False)
        return hg.Permutation(tuple(int(p) + 1 for p in rng.permutation(n)))
    kinds = ["diagonal", "inversion", "multiplier"]
    if _free_axes(d):
        kinds.append("overshear")
    if allow_permutation:
        kinds.append("permutation")
    kind = kinds[pick % len(kinds)]
    deleted = sorted(d.deleted)
    if kind == "diagonal":
        return _diagonal(rng, n)
    if kind == "inversion":
        return hg.Inversion(int(rng.choice(deleted)))
    if kind == "multiplier":
        return _overshear(rng, n, int(rng.choice(deleted)), f_zero=True)
    if kind == "overshear":
        return _overshear(rng, n, int(rng.choice(_free_axes(d))))
    return _block_permutation(rng, d)


def _escape_step(rng, d, pick: int):
    """A generator that sends some point of the domain out of it; `pick`
    chooses its kind, the rng its data."""
    n = d.n
    if isinstance(d, hg.Punctured):
        if pick % 2:
            return hg.Inversion(int(rng.integers(1, n + 1)))
        axis = int(rng.integers(1, n + 1))
        f = _poly(rng, n, axis, 2, 2, 0.3, 1.0)
        f = hg.Poly(n, {**f.terms, (0,) * n: _scalar(rng, 0.3, 1.0)})
        return hg.Overshear(axis, f, _poly(rng, n, axis, 1, 2, 0.05, 0.3))
    free, deleted = _free_axes(d), sorted(d.deleted)
    kind = pick % (3 if free else 1)
    if kind == 0:
        return _overshear(rng, n, int(rng.choice(deleted)), force=True)
    if kind == 1:
        return hg.Inversion(int(rng.choice(free)))
    j, s = int(rng.choice(free)), int(rng.choice(deleted))
    perm = list(range(1, n + 1))
    perm[j - 1], perm[s - 1] = s, j
    return hg.Permutation(tuple(perm))


# the points at which hologroup.domains' structural pass solves for escapes
FILLERS = (1.0 + 0.0j, 1.3 + 0.0j, 0.7 + 0.4j, -0.9 + 0.6j)


def _escape_points(step, d):
    """Points the escape step sends out of d, solved as the structural pass solves them."""
    n = d.n

    def at_zero(axis, filler):
        z = np.full(n, filler, dtype=np.complex128)
        z[axis - 1] = 0.0
        return z

    if isinstance(step, hg.Inversion):
        return [at_zero(step.axis, c) for c in FILLERS]
    if isinstance(step, hg.Permutation):
        free = [j for j, img in enumerate(step.perm, start=1)
                if j not in d.deleted and img in d.deleted]
        return [at_zero(free[0], c) for c in FILLERS]
    if isinstance(d, hg.Punctured):  # the preimage of the origin
        z = np.zeros(n, dtype=np.complex128)
        z[step.axis - 1] = -step.f.constant_term * np.exp(-step.g.constant_term)
        return [z]
    out = []
    for c in FILLERS:  # solve f(z') + exp(g(z')) z_axis = 0
        z = np.full(n, c, dtype=np.complex128)
        z[step.axis - 1] = -step.f(z) * np.exp(-step.g(z))
        out.append(z)
    return out


def _escapes_exactly(w, d, z) -> bool:
    """z lies in d and floating-point evaluation of w sends it exactly out of d."""
    if not domains.contains(d, z):
        return False
    try:
        return not domains.contains(d, words.eval_word(w, z))
    except hg.SingularPoint:
        return True


def _escape_family(w, d, step, position: int) -> str:
    """`preserves-escape` when a solved escape point, pulled back through
    the steps before the escape step, still leaves d exactly in floating
    point, so that the structural pass must find it; otherwise rounding
    hides every solved witness (`preserves-escape-rounded`)."""
    prefix = hg.Word(d.n, w.steps[:position])
    pulls = [(prefix, local) for local in _escape_points(step, d)]
    if isinstance(d, hg.Punctured) and not any(isinstance(s, hg.Inversion) for s in w.steps):
        pulls.append((w, np.zeros(d.n, dtype=np.complex128)))  # the preimage of 0
    cands = []
    for word, local in pulls:
        try:
            cands.append(words.eval_word(words.invert_word(word), local))
        except (hg.SingularPoint, hg.NonInvertibleStep):
            pass
    exact = any(_escapes_exactly(w, d, z) for z in cands)
    return "preserves-escape" if exact else "preserves-escape-rounded"


def _winding_item(family, w, contour, want, tolerated=frozenset()) -> Item:
    def check(res):
        if not _finite(res.raw):
            return NON_FINITE
        return None if res.index == want else WRONG

    return Item(family, lambda: winding.winding_index(w, contour), check,
                lambda res: replace(res, index=-res.index), tolerated=tolerated)


def _spin_word(rng, a_abs: float) -> hg.Word:
    """Axis-2 shear by a quartic in z1, then z1 -> exp(a z2) z1.

    On the circle |z1| = R the output z1 * exp(a (1 + f(z1))) winds once
    (the exponential contributes no net turn), but for large |a| its
    argument spins many times between the 64 start samples.
    """
    f = hg.Poly(2, {(k, 0): _scalar(rng, 0.0, 2.0) for k in range(5)})
    g = hg.Poly(2, {(0, 1): a_abs * _phase(rng)})
    return hg.Word(2, (hg.Overshear(2, f, hg.Poly.zero(2)),
                       hg.Overshear(1, hg.Poly.zero(2), g)))


def _spin_failures(w: hg.Word, contour) -> frozenset:
    """Failures the tracker's documented algorithm (winding.winding_index:
    INITIAL_SAMPLES start samples, bisection while an increment reaches
    REFINE_ANGLE, refusal below ZERO_TOL) gives on a spin word with the
    contour base point (1, 1), run here on the closed form of the output.

    Both outcomes are tolerated where a decision sits within rounding of
    its threshold, because the library evaluates the word differently.
    """
    f, a = w.steps[0].f, w.steps[1].g.terms[(0, 1)]
    r = contour.R

    def profile(thetas):
        z1 = r * np.exp(1j * thetas)
        fz = _poly_values(f, np.stack([z1, np.ones_like(z1)], axis=1))
        return z1 * np.exp(a * (fz + 1.0))

    near = (lambda x, t: np.any(np.abs(np.abs(x) - t) <= 1e-6 * t))
    thetas = np.linspace(0.0, 2.0 * np.pi, winding.INITIAL_SAMPLES + 1)
    values = profile(thetas)
    values[-1] = values[0]
    floor = np.min(np.abs(values))
    while True:
        inc = np.angle(values[1:] / values[:-1])
        borderline = near(inc, winding.REFINE_ANGLE)
        coarse = np.flatnonzero(np.abs(inc) >= winding.REFINE_ANGLE)
        if borderline or coarse.size == 0 or len(thetas) > winding.MAX_SAMPLES:
            break
        mids = 0.5 * (thetas[coarse] + thetas[coarse + 1])
        thetas = np.insert(thetas, coarse + 1, mids)
        new = profile(mids)
        floor = min(floor, float(np.min(np.abs(new))))
        values = np.insert(values, coarse + 1, new)
    out = set()
    if floor < winding.ZERO_TOL * (1.0 + 1e-6):
        out.add(ZERO_ON_CONTOUR)
    if borderline or round(float(np.sum(inc)) / (2.0 * np.pi)) != 1:
        out.add(WRONG)
    if borderline:
        out.add(ZERO_ON_CONTOUR)
    return frozenset(out)


def winding_items(rng, count: int) -> list:
    items, picks = [], itertools.count()
    for i in range(count):
        d = COMPLEMENTS[i % len(COMPLEMENTS)]
        axis = int(rng.choice(sorted(d.deleted)))
        steps = tuple(_preserving_step(rng, d, next(picks), allow_permutation=False)
                      for _ in range(1 + (i // 3) % 4))
        flips = sum(isinstance(s, hg.Inversion) and s.axis == axis for s in steps)
        p = tuple(_scalar(rng, 0.5, 1.5) for _ in range(d.n))
        contour = winding.make_contour(d, axis, p, WINDING_RADII[i % len(WINDING_RADII)])
        items.append(_winding_item("winding-word", hg.Word(d.n, steps), contour,
                                   (-1) ** flips))
    spin_contour = winding.make_contour(COMPLEMENTS[0], 1, (1.0, 1.0), 1.0)
    for family, a_abs, share in (("spin5", 5.0, 3), ("spin10", 10.0, 10)):
        for _ in range(count // share):
            w = _spin_word(rng, a_abs)
            items.append(_winding_item(family, w, spin_contour, 1,
                                       _spin_failures(w, spin_contour)))
    return items


def _torus_items(rng, count: int) -> list:
    items = []
    all_domains = COMPLEMENTS + PUNCTURED
    for i in range(count):
        d = all_domains[i % len(all_domains)]
        seed = int(rng.integers(2 ** 31))
        if i % 3 == 2:
            # one step that breaks commutation, between diagonal steps
            if isinstance(d, hg.Punctured):
                bad = _overshear(rng, d.n, int(rng.integers(1, d.n + 1)),
                                 f_constant=False, force=True)
            else:
                bad = _overshear(rng, d.n, int(rng.choice(_free_axes(d))), force=True)
            w = hg.Word(d.n, (_diagonal(rng, d.n), bad, _diagonal(rng, d.n)))

            def check(v):
                wit = v.witness
                if wit is None:
                    return WRONG
                if not _finite(wit.deviation):
                    return NON_FINITE
                return None if not v.commutes and wit.deviation > WITNESS_MIN_DEVIATION \
                    else WRONG

            items.append(Item("torus-offender",
                              lambda w=w, d=d, s=seed: torus.commutes_with_torus(w, d, s),
                              check))
            continue
        steps = tuple(_diagonal(rng, d.n) for _ in range(1 + (i // 5) % 3))
        lam = np.prod([s.lam for s in steps], axis=0)

        def run(w=hg.Word(d.n, steps), d=d, s=seed):
            return torus.commutes_with_torus(w, d, s), torus.extract_diagonal(w, d, s)

        def check(result, lam=lam):
            verdict, got = result
            if not _finite(got):
                return NON_FINITE
            return None if verdict.commutes and _close(got, lam) else WRONG

        def plant(result):
            verdict, got = result
            return verdict, got * (1.0 + 1e-6)

        items.append(Item("torus-diagonal", run, check, plant))
    return items


def _preserves_items(rng, count: int) -> list:
    items, picks = [], itertools.count()
    all_domains = COMPLEMENTS + PUNCTURED
    for i in range(count):
        d = all_domains[i % len(all_domains)]
        seed = int(rng.integers(2 ** 31))
        steps = [_preserving_step(rng, d, next(picks)) for _ in range(1 + (i // 5) % 3)]
        escapes = i % 2 == 1
        family = "preserves-keep"
        if escapes:
            position, step = (i // 2) % (len(steps) + 1), _escape_step(rng, d, i // 2)
            steps.insert(position, step)
        w = hg.Word(d.n, tuple(steps))
        if escapes:
            family = _escape_family(w, d, step, position)

        def check(v, d=d, want=not escapes):
            if v.preserves != want:
                return WRONG
            if want:
                return None
            if not _finite(v.witness):
                return NON_FINITE
            return None if domains.contains(d, v.witness) else WRONG

        items.append(Item(family,
                          lambda w=w, d=d, s=seed: domains.word_preserves_domain(w, d, s),
                          check,
                          lambda v: replace(v, preserves=not v.preserves),
                          tolerated=frozenset({WRONG}) if family.endswith("-rounded")
                          else frozenset()))
    return items


def verdicts_items(rng, small: bool) -> list:
    count = 12 if small else 480
    lists = [winding_items(rng, count), _torus_items(rng, count), _preserves_items(rng, count)]
    # cycle through the three operations
    out = []
    for k in range(max(len(x) for x in lists)):
        out.extend(x[k] for x in lists if k < len(x))
    return out


# ---------------------------------------------------------------------------
# cli: one `python -m hologroup` process per verdict on scenes/demo.json

DEMO_WORDS = {
    "id": {"n": 2, "steps": []},
    "inv1": {"n": 2, "steps": [{"type": "inversion", "axis": 1}]},
    "diag": {"n": 2, "steps": [{"type": "diagonal", "lambda": [[2.0, 0.0], [0.0, 3.0]]}]},
    "shear": {"n": 2, "steps": [
        {"type": "overshear", "axis": 2,
         "f": [{"exponents": [1, 0], "re": 1.0, "im": 0.0}], "g": []}]},
    "swap": {"n": 2, "steps": [{"type": "permutation", "perm": [2, 1]}]},
}
# per word: image, det, inverse steps, winding index on c0, and whether
# it preserves C^2 minus {z1 = 0}
DEMO = {
    "id": (lambda z: z, lambda z: 1.0, [], 1, True),
    "inv1": (lambda z: np.array([1 / z[0], z[1]]), lambda z: -1 / z[0] ** 2,
             [{"type": "inversion", "axis": 1}], -1, True),
    "diag": (lambda z: np.array([2 * z[0], 3j * z[1]]), lambda z: 6j,
             [{"type": "diagonal", "lambda": [[0.5, 0.0], [0.0, -1 / 3]]}], 1, True),
    "shear": (lambda z: np.array([z[0], z[1] + z[0]]), lambda z: 1.0,
              [{"type": "overshear", "axis": 2,
                "f": [{"exponents": [1, 0], "re": -1.0, "im": 0.0}], "g": []}], 1, True),
    "swap": (lambda z: z[::-1], lambda z: -1.0,
             [{"type": "permutation", "perm": [2, 1]}], 0, False),
}
DEMO_DIAGONAL = {"id": [1.0, 1.0], "diag": [2.0, 3j]}
DEMO_PATHS = {
    "shear_path": hg.OvershearPath(hg.Overshear(2, hg.Poly.coordinate(2, 1), hg.Poly.zero(2)), 2),
    "swap_path": hg.TranspositionPath(1, 2, 2, hg.SIN_BUMP),
}


def _same(got, want) -> bool:
    """Equality by value, numbers to a relative tolerance."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _same(g, w) for g, w in zip(got, want))
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        return isinstance(got, (int, float)) and not isinstance(got, bool) \
            and _close(got, want)
    return got == want


def _pairs(v) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(v, dtype=np.complex128)]


def _point_arg(z) -> str:
    return ";".join(f"{c.real:.6f},{c.imag:.6f}" for c in z)


def _cli_case(rng, cmd: str):
    """(argv after the scene, expected exit code, check of the document)."""
    name = str(rng.choice(sorted(DEMO)))
    image, det, inverse, index, keeps = DEMO[name]
    seed = str(int(rng.integers(0, 10 ** 6)))
    if cmd in ("eval", "jacobian"):
        z = np.round(np.array([_scalar(rng, 0.5, 1.5) for _ in range(2)]), 6)
        if cmd == "eval":
            want = {"image": _pairs(image(z))}
        else:
            want = {"det": _pairs([det(z)])[0]}
        return ["--word", name, "--point=" + _point_arg(z)], 0, lambda doc: _same(doc, want)
    if cmd == "compose":
        other = str(rng.choice(sorted(DEMO)))
        want = {"n": 2, "steps": DEMO_WORDS[name]["steps"] + DEMO_WORDS[other]["steps"]}
        return ["--word", name, "--word", other], 0, lambda doc: _same(doc, want)
    if cmd == "invert":
        return ["--word", name], 0, lambda doc: _same(doc, {"n": 2, "steps": inverse})
    if cmd == "winding-index":
        return (["--word", name, "--contour", "c0"], 0,
                lambda doc: doc["index"] == index and abs(doc["raw"] - index) < 1e-6
                and doc["samples"] >= winding.INITIAL_SAMPLES)
    if cmd == "negative-component":
        return (["--word", name, "--contour", "c0"], 0,
                lambda doc: _same(doc, {"in_negative_component": index < 0}))
    if cmd in ("homotopy-certify", "continuity"):
        path_name = "swap_path" if cmd == "continuity" else "shear_path"
        path = DEMO_PATHS[path_name]
        if cmd == "continuity":
            dt = CONTINUITY_DT  # one cost for every seed
            want = continuity_reference(path, dt, SAMPLE_RADIUS, int(seed))
            return (["--path", path_name, "--t", repr(dt), "--seed", seed], 0,
                    lambda doc: doc["dt"] == dt and _close(doc["modulus"], want))
        min_det = min_det_reference(path, CERTIFY_GRID, SAMPLE_RADIUS, int(seed))
        return (["--path", path_name, "--seed", seed], 0,
                lambda doc: doc["endpoint_err0"] < ENDPOINT_TOL
                and doc["endpoint_err1"] < ENDPOINT_TOL and doc["min_abs_det"] > 0
                and doc["max_inverse_residual"] < RESIDUAL_TOL
                and _close(doc["min_abs_det"], min_det))
    if cmd == "centralizer":
        if not keeps:
            return ["--word", name, "--seed", seed], 2, \
                lambda doc: doc["error"] == "DomainNotPreserved"
        if name in DEMO_DIAGONAL:
            return ["--word", name, "--seed", seed], 0, \
                lambda doc: _same(doc, {"commutes": True, "witness": None})
        return ["--word", name, "--seed", seed], 0, \
            lambda doc: doc["commutes"] is False \
            and doc["witness"]["deviation"] > WITNESS_MIN_DEVIATION
    if cmd == "extract-diagonal":
        if name in DEMO_DIAGONAL:
            want = {"lambda": _pairs(DEMO_DIAGONAL[name])}
            return ["--word", name, "--seed", seed], 0, lambda doc: _same(doc, want)
        return ["--word", name, "--seed", seed], 2, lambda doc: doc["error"] == "NotDiagonal"
    if cmd == "classify":
        return [], 0, lambda doc: _same(doc, {"kind": "complement", "is_stein": True})
    if cmd == "preserves":
        def check(doc):
            if keeps:
                return _same(doc, {"preserves": True, "witness": None})
            z = np.array([complex(*c) for c in doc["witness"]])
            # in C^2 minus {z1 = 0}, and its image is not
            return doc["preserves"] is False and z[0] != 0 and image(z)[0] == 0
        return ["--word", name, "--seed", seed], 0, check
    if cmd == "validate-exponents":
        matrix = str(rng.choice(["m_id", "m_shear", "m_bad"]))
        if matrix == "m_bad":
            return ["--matrix", matrix], 2, \
                lambda doc: _same(doc, {"error": "NotUnimodular", "det": 2})
        return ["--matrix", matrix], 0, lambda doc: _same(doc, {"det": 1})
    raise ValueError(f"no reference for subcommand {cmd!r}")


CLI_COMMANDS = ("eval", "compose", "invert", "jacobian", "winding-index",
                "negative-component", "homotopy-certify", "continuity",
                "centralizer", "extract-diagonal", "classify", "preserves",
                "validate-exponents")


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_process(root: str, argv: list) -> tuple:
    done = subprocess.run([sys.executable, "-m", "hologroup", *argv], cwd=root,
                          env=cli_env(root), capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout


def cli_peak_rss_mb(root: str, argvs: list) -> float:
    """Largest peak resident set of CLI processes running argvs (see peak_rss.py)."""
    launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "peak_rss.py")
    done = subprocess.run([sys.executable, "-S", launcher, json.dumps(argvs)], cwd=root,
                          env=cli_env(root), capture_output=True, text=True, timeout=170,
                          check=True)
    return float(done.stdout)


def run_cli_inprocess(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_check(want_code, judge):
    def check(result):
        code, stdout = result
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return WRONG
        if code == want_code:
            try:
                return None if judge(doc) else WRONG
            except (KeyError, TypeError, ValueError):
                return WRONG
        return REFUSED if code == 2 and isinstance(doc, dict) and "error" in doc else WRONG
    return check


def _perturb(doc):
    """The document with its first value changed."""
    if isinstance(doc, bool):
        return not doc
    if isinstance(doc, (int, float)):
        return doc + 1
    if isinstance(doc, str):
        return doc + "?"
    items = list(doc.items()) if isinstance(doc, dict) else list(enumerate(doc or []))
    for key, value in items:
        if value is not None:
            changed = _perturb(value)
            if changed != value:
                doc = dict(doc) if isinstance(doc, dict) else list(doc)
                doc[key] = changed
                return doc
    return doc


def cli_items(rng, root: str) -> list:
    scene = os.path.join(root, "scenes", "demo.json")
    with open(scene, encoding="utf-8") as fh:
        if json.load(fh)["words"] != DEMO_WORDS:
            raise SystemExit("scenes/demo.json no longer holds the words the "
                             "cli references were built for")
    # one pass is one call of every subcommand, so a run holds several passes
    items = []
    for cmd in CLI_COMMANDS:
        args, code, judge = _cli_case(rng, cmd)
        argv = [cmd, "--scene", scene, *args]
        items.append(Item(cmd, lambda argv=argv: run_cli_process(root, argv),
                          _cli_check(code, judge),
                          lambda r: (r[0], json.dumps(_perturb(json.loads(r[1])))),
                          argv))
    return items


def build(workload: str, seed: int, root: str, small: bool = False) -> list:
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    if workload == "paths":
        return paths_items(rng, small)
    if workload == "sweep":
        return sweep_items(rng, small)
    if workload == "verdicts":
        return verdicts_items(rng, small)
    if workload == "cli":
        return cli_items(rng, root)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("paths", "sweep", "verdicts", "cli")
