"""The hot numeric kernel: batched multivariate polynomial evaluation.

It sits inside every overshear step and is hit thousands of times by
contour refinement and certification grids.

Monomials are built along a tree (Carnicer & Gasca, "Evaluation of
multivariate polynomials and their derivatives", Math. Comp. 54, 1990):
the parent of a monomial is the monomial with its last nonzero exponent
lowered by one, so each monomial costs one complex multiply of its
parent by one coordinate column. The plan lists, in lexicographic order
of exponents (a parent precedes its children), each needed monomial's
parent, the coordinate it multiplies, the table rows it serves and the
monomials that can be dropped once it is built. It depends only on the
exponent table and is cached on the table's shape and bytes. In that
order the descendants of a monomial are contiguous, so dropping each
monomial after its last child keeps O(P * degree) values alive, not
O(P * terms). A coordinate that more than one monomial multiplies by is
read as a contiguous column: as it comes when the batch is column-major,
as the word pass keeps it, else from one copy per call.

`coeffs` is (T,), giving (P,), or (T, R), giving (R, P): R polynomials
over one exponent table, as for an overshear's f and g. Terms are added
in lexicographic order through one reused temporary, and a zero
coefficient is skipped in its column, so column r equals a call with
coeffs[:, r] alone bit for bit, and a term absent from f never adds
0 * inf to f.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np


def _parent(e: tuple) -> tuple:
    v = max(i for i, x in enumerate(e) if x)
    return e[:v] + (e[v] - 1,) + e[v + 1:], v


@lru_cache(maxsize=1024)
def _plan(shape: tuple, raw: bytes) -> tuple:
    """(constant rows, used, steps) for a (T, V) int64 exponent table.
    `used` lists (coordinate, whether more than one step multiplies by
    it); step k is (parent step or -1, position of its coordinate in
    `used`, rows, steps to drop after step k)."""
    exps = np.frombuffer(raw, dtype=np.int64).reshape(shape)
    if exps.size and exps.min() < 0:
        raise ValueError("negative exponent in the exponent table")
    rows = {}
    for t, e in enumerate(map(tuple, exps.tolist())):
        rows.setdefault(e, []).append(t)
    needed = set()
    for e in rows:
        while any(e) and e not in needed:
            needed.add(e)
            e = _parent(e)[0]
    order = sorted(needed)
    index = {e: k for k, e in enumerate(order)}
    links = [(index.get(p, -1), v) for p, v in map(_parent, order)]
    reads = Counter(v for _, v in links)
    used = sorted(reads)
    position = {v: i for i, v in enumerate(used)}
    last = list(range(len(order)))
    for k, (parent, _) in enumerate(links):
        if parent >= 0:
            last[parent] = k
    drops = [[] for _ in order]
    for k, d in enumerate(last):
        drops[d].append(k)
    steps = tuple((parent, position[v], tuple(rows.get(e, ())), tuple(drop))
                  for e, (parent, v), drop in zip(order, links, drops))
    return (tuple(rows.get((0,) * shape[1], ())),
            tuple((v, reads[v] > 1) for v in used), steps)


def _plan_of(exps: np.ndarray) -> tuple:
    exps = np.ascontiguousarray(exps, dtype=np.int64)
    return _plan(exps.shape, exps.tobytes())


def _monomials(used: tuple, steps: tuple, pts: np.ndarray):
    """Yield (rows, values at pts) for each non-constant monomial that is a
    term, in plan order, each built from its parent."""
    cols = [np.ascontiguousarray(pts[:, v]) if shared else pts[:, v] for v, shared in used]
    values = [None] * len(steps)
    for k, (parent, v, rows, drop) in enumerate(steps):
        m = cols[v] if parent < 0 else values[parent] * cols[v]
        values[k] = m
        for d in drop:
            values[d] = None
        if rows:
            yield rows, m


def poly_eval(exps: np.ndarray, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate sum_t coeffs[t] * prod_v pts[:, v]**exps[t, v].

    exps: (T, V) int64, coeffs: (T,) or (T, R) complex128, pts: (P, V)
    complex128. Returns (P,), or (R, P) with one row per column of coeffs.
    """
    const, used, steps = _plan_of(exps)
    cs = coeffs.tolist() if coeffs.ndim == 2 else [[c] for c in coeffs.tolist()]
    out = np.zeros((coeffs.shape[1] if coeffs.ndim == 2 else 1, pts.shape[0]),
                   dtype=np.complex128)
    rows_out = list(out)
    for t in const:
        for o, c in zip(rows_out, cs[t]):
            if c:
                o += c
    tmp = np.empty(pts.shape[0], dtype=np.complex128)
    for rows, m in _monomials(used, steps, pts):
        for t in rows:
            for o, c in zip(rows_out, cs[t]):
                if c:
                    np.multiply(c, m, out=tmp)
                    o += tmp
    return out if coeffs.ndim == 2 else out[0]


def scaled_poly_evaluator(exps: np.ndarray, coeffs: np.ndarray, pts: np.ndarray):
    """Return scales -> (S, P) values at `pts` of the polynomials whose
    coefficients are scales[i] * coeffs.

    Row i equals poly_eval on those coefficients bit for bit wherever
    the monomials are finite: the monomials come from the same builder,
    each term is its scaled coefficient times its monomial, and the
    terms are added in the same order. The monomials depend only on
    `pts` and are built once, here.
    """
    const, used, steps = _plan_of(exps)
    terms = [(t, None) for t in const]
    terms += [(t, m) for rows, m in _monomials(used, steps, pts) for t in rows]

    def evaluate(scales: np.ndarray) -> np.ndarray:
        out = np.zeros((scales.shape[0], pts.shape[0]), dtype=np.complex128)
        tmp = np.empty_like(out)
        for t, m in terms:
            scaled = (scales * coeffs[t])[:, None]
            if m is None:
                out += scaled
            else:
                np.multiply(scaled, m, out=tmp)
                out += tmp
        return out
    return evaluate
