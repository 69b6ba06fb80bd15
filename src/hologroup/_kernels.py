"""The hot numeric kernel: batched multivariate polynomial evaluation.

It sits inside every overshear step and is hit thousands of times by
contour refinement and certification grids.

Monomials are built along a tree (Carnicer & Gasca, "Evaluation of
multivariate polynomials and their derivatives", Math. Comp. 54, 1990):
the parent of a monomial is the monomial with its last nonzero exponent
lowered by one, so each monomial costs one complex multiply of its
parent by one coordinate column. The plan lists, in lexicographic order
of exponents (a parent precedes its children), each needed monomial's
parent, the coordinate it multiplies, the table rows it serves, the
monomials that can be dropped once it is built, and its slot. It depends
only on the exponent table and is cached on the table's shape and bytes.
In that order the descendants of a monomial are contiguous, so a slot
freed when its monomial is dropped after its last child is soon taken
again: poly_eval builds every monomial in one (slots + 1, P) array, the
last row the temporary through which the terms are added, and `slots`
stays near the degree, not the number of terms (4 for all 84
monomials of degree <= 6 in 3 variables). A monomial never takes the
slot of its parent, which it is the product of. The caller may hand
that array in as `work`, and the (R, P) values as `out`, so that a word
pass allocates neither per step. A coordinate that more than one
monomial multiplies by is read as a contiguous column: as it comes when
the batch is column-major, as the word pass keeps it, else from one
copy per call.

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
    """(constant rows, used, steps, slots) for a (T, V) int64 exponent
    table. `used` lists (coordinate, whether more than one step multiplies
    by it); step k is (parent step or -1, position of its coordinate in
    `used`, rows, steps to drop after step k, slot of its values or -1
    for a coordinate read as it is); `slots` is how many slots the steps
    use."""
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
    # a monomial's slot is free again once it is dropped; its parent is
    # dropped only after it is built, so it never writes its parent's slot
    slot, free, slots = [-1] * len(order), [], 0
    for k, (parent, _) in enumerate(links):
        if parent >= 0:
            if free:
                slot[k] = free.pop()
            else:
                slot[k], slots = slots, slots + 1
        free.extend(slot[d] for d in drops[k] if slot[d] >= 0)
    steps = tuple((parent, position[v], tuple(rows.get(e, ())), tuple(drop), s)
                  for e, (parent, v), drop, s in zip(order, links, drops, slot))
    return (tuple(rows.get((0,) * shape[1], ())),
            tuple((v, reads[v] > 1) for v in used), steps, slots)


def _plan_of(exps: np.ndarray) -> tuple:
    exps = np.ascontiguousarray(exps, dtype=np.int64)
    return _plan(exps.shape, exps.tobytes())


def _monomials(used: tuple, steps: tuple, pts: np.ndarray, work=None):
    """Yield (rows, values at pts) for each non-constant monomial that is a
    term, in plan order, each built from its parent: into its slot's row
    of `work`, where its values last until the next monomial is built, or
    without `work` into a new array."""
    cols = [np.ascontiguousarray(pts[:, v]) if shared else pts[:, v] for v, shared in used]
    values = [None] * len(steps)
    for k, (parent, v, rows, drop, slot) in enumerate(steps):
        if parent < 0:
            m = cols[v]
        elif work is None:
            m = values[parent] * cols[v]
        else:
            m = np.multiply(values[parent], cols[v], out=work[slot])
        values[k] = m
        for d in drop:
            values[d] = None
        if rows:
            yield rows, m


def work_rows(exps: np.ndarray) -> int:
    """How many rows of P values poly_eval builds its monomials in."""
    return _plan_of(exps)[3] + 1


def poly_eval(exps: np.ndarray, coeffs: np.ndarray, pts: np.ndarray,
              out: np.ndarray = None, work: np.ndarray = None) -> np.ndarray:
    """Evaluate sum_t coeffs[t] * prod_v pts[:, v]**exps[t, v].

    exps: (T, V) int64, coeffs: (T,) or (T, R) complex128, pts: (P, V)
    complex128. Returns (P,), or (R, P) with one row per column of coeffs,
    written into `out` when it is given (a complex128 array of that shape).
    `work`, when given, is a complex128 array of at least work_rows(exps)
    rows of P values that the monomials are built in. Neither may share
    memory with pts or with each other.
    """
    const, used, steps, slots = _plan_of(exps)
    cs = coeffs.tolist() if coeffs.ndim == 2 else [[c] for c in coeffs.tolist()]
    shape = (coeffs.shape[1], pts.shape[0]) if coeffs.ndim == 2 else (pts.shape[0],)
    if out is None:
        out = np.zeros(shape, dtype=np.complex128)
    else:
        out.fill(0)
    rows_out = list(out) if coeffs.ndim == 2 else [out]
    for t in const:
        for o, c in zip(rows_out, cs[t]):
            if c:
                o += c
    # the monomials in their slots, and one temporary for the terms
    if work is None:
        work = np.empty((slots + 1, pts.shape[0]), dtype=np.complex128)
    tmp = work[slots]
    for rows, m in _monomials(used, steps, pts, work):
        for t in rows:
            for o, c in zip(rows_out, cs[t]):
                if c:
                    np.multiply(c, m, out=tmp)
                    o += tmp
    return out


def scaled_poly_evaluator(exps: np.ndarray, coeffs: np.ndarray, pts: np.ndarray):
    """Return scales -> (S, P) values at `pts` of the polynomials whose
    coefficients are scales[i] * coeffs.

    Row i equals poly_eval on those coefficients bit for bit wherever
    the monomials are finite: the monomials come from the same builder,
    each term is its scaled coefficient times its monomial, and the
    terms are added in the same order. The monomials depend only on
    `pts` and are built once, here.
    """
    const, used, steps, _ = _plan_of(exps)
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
