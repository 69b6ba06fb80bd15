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
only on the exponent table, and the table's owner keeps it: an overshear
its f and g's, a Poly its terms', each built on first use and handed in
as `plan`. A call without one builds the plan for that call alone; the
kernel keeps no cache. In the plan's order the descendants of a monomial
are contiguous, so a slot freed when its monomial is dropped after its
last child is soon taken again: poly_eval builds every monomial in one
(slots + 1, P) array, the last row the temporary through which the terms
are added, and `slots` stays near the degree, not the number of terms (4
for all 84 monomials of degree <= 6 in 3 variables). A monomial never
takes the slot of its parent, which it is the product of. The caller may
hand that array in as `work`, and the (R, P) values as `out`, so that a
word pass allocates neither per step. Coordinates are read as they come,
contiguous in the word pass's column-major batch.

`coeffs` is (T,), giving (P,), or (T, R), giving (R, P): R polynomials
over one exponent table, as for an overshear's f and g. Terms are added
in lexicographic order through one reused temporary, and a zero
coefficient is skipped in its column, so column r equals a call with
coeffs[:, r] alone bit for bit, and a term absent from f never adds
0 * inf to f.
"""

from __future__ import annotations

import numpy as np


def _parent(e: tuple) -> tuple:
    v = max(i for i, x in enumerate(e) if x)
    return e[:v] + (e[v] - 1,) + e[v + 1:], v


def build_plan(exps: np.ndarray) -> tuple:
    """(constant rows, steps, slots) for a (T, V) integer exponent table.
    Step k is (parent step or -1, the coordinate it multiplies by, rows,
    steps to drop after step k, slot of its values or -1 for a coordinate
    read as it is); `slots` is how many slots the steps use, and poly_eval
    builds the monomials in slots + 1 rows."""
    exps = np.asarray(exps, dtype=np.int64)
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
    steps = tuple((parent, v, tuple(rows.get(e, ())), tuple(drop), s)
                  for e, (parent, v), drop, s in zip(order, links, drops, slot))
    return tuple(rows.get((0,) * exps.shape[1], ())), steps, slots


def poly_eval(exps: np.ndarray, coeffs: np.ndarray, pts: np.ndarray,
              out: np.ndarray = None, work: np.ndarray = None,
              plan: tuple = None) -> np.ndarray:
    """Evaluate sum_t coeffs[t] * prod_v pts[:, v]**exps[t, v].

    exps: (T, V) int64, coeffs: (T,) or (T, R) complex128, pts: (P, V)
    complex128. Returns (P,), or (R, P) with one row per column of coeffs,
    written into `out` when it is given (a complex128 array of that shape).
    `work`, when given, is a complex128 array of at least slots + 1 rows
    of P values that the monomials are built in. Neither may share memory
    with pts or with each other. `plan`, when given, is the owner's
    `build_plan(exps)`; without it the plan is built for this call.
    """
    const, steps, slots = build_plan(exps) if plan is None else plan
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
    values = [None] * len(steps)
    for k, (parent, v, rows, _, slot) in enumerate(steps):
        if parent < 0:
            m = pts[:, v]
        else:
            m = np.multiply(values[parent], pts[:, v], out=work[slot])
        values[k] = m
        for t in rows:
            for o, c in zip(rows_out, cs[t]):
                if c:
                    np.multiply(c, m, out=tmp)
                    o += tmp
    return out
