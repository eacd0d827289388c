"""Open cylindrical algebraic decomposition of the plane.

Given a set of curves, the base line is cut at the roots of the projection
polynomials (discriminants, leading coefficients, pairwise resultants,
vertical-line contents) and each resulting open interval is lifted through
the real roots of the specialized curve product.  `projection_set` gives
the normalized curves, the same made pairwise coprime (its parts) and
their projection, whose polynomials are squarefree.  A `Decomposition`
keeps the parts' integer rows (`int_rows`, bound at a point by integer
Horner, `bind`).  The base product is the integer lcm of the projection
(`_lcm`).  Off its roots the projection proves every bound part squarefree
and coprime to the others (Collins 1975; McCallum 1988), so a column's
fibre product is their plain product and `roots_at` and `locate` ask the
bound parts one by one: `roots_at` isolates each alone and orders the
lists by `RootMerge`s, and `locate` adds up per-part root counts, so no
two curves' roots are bisected apart inside one product.  Only
full-dimensional cells are produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .ratpoly import (
    MPoly, UPoly,
    squarefree_total, exact_div, mgcd, resultant, discriminant,
    int_poly_gcd, _poly_mul, _poly_quo,
)
from .realroots import (
    NEG_INF, POS_INF, IsolatingInterval, RealRootError, RootMerge,
    isolate_squarefree, count_roots, roots_below, sample_between, sign_at, _horner,
)


class CadError(Exception):
    pass


@dataclass(frozen=True)
class Cell2D:
    """Open cylindrical cell: base interval k1 lifted to fiber interval k2.

    The cell lies between the k1-th and (k1+1)-th real roots of the base
    product (`Decomposition.base_poly`) and, over them, between the k2-th
    and (k2+1)-th real roots of the curve product specialized at the base
    sample (`Decomposition.fiber_products[k1]`); index 0 is unbounded below.
    """

    id: int
    base_index: int
    fiber_index: int
    sample: tuple[Fraction, Fraction]

    def to_json(self, base_poly: str, fiber_poly: str) -> dict:
        """The cell with the texts of its base and fiber products."""
        def frac(q: Fraction) -> str:
            return f"{q.numerator}/{q.denominator}"

        return {
            "id": self.id,
            "base": {"poly": base_poly, "left_index": self.base_index,
                     "right_index": self.base_index + 1},
            "fiber": {"poly": fiber_poly, "left_index": self.fiber_index,
                      "right_index": self.fiber_index + 1},
            "sample": [frac(self.sample[0]), frac(self.sample[1])],
        }


@dataclass
class Decomposition:
    base_var: str
    fiber_var: str
    polys: list[MPoly]                     # the curves, squarefree and deduplicated
    rows: list[list[list[int]]]            # int_rows(p, fiber_var, base_var), p the coprime parts
    projection: list[MPoly]                # polynomials in base_var, from projection_set
    base_poly: UPoly
    base_roots: list[IsolatingInterval]
    base_samples: list[Fraction]
    fiber_products: list[UPoly]            # per base region, specialized product
    cells: list[Cell2D]
    columns: list[list[Cell2D]]

    def fiber_product(self, x0: Fraction) -> UPoly:
        """The product of the parts bound at base_var = x0 (`_fibres`),
        squarefree where x0 is no base root, as the projection proves."""
        acc = [1]
        for _, f in self._fibres(x0):
            acc = _poly_mul(acc, f.coeffs)
        return UPoly(acc, self.fiber_var)

    def _fibres(self, x0: Fraction) -> list[tuple[int, UPoly]]:
        """(index, part bound at base_var = x0) of each coprime part that
        is no constant there."""
        a, b = x0.as_integer_ratio()
        bound = (UPoly(_bind_int(r, a, b), self.fiber_var) for r in self.rows)
        return [(n, f) for n, f in enumerate(bound) if f.degree > 0]

    def roots_at(self, x0: Fraction) -> list[IsolatingInterval]:
        """The real fibre roots at base_var = x0, a rational that is no
        base root, increasing, each isolated on its own part's bound
        polynomial, which is squarefree and coprime to the others there;
        `RootMerge`s fold the lists into one.  A part that is not
        squarefree makes the Descartes walk raise, and two that share a
        root raise `RealRootError` naming x0 and both curve indices."""
        roots, owner = [], []     # the roots so far and the curve of each
        for n, f in self._fibres(x0):
            more = isolate_squarefree(f)
            merge = RootMerge(roots, more)
            ranks = merge.ranks1 + merge.ranks2
            merged: list = [None] * len(ranks)
            for r, iv, m in zip(ranks, roots + more, owner + [n] * len(more)):
                if merged[r - 1]:
                    raise RealRootError(f"curves {merged[r - 1][1]} and {n} share a fibre "
                                        f"root at {self.base_var} = {x0}")
                merged[r - 1] = iv, m
            roots, owner = [iv for iv, _ in merged], [m for _, m in merged]
        return roots

    def locate(self, px: Fraction, py: Fraction) -> int | None:
        """Cell id containing the rational point; None on the variety or a
        projection boundary.  The base index counts the isolated base roots
        below px (`roots_below`, None at a base root); the fibre index adds
        up the roots below py of the parts bound at px (`count_roots`), none
        of which vanishes at py."""
        px, py = Fraction(px), Fraction(py)
        k1 = roots_below(self.base_roots, px)
        if k1 is None:
            return None
        fibres = [f for _, f in self._fibres(px)]
        if any(sign_at(f, py) == 0 for f in fibres):
            return None
        k2 = sum(count_roots(f, NEG_INF, py) for f in fibres)
        col = self.columns[k1]
        return col[k2].id if k2 < len(col) else None

    def sign_at_sample(self, poly: MPoly, cid: int) -> int:
        c = self.cells[cid]
        v = poly.eval({self.base_var: c.sample[0], self.fiber_var: c.sample[1]})
        return (v > 0) - (v < 0)


def _add_squarefree(out: list[MPoly], q: MPoly, vs: tuple[str, ...]):
    """Append q's canonical squarefree part over the variables vs to out,
    unless q is constant or out holds it already."""
    if q.is_constant():
        return
    q = squarefree_total(q.with_vars(vs)).canonical()
    if q not in out:
        out.append(q)


def projection_set(p2, base_var: str, fiber_var: str) -> tuple[list[MPoly], ...]:
    """(curves, parts, projection): p2's curves, squarefree and
    deduplicated; the same made pairwise coprime, each divided by its gcd
    with the parts before it that share a factor, which their vanishing
    resultant tells; and their discriminants, leading coefficients,
    contents and pairwise resultants in the fiber variable, squarefree and
    unique up to constants."""
    vs = (base_var, fiber_var)
    polys: list[MPoly] = []
    for p in p2:
        if not set(p.live_vars()) <= set(vs):
            raise CadError(f"polynomial not over ({base_var},{fiber_var}): {p.live_vars()}")
        _add_squarefree(polys, p, vs)
    parts = list(polys)
    p1_m: list[MPoly] = []

    def push(q: MPoly):
        _add_squarefree(p1_m, q, (base_var,))

    fiber_polys = []
    for n, p in enumerate(polys):
        if p.degree(fiber_var) == 0:
            push(p)  # vertical lines project to themselves
            continue
        fiber_polys.append(n)
        prim, cont = p.primitive_and_content_in(fiber_var)
        if not cont.is_constant():
            push(cont)
        lc = prim.leading_coefficient(fiber_var)
        if not lc.is_constant():
            push(lc)
        if prim.degree(fiber_var) >= 2:
            push(discriminant(prim, fiber_var))
    for a, i in enumerate(fiber_polys):
        for j in fiber_polys[a + 1:]:
            p, q = polys[i], polys[j]
            r = resultant(p, q, fiber_var)
            if r.is_zero():
                # a shared factor g: the cofactors' crossings (g's lie in the
                # discriminants; a cofactor free of the fiber is in a content)
                g = mgcd(p, q)
                p, q = exact_div(p, g), exact_div(q, g)
                if min(p.degree(fiber_var), q.degree(fiber_var)) >= 1:
                    r = resultant(p, q, fiber_var)
                # part i is final, as every pair (h, i) came first
                parts[j] = exact_div(parts[j], mgcd(parts[j], parts[i]))
            push(r)
    return polys, parts, p1_m


def int_rows(p: MPoly, var: str, other: str) -> list[list[int]]:
    """p's numerators (p = `p.nums` / `p.den`): rows[k] is the dense
    coefficient list (constant term first) in `other` of the integer
    polynomial p.den * [var^k] p, every row padded to p's degree in
    `other`.  `bind` binds `other` in them."""
    at = {v: i for i, v in enumerate(p.vars)}
    iv, io = at.get(var), at.get(other)
    width = max(p.degree(other), 0) + 1
    rows = [[0] * width for _ in range(max(p.degree(var), 0) + 1)]
    for e, c in p.nums.items():
        k = e[iv] if iv is not None else 0
        i = e[io] if io is not None else 0
        if sum(e) != k + i:
            raise CadError(f"polynomial not over ({var},{other}): {p.live_vars()}")
        rows[k][i] = c
    return rows


def _bind_int(rows: list[list[int]], a: int, b: int) -> list[int]:
    """The integers b^d * rows[k](a/b), d the rows' common degree: one
    `realroots._horner` pass per row."""
    return [_horner(ints, a, b) for ints in rows]


def bind(rows: list[list[int]], value: Fraction, var: str) -> UPoly:
    """The polynomial in `var` that rows (from `int_rows(p, var, other)`)
    give with `other` bound to value."""
    return UPoly(_bind_int(rows, *value.as_integer_ratio()), var)


def _lcm(polys: list[UPoly], var: str) -> UPoly:
    """The lcm of nonzero polynomials, on integers: each is divided by its
    gcd with the product so far (`int_poly_gcd`, an exact `_poly_quo`)."""
    acc = [1]
    for f in polys:
        f = f.coeffs
        g = int_poly_gcd(acc, f)
        if len(g) > 1:
            f = _poly_quo(f, g, "lcm factor")
        acc = _poly_mul(acc, f)
    return UPoly(acc, var)


def decompose(p2, base_var: str, fiber_var: str) -> Decomposition:
    """Full-dimensional cells of the open CAD adapted to the curve set."""
    polys, parts, projection = projection_set(p2, base_var, fiber_var)
    base = _lcm([UPoly.from_mpoly(q, base_var) for q in projection], base_var)
    base_roots = isolate_squarefree(base)
    bounds = [NEG_INF, *base_roots, POS_INF]
    dec = Decomposition(
        base_var=base_var, fiber_var=fiber_var, polys=polys,
        rows=[int_rows(p, fiber_var, base_var) for p in parts], projection=projection,
        base_poly=base, base_roots=base_roots,
        base_samples=[sample_between(lo, hi) for lo, hi in zip(bounds, bounds[1:])],
        fiber_products=[], cells=[], columns=[],
    )
    for k1, s in enumerate(dec.base_samples):
        f = dec.fiber_product(s)
        dec.fiber_products.append(f)
        col = []
        fbounds = [NEG_INF, *isolate_squarefree(f), POS_INF]
        for k2, (lo, hi) in enumerate(zip(fbounds, fbounds[1:])):
            cell = Cell2D(id=len(dec.cells), base_index=k1, fiber_index=k2,
                          sample=(s, sample_between(lo, hi)))
            col.append(cell)
            dec.cells.append(cell)
        dec.columns.append(col)
    return dec


def interval_eval(p: MPoly, boxes: dict[str, tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction]:
    """Exact interval-arithmetic range bound of p over a box: each term's
    coefficient times the enclosures of its powers, every product of two
    intervals the min and max of the four end products (Moore-Kearfott-
    Cloud), on p's numerators.  A variable's box (a, b) is (A, B) / D over
    D = lcm of its denominators, and the enclosures of x^0 .. x^top (top its
    degree in p) are taken once per call as integers over D^top, so all of
    a term's bounds lie over one positive denominator, the same for every
    term; one Fraction per bound is built at the end."""
    total = p.den
    pows = []      # per variable: enclosures of x^k as integers over D^top, or None
    for i, v in enumerate(p.vars):
        top = max((e[i] for e in p.nums), default=0)
        if not top:
            pows.append(None)
            continue
        if v not in boxes:
            raise CadError(f"unbound variable {v} in interval evaluation")
        a, b = boxes[v]
        D = lcm(a.denominator, b.denominator)
        A, B = a.numerator * (D // a.denominator), b.numerator * (D // b.denominator)
        encl = []
        for k in range(top + 1):
            s = D ** (top - k)
            pa, pb = A ** k * s, B ** k * s
            if k == 0 or k % 2 == 1 or A >= 0:
                encl.append((pa, pb))
            elif B <= 0:
                encl.append((pb, pa))
            else:
                encl.append((0, max(pa, pb)))
        pows.append(encl)
        total *= D ** top
    lo = hi = 0
    for e, c in p.nums.items():
        tlo = thi = c
        for k, encl in zip(e, pows):
            if encl:
                plo, phi = encl[k]
                cands = (tlo * plo, tlo * phi, thi * plo, thi * phi)
                tlo, thi = min(cands), max(cands)
        lo += tlo
        hi += thi
    return Fraction(lo, total), Fraction(hi, total)
