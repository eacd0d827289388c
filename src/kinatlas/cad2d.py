"""Open cylindrical algebraic decomposition of the plane.

Given a set of curves, the base line is cut at the roots of the projection
polynomials (discriminants, leading coefficients, pairwise resultants,
vertical-line contents) and each resulting open interval is lifted through
the real roots of the specialized curve product.  The base product and
every fibre product are one integer squarefree lcm (`_squarefree_lcm`), a
`UPoly` isolated without a second squarefree step.  Curves are bound at a
point by integer Horner on their integer rows (`realroots._horner`), and
the bound polynomial is the `UPoly` of those integers.  The projection
polynomials are canonical `MPoly`s.  Only
full-dimensional cells are produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .ratpoly import (
    MPoly, UPoly,
    squarefree_total, exact_div, resultant,
    int_poly_gcd, _int_primitive, _poly_mul, _poly_quo,
)
from .realroots import (
    NEG_INF, POS_INF, IsolatingInterval,
    isolate_squarefree, count_roots, roots_below, sample_between, _horner, _sign_at,
)


class CadError(Exception):
    pass


@dataclass(frozen=True)
class ProjectionSet:
    """Level-2 polynomials and their level-1 projections."""

    p2: tuple[MPoly, ...]
    p1: tuple[MPoly, ...]


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
    polys: list[MPoly]
    proj: ProjectionSet
    base_poly: UPoly
    base_roots: list[IsolatingInterval]
    base_samples: list[Fraction]
    fiber_products: list[UPoly]            # per base region, specialized product
    fiber_roots: list[list[IsolatingInterval]]
    cells: list[Cell2D]
    columns: list[list[Cell2D]]

    def locate(self, px: Fraction, py: Fraction) -> int | None:
        """Cell id containing the rational point; None on the variety or a
        projection boundary.  The base index counts the isolated base roots
        below px (`roots_below`, px being no base root, as an exact integer
        sign test says first); the fibre index counts the roots of the fibre
        product at px below py with its Sturm sequence."""
        px, py = Fraction(px), Fraction(py)
        if self.base_poly.degree > 0:
            if _sign_at(self.base_poly.coeffs, *px.as_integer_ratio()) == 0:
                return None
            k1 = roots_below(self.base_roots, px)
        else:
            k1 = 0
        f = _specialize_product(self.polys, self.base_var, self.fiber_var, px)
        if f.degree > 0 and _sign_at(f.coeffs, *py.as_integer_ratio()) == 0:
            return None
        k2 = count_roots(f, NEG_INF, py) if f.degree > 0 else 0
        for c in self.columns[k1]:
            if c.fiber_index == k2:
                return c.id
        return None

    def sign_at_sample(self, poly: MPoly, cid: int) -> int:
        c = self.cells[cid]
        v = poly.eval({self.base_var: c.sample[0], self.fiber_var: c.sample[1]})
        return (v > 0) - (v < 0)


def _normalize_input(polys, base_var: str, fiber_var: str) -> list[MPoly]:
    vs = (base_var, fiber_var)
    out: list[MPoly] = []
    seen = set()
    for p in polys:
        q = p.with_vars(vs) if set(p.live_vars()) <= set(vs) else None
        if q is None:
            raise CadError(f"polynomial not over ({base_var},{fiber_var}): {p.live_vars()}")
        if q.is_zero() or q.is_constant():
            continue
        q = squarefree_total(q).canonical()
        key = frozenset(q.terms.items())
        if key not in seen:
            seen.add(key)
            out.append(q)
    return out


def projection_set(p2, base_var: str, fiber_var: str) -> ProjectionSet:
    """Discriminants, leading coefficients, contents, and pairwise
    resultants with respect to the fiber variable; squarefree, deduplicated
    up to constants."""
    polys = _normalize_input(p2, base_var, fiber_var)
    if not polys:
        return ProjectionSet(tuple(), tuple())
    p1_m: list[MPoly] = []

    def push(q: MPoly):
        if q.is_zero() or q.is_constant():
            return
        q = squarefree_total(q.with_vars((base_var,))).canonical()
        if all(q != r for r in p1_m):
            p1_m.append(q)

    fiber_polys = []
    for p in polys:
        if p.degree(fiber_var) == 0:
            push(p)  # vertical lines project to themselves
            continue
        fiber_polys.append(p)
        prim, cont = p.primitive_and_content_in(fiber_var)
        if not cont.is_constant():
            push(cont)
        lc = prim.leading_coefficient(fiber_var)
        if not lc.is_constant():
            push(lc)
        if prim.degree(fiber_var) >= 2:
            push(discriminant_bivar(prim, fiber_var, base_var))
    for i in range(len(fiber_polys)):
        for j in range(i + 1, len(fiber_polys)):
            push(resultant_bivar(fiber_polys[i], fiber_polys[j], fiber_var, base_var))
    return ProjectionSet(tuple(polys), tuple(p1_m))


def resultant_bivar(p: MPoly, q: MPoly, elim: str, keep: str) -> MPoly:
    """Resultant of two curves in `elim`, as a polynomial in `keep`:
    `ratpoly.resultant`, the integer interpolated kernel."""
    if p.degree(elim) <= 0 or q.degree(elim) <= 0:
        raise CadError("resultant needs positive degree in the eliminated variable")
    return resultant(p, q, elim).with_vars((keep,))


def discriminant_bivar(p: MPoly, var: str, keep: str) -> MPoly:
    """Discriminant via the interpolated resultant route."""
    d = p.degree(var)
    if d < 2:
        raise CadError("discriminant needs degree >= 2")
    r = resultant_bivar(p, p.diff(var), var, keep)
    lc = p.leading_coefficient(var)
    r = exact_div(r.with_vars((keep,)), lc.with_vars((keep,)))
    if (d * (d - 1) // 2) % 2 == 1:
        r = -r
    return r


def _rows(p: MPoly, var: str, other: str) -> list[list[int]]:
    """p over one denominator D, read straight from its terms: rows[k] is
    the dense coefficient list (constant term first) in `other` of the
    integer polynomial D * [var^k] p, every row padded to p's degree in
    `other`."""
    at = {v: i for i, v in enumerate(p.vars)}
    iv, io = at.get(var), at.get(other)
    den = lcm(*(c.denominator for c in p.terms.values()))
    width = max(p.degree(other), 0) + 1
    rows = [[0] * width for _ in range(max(p.degree(var), 0) + 1)]
    for e, c in p.terms.items():
        k = e[iv] if iv is not None else 0
        i = e[io] if io is not None else 0
        if sum(e) != k + i:
            raise CadError(f"polynomial not over ({var},{other}): {p.live_vars()}")
        rows[k][i] = c.numerator * (den // c.denominator)
    return rows


def _bind_int(rows: list[list[int]], a: int, b: int) -> list[int]:
    """The integers b^d * rows[k](a/b), d the rows' common degree: one
    `realroots._horner` pass per row."""
    return [_horner(ints, a, b) for ints in rows]


def _bind(rows: list[list[int]], value: Fraction, var: str) -> UPoly:
    """The polynomial in `var` that rows (from `_rows(p, var, other)`) give
    with `other` bound to value."""
    return UPoly(_bind_int(rows, *value.as_integer_ratio()), var)


def _specialize_product(polys, base_var: str, fiber_var: str, x0: Fraction) -> UPoly:
    """Squarefree part of the product of the curves bound at
    base_var = x0: each curve is bound through its integer rows and the
    results go to `_squarefree_lcm`."""
    a, b = Fraction(x0).as_integer_ratio()
    return _squarefree_lcm(
        [_bind_int(_rows(p, fiber_var, base_var), a, b) if p.degree(fiber_var) > 0 else []
         for p in polys], fiber_var, f" at {x0}")


def _squarefree_lcm(curves: list[list[int]], var: str, where: str = "") -> UPoly:
    """The lcm of the squarefree parts of integer polynomials given by
    coefficient lists (constant term first; constants are skipped), on
    integers: each primitive squarefree part is taken with the integer gcd
    and the lcm is built by exact integer quotients.  An inexact quotient
    names the curve's index and `where`."""
    acc = [1]
    for n, f in enumerate(curves):
        while f and f[-1] == 0:
            f.pop()
        if len(f) < 2:
            continue
        _int_primitive(f)
        if len(f) > 2:
            g = int_poly_gcd(f, [i * c for i, c in enumerate(f)][1:])
            if len(g) > 1:
                f = _poly_quo(f, g, f"squarefree part of curve {n}{where}")
        g = int_poly_gcd(acc, f)
        if len(g) > 1:
            f = _poly_quo(f, g, f"lcm factor of curve {n}{where}")
        acc = _poly_mul(acc, f)
    return UPoly(acc, var)


def decompose(p2, base_var: str = "u", fiber_var: str = "v") -> Decomposition:
    """Full-dimensional cells of the open CAD adapted to the curve set."""
    proj = projection_set(p2, base_var, fiber_var)
    polys = list(proj.p2)
    base = _squarefree_lcm([list(UPoly.from_mpoly(q, base_var).coeffs) for q in proj.p1],
                           base_var)
    base_roots = isolate_squarefree(base)
    bounds = [NEG_INF, *base_roots, POS_INF]
    base_samples = [sample_between(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    cells: list[Cell2D] = []
    columns: list[list[Cell2D]] = []
    fiber_products: list[UPoly] = []
    fiber_roots_all: list[list[IsolatingInterval]] = []
    cid = 0
    for k1, s in enumerate(base_samples):
        f = _specialize_product(polys, base_var, fiber_var, s)
        fr = isolate_squarefree(f)
        fiber_products.append(f)
        fiber_roots_all.append(fr)
        col = []
        fbounds = [NEG_INF, *fr, POS_INF]
        for k2, (lo, hi) in enumerate(zip(fbounds, fbounds[1:])):
            cell = Cell2D(id=cid, base_index=k1, fiber_index=k2,
                          sample=(s, sample_between(lo, hi)))
            col.append(cell)
            cells.append(cell)
            cid += 1
        columns.append(col)
    return Decomposition(
        base_var=base_var, fiber_var=fiber_var, polys=polys, proj=proj,
        base_poly=base, base_roots=base_roots, base_samples=base_samples,
        fiber_products=fiber_products, fiber_roots=fiber_roots_all,
        cells=cells, columns=columns,
    )


def interval_eval(p: MPoly, boxes: dict[str, tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction]:
    """Exact interval-arithmetic range bound of p over a box: each term's
    coefficient times the enclosures of its powers, every product of two
    intervals the min and max of the four end products (Moore-Kearfott-
    Cloud), on integers.  A variable's box (a, b) is (A, B) / D over D =
    lcm of its denominators, and the enclosures of x^0 .. x^top (top its
    degree in p) are taken once per call as integers over D^top, so all of
    a term's bounds lie over one positive denominator, the same for every
    term; one Fraction per bound is built at the end."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    total = den
    pows = []      # per variable: enclosures of x^k as integers over D^top, or None
    for i, v in enumerate(p.vars):
        top = max((e[i] for e in p.terms), default=0)
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
    for e, c in p.terms.items():
        tlo = thi = c.numerator * (den // c.denominator)
        for k, encl in zip(e, pows):
            if encl:
                plo, phi = encl[k]
                cands = (tlo * plo, tlo * phi, thi * plo, thi * phi)
                tlo, thi = min(cands), max(cands)
        lo += tlo
        hi += thi
    return Fraction(lo, total), Fraction(hi, total)
