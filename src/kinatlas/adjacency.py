"""Connectivity of open CAD cells in the complement of a curve set.

One pass per decomposition serves every variety asked of it.  The pass
enumerates the candidate edges once: vertically stacked cells, horizontally
adjacent cells whose fiber intervals overlap at one witness pair hugging
the shared base root (each with a horizontal witness segment), and, when
the fiber is the half-tangent chart of an angle, the bottom and top cell
of each column, which meet across the cut at fiber infinity.  For each
candidate it records which variety polynomials block it: in a stacked
pair, a sign change of the polynomial's squarefree fibre between the two
samples; across a base root, a zero on the witness segment; across the
cut, an odd fiber degree.  The graph of each variety is then a filter
that keeps the candidates none of its own polynomials block.  Every test
is an exact sign or Descartes root count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ratpoly import MPoly
from .realroots import (
    NEG_INF, POS_INF, IsolatingInterval, RealRootError, isolate_squarefree, count_roots,
    sample_between, _deepen, _sign_at,
)
from .cad2d import Decomposition, _bind, _rows, _specialize_product


class AdjacencyError(Exception):
    pass


@dataclass(frozen=True)
class AdjacencyGraph:
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
            "components": [sorted(c) for c in components(self)],
        }


def components(g: AdjacencyGraph) -> list[set[int]]:
    """Connected components, sorted by smallest member id."""
    parent = {n: n for n in g.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in g.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, set[int]] = {}
    for n in g.nodes:
        groups.setdefault(find(n), set()).add(n)
    return sorted(groups.values(), key=min)


# ---------------------------------------------------------------------------
# algebraic fiber bounds: IsolatingInterval values or +-inf sentinels


def _cmp_bounds(a: IsolatingInterval, b: IsolatingInterval, memo: dict,
                max_iter: int = 50) -> int:
    """Sign of (root a) - (root b).  Each root is held as one integer state
    (A, B, d) of its own bisection, seeded with the interval's ends A/d and
    B/d, and the two are compared at depths 0, 5, 10, 20, 40, ... of it, up
    to 5 (max_iter - 1), so max_iter = 50 goes past 2^-200 of the starting
    widths: `realroots._deepen` takes a state there by one `_bisect` call,
    and a state deeper already is compared as it is.  Ends compare by
    cross-multiplication.  `memo` holds the gcd of each pair of interval
    polynomials taken so far, keyed by the pair, and each interval's deepest
    state, keyed by the interval, from which later comparisons and overlap
    samples (`sample_between`) of the same root go on."""
    last = 5 * (max_iter - 1)
    x, y = memo.get(a, (a.A, a.B, a.d)), memo.get(b, (b.A, b.B, b.d))
    t = 0
    try:
        while True:
            x, y = _deepen(a, x, t), _deepen(b, y, t)
            (Ax, Bx, dx), (Ay, By, dy) = x, y
            if Bx * dy < Ay * dx:
                return -1
            if By * dx < Ax * dy:
                return 1
            if Ax == Bx and Ay == By:
                c = Ax * dy - Ay * dx
                return (c > 0) - (c < 0)
            # refine a few levels before paying for the shared-root check
            if t >= 10:
                key = (a.polynomial, b.polynomial)
                g = memo.get(key)
                if g is None:
                    g = memo[key] = a.polynomial.gcd(b.polynomial)
                if g.degree >= 1:
                    # the intervals overlap on [lo, hi], where g, dividing
                    # both squarefree interval polynomials, has at most one
                    # root, a simple one: it has one iff its signs at lo and
                    # hi are not one nonzero sign, and that root is each
                    # side's own
                    lo = (Ax, dx) if Ax * dy >= Ay * dx else (Ay, dy)
                    hi = (Bx, dx) if Bx * dy <= By * dx else (By, dy)
                    if _sign_at(g.coeffs, *lo) * _sign_at(g.coeffs, *hi) <= 0:
                        return 0
            if t == last:
                raise AdjacencyError("could not order algebraic bounds")
            t = min(2 * t or 5, last)
    finally:
        memo[a], memo[b] = x, y


def _roots_at(dec: Decomposition, w: Fraction, col: list, where: str) -> list[IsolatingInterval]:
    f = _specialize_product(dec.polys, dec.base_var, dec.fiber_var, w)
    roots = isolate_squarefree(f)
    if len(roots) != len(col) - 1:
        raise AdjacencyError(
            f"{where}, cells {col[0].id}..{col[-1].id}: delineability violated at "
            f"witness {w}: {len(roots)} roots vs {len(col) - 1}")
    return roots


def _ranks(roots1: list[IsolatingInterval], roots2: list[IsolatingInterval],
           memo: dict) -> tuple[list[int], list[int]]:
    """Ranks 1..m of two increasing root lists in their merged order; equal
    roots share a rank.  On failure the raised AdjacencyError carries the
    indices of the two roots it could not order as `roots`.  Every
    comparison shares `memo` (`_cmp_bounds`), so each gcd of a pair of
    polynomials is taken once and each root goes on from its deepest state."""
    rank1, rank2 = [0] * len(roots1), [0] * len(roots2)
    i = k = rank = 0
    while i < len(roots1) or k < len(roots2):
        if k == len(roots2):
            c = -1
        elif i == len(roots1):
            c = 1
        else:
            try:
                c = _cmp_bounds(roots1[i], roots2[k], memo)
            except AdjacencyError as e:
                e.roots = (i, k)
                raise
        rank += 1
        if c <= 0:
            rank1[i] = rank
            i += 1
        if c >= 0:
            rank2[k] = rank
            k += 1
    return rank1, rank2


def _ranked_bounds(roots: list[IsolatingInterval], ranks: list[int], k: int, top: int):
    """Fiber bounds of interval k with their ranks (0 and `top` for -inf/+inf)."""
    lo, rlo = (roots[k - 1], ranks[k - 1]) if k >= 1 else (NEG_INF, 0)
    hi, rhi = (roots[k], ranks[k]) if k < len(roots) else (POS_INF, top)
    return lo, hi, rlo, rhi


def _crosses_horizontal(rows, c: Fraction, w1: Fraction, w2: Fraction, var: str) -> bool:
    """Whether p(x, c) vanishes for some x in [w1, w2], rows = _rows(p, x, y):
    surely when its signs at w1 and w2 differ, else by a root count."""
    u = _bind(rows, c, var)
    if u.is_zero():
        return True
    if u.degree <= 0:
        return False
    ints = u.coeffs
    s1, s2 = _sign_at(ints, *w1.as_integer_ratio()), _sign_at(ints, *w2.as_integer_ratio())
    return s1 != s2 or s1 == 0 or count_roots(u.squarefree(), w1, w2) > 0


_SHRINK = 1 << 40   # witnesses lie within gap / _SHRINK of their base root


def _witnesses(dec: Decomposition, j: int) -> tuple[Fraction, Fraction]:
    """Rational abscissae w1 < root j < w2 hugging base root j, with no
    other base root in [w1, w2].

    Adjacency across a base root is a limit (Arnon-Collins-McCallum): the
    fiber-overlap criterion is valid only for witnesses close enough to the
    root.  So its isolating interval is refined below gap / _SHRINK, gap
    being that to its unrefined neighbours, at most 1.  An exact rational
    root v gets v -+ d, d halved from gap / _SHRINK until neither is a base
    root.
    """
    roots = dec.base_roots
    r = roots[j]
    left_gap = (r.low - roots[j - 1].high) if j > 0 else Fraction(1)
    right_gap = (roots[j + 1].low - r.high) if j + 1 < len(roots) else Fraction(1)
    d = min(left_gap, right_gap, Fraction(1)) / _SHRINK
    r = r.refine(d)
    if not r.is_exact():
        return r.low, r.high
    v, ints = r.low, dec.base_poly.coeffs
    while (_sign_at(ints, *(v - d).as_integer_ratio()) == 0
           or _sign_at(ints, *(v + d).as_integer_ratio()) == 0):
        d /= 2
    return v - d, v + d


def build_graphs(dec: Decomposition, varieties: list[list[MPoly]],
                 wrap: bool = False) -> list[AdjacencyGraph]:
    """One graph per variety, joining cells in one connected component of
    its complement, from a single adjacency pass over `dec`.

    With `wrap` the fiber variable is t = tan(phi / 2), whose two ends
    t -> -inf and t -> +inf are the one line phi = pi, so the bottom and
    top cell of each column are a candidate pair too.  A polynomial p of
    degree d in t is p / (1 + t^2)^ceil(d / 2) on the cylinder.  For odd d
    that vanishes on the whole cut and changes sign across it, so p blocks
    the pair.  For even d it tends to the leading coefficient of p in t,
    which has no root inside a column provided the variety's curves are
    curves of `dec` (its projection holds every leading coefficient), so p
    does not block it.

    The stacked pairs rely on that condition too: between the samples of
    two stacked cells lies exactly one root of the column's fibre product,
    so the squarefree part of p's fibre has at most one root there, a
    simple one, and p blocks the pair exactly when that part changes sign
    between the samples.

    Across base root j the candidates are the pairs whose fiber intervals
    overlap at its one witness pair w1 < w2 (`_witnesses`), each decided
    once: p blocks a pair when p(x, c) vanishes for x in [w1, w2], c a
    sample of the overlap.  One memo per base root holds the witness
    roots' deepest comparison states (`_ranks`), so the overlap samples
    (`sample_between`) read cells the comparisons reached instead of
    halving the same intervals again; it dies with that base root."""
    bv, fv = dec.base_var, dec.fiber_var
    polys: list[MPoly] = []          # distinct polynomials of all varieties
    users: list[set[int]] = []       # the varieties each one belongs to
    for i, variety in enumerate(varieties):
        for p in variety:
            q = p.with_vars((bv, fv))
            if q not in polys:
                polys.append(q)
                users.append(set())
            users[polys.index(q)].add(i)
    edges: list[set[tuple[int, int]]] = [set() for _ in varieties]

    def add(a: int, b: int, blocks):
        """Keep candidate (a, b) for every variety none of whose
        polynomials (by index t) `blocks(t)`."""
        open_ = set(range(len(varieties)))
        for t, used_by in enumerate(users):
            if open_ & used_by and blocks(t):
                open_ -= used_by
                if not open_:
                    return
        for i in open_:
            edges[i].add((min(a, b), max(a, b)))

    # vertical: stacked cells in one column, blocked by a sign change of a
    # squarefree fibre (constant fibres never change sign)
    vrows = [_rows(p, fv, bv) for p in polys]
    for k, col in enumerate(dec.columns):
        if len(col) < 2:
            continue
        fibre = [_bind(r, dec.base_samples[k], fv).squarefree().coeffs for r in vrows]
        for low, high in zip(col, col[1:]):
            a, b = low.sample[1].as_integer_ratio(), high.sample[1].as_integer_ratio()
            add(low.id, high.id, lambda t: _sign_at(fibre[t], *a) != _sign_at(fibre[t], *b))

    # across the cut: bottom and top of a column, blocked by odd t-degree
    if wrap:
        odd = [p.degree(fv) % 2 == 1 for p in polys]
        for col in dec.columns:
            if len(col) >= 2:
                add(col[0].id, col[-1].id, lambda t: odd[t])

    # horizontal: cells across each base root whose fiber intervals overlap
    # at its witnesses, blocked by a zero on the witness segment
    hrows = [_rows(p, bv, fv) for p in polys]
    for j in range(len(dec.base_roots)):
        left, right = dec.columns[j], dec.columns[j + 1]
        w1, w2 = _witnesses(dec, j)
        where = f"base root {j}"
        roots1 = _roots_at(dec, w1, left, where)
        roots2 = _roots_at(dec, w2, right, where)
        memo: dict = {}     # this base root's gcds and deepest root states
        try:
            rank1, rank2 = _ranks(roots1, roots2, memo)
        except AdjacencyError as e:
            i, k = e.roots
            raise AdjacencyError(
                f"{where}, cells ({left[i].id}, {right[k].id}): upper fiber "
                f"bounds: {e}") from e
        top = len(roots1) + len(roots2) + 1
        bounds2 = [_ranked_bounds(roots2, rank2, c2.fiber_index, top) for c2 in right]
        for c1 in left:
            lo1, hi1, rl1, rh1 = _ranked_bounds(roots1, rank1, c1.fiber_index, top)
            for c2, (lo2, hi2, rl2, rh2) in zip(right, bounds2):
                if max(rl1, rl2) >= min(rh1, rh2):
                    continue
                # on equal ranks the left bound is kept
                lo = lo1 if rl1 >= rl2 else lo2
                hi = hi1 if rh1 <= rh2 else hi2
                try:
                    c = sample_between(lo, hi, memo)
                    add(c1.id, c2.id, lambda t: _crosses_horizontal(hrows[t], c, w1, w2, bv))
                except (AdjacencyError, RealRootError) as e:
                    raise AdjacencyError(f"{where}, cells {(c1.id, c2.id)}: {e}") from e

    nodes = tuple(c.id for c in dec.cells)
    return [AdjacencyGraph(nodes, tuple(sorted(es))) for es in edges]


def build_graph(dec: Decomposition, variety: list[MPoly], wrap: bool = False) -> AdjacencyGraph:
    """Undirected graph joining cells in one connected component of the
    complement of the variety; `wrap` as in `build_graphs`."""
    return build_graphs(dec, [variety], wrap)[0]
