"""Buchberger Groebner bases with elimination orderings.

Small-system oriented: sugar pair selection, both Buchberger criteria,
reduced canonical output.  Variable projections are obtained from a block
elimination order (dropped block greatest, graded-reverse-lex inside).
The acceptance suite projects the constraint ideal with it; the package
never calls it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from kinatlas.ratpoly import MPoly


class GroebnerError(Exception):
    pass


@dataclass(frozen=True)
class MonomialOrder:
    kind: str  # "grevlex" | "lex" | "block"
    eliminated: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "block"):
            raise GroebnerError(f"unknown order {self.kind!r}")
        if (self.kind == "block") != bool(self.eliminated):
            raise GroebnerError("eliminated block set iff kind == block")

    def key_fn(self, variables: tuple[str, ...]):
        if self.kind == "lex":
            return lambda e: e
        if self.kind == "grevlex":
            return _grevlex_key
        drop = [i for i, v in enumerate(variables) if v in self.eliminated]
        keep = [i for i, v in enumerate(variables) if v not in self.eliminated]

        def key(e):
            eb = tuple(e[i] for i in drop)
            ek = tuple(e[i] for i in keep)
            return (_grevlex_key(eb), _grevlex_key(ek))

        return key


def total_degree(p: MPoly) -> int:
    """Largest total degree of a term of p; -1 for the zero polynomial."""
    return max((sum(e) for e in p.terms), default=-1)


def _grevlex_key(e: tuple[int, ...]):
    return (sum(e), tuple(-x for x in reversed(e)))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def elimination_order(drop) -> MonomialOrder:
    return MonomialOrder("block", tuple(drop))


@dataclass(frozen=True)
class PolySystem:
    polynomials: tuple[MPoly, ...]
    variables: tuple[str, ...]

    @staticmethod
    def of(polys, variables=None) -> "PolySystem":
        polys = [p for p in polys]
        if variables is None:
            variables = ()
            for p in polys:
                variables = variables + tuple(v for v in p.vars if v not in variables)
        return PolySystem(tuple(p.with_vars(tuple(variables)) for p in polys), tuple(variables))


def _lm(p: MPoly, key):
    return max(p.terms, key=key)


def _div_mono(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x >= y for x, y in zip(a, b))


def _lcm_mono(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _reduce(p: MPoly, basis: list[MPoly], key) -> MPoly:
    """Full normal form of p modulo basis (leading and tail reduction)."""
    if p.is_zero():
        return p
    lead = [( _lm(g, key), g.terms[_lm(g, key)], g) for g in basis if not g.is_zero()]
    work = dict(p.terms)
    out: dict[tuple[int, ...], Fraction] = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        hit = None
        for lmg, lcg, g in lead:
            if _div_mono(m, lmg):
                hit = (lmg, lcg, g)
                break
        if hit is None:
            out[m] = out.get(m, Fraction(0)) + c
            continue
        lmg, lcg, g = hit
        shift = tuple(x - y for x, y in zip(m, lmg))
        f = c / lcg
        for eg, cg in g.terms.items():
            e = tuple(x + y for x, y in zip(eg, shift))
            s = work.get(e, Fraction(0)) - f * cg if e != m else None
            if e == m:
                continue
            if s:
                work[e] = s
            else:
                work.pop(e, None)
    return MPoly(p.vars, {e: c for e, c in out.items() if c})


def _spoly(f: MPoly, g: MPoly, key) -> MPoly:
    lf, lg = _lm(f, key), _lm(g, key)
    l = _lcm_mono(lf, lg)
    sf = tuple(x - y for x, y in zip(l, lf))
    sg = tuple(x - y for x, y in zip(l, lg))
    cf, cg = f.terms[lf], g.terms[lg]
    tf = MPoly(f.vars, {sf: Fraction(1) / cf})
    tg = MPoly(g.vars, {sg: Fraction(1) / cg})
    return tf * f - tg * g


def groebner_basis(system: PolySystem, order: MonomialOrder = GREVLEX) -> PolySystem:
    """Reduced Groebner basis; deterministic for a given input and order."""
    polys = [p for p in system.polynomials if not p.is_zero()]
    if not polys:
        raise GroebnerError("empty system")
    vs = system.variables
    key = order.key_fn(vs)
    basis: list[MPoly] = []
    sugars: list[int] = []
    for p in sorted((q.canonical() for q in polys), key=lambda q: key(_lm(q, key))):
        r = _reduce(p, basis, key)
        if not r.is_zero():
            basis.append(r.canonical())
            sugars.append(total_degree(r))

    pairs: list[tuple[int, int, int, int]] = []  # (sugar, lcm degree, i, j)
    processed: set[tuple[int, int]] = set()

    def push_pairs(j):
        lj = _lm(basis[j], key)
        for i in range(j):
            if basis[i] is None:
                continue
            li = _lm(basis[i], key)
            l = _lcm_mono(li, lj)
            sug = max(sugars[i] + sum(l) - sum(li), sugars[j] + sum(l) - sum(lj))
            heapq.heappush(pairs, (sug, sum(l), i, j))

    for j in range(len(basis)):
        push_pairs(j)

    while pairs:
        sug, dl, i, j = heapq.heappop(pairs)
        if basis[i] is None or basis[j] is None:
            continue
        if (i, j) in processed:
            continue
        processed.add((i, j))
        li, lj = _lm(basis[i], key), _lm(basis[j], key)
        l = _lcm_mono(li, lj)
        # first criterion: coprime leading monomials
        if all(x + y == z for x, y, z in zip(li, lj, l)):
            continue
        # chain criterion
        skip = False
        for k, g in enumerate(basis):
            if g is None or k in (i, j):
                continue
            if _div_mono(l, _lm(g, key)):
                a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
                if a in processed and b in processed:
                    skip = True
                    break
        if skip:
            continue
        s = _spoly(basis[i], basis[j], key)
        r = _reduce(s, [g for g in basis if g is not None], key)
        if r.is_zero():
            continue
        basis.append(r.canonical())
        sugars.append(max(sug, total_degree(r)))
        push_pairs(len(basis) - 1)

    live = [g for g in basis if g is not None]
    return PolySystem(tuple(_interreduce(live, key)), vs)


def _interreduce(basis: list[MPoly], key) -> list[MPoly]:
    # drop generators whose leading monomial is divisible by another's
    basis = sorted(basis, key=lambda g: key(_lm(g, key)))
    kept: list[MPoly] = []
    for i, g in enumerate(basis):
        lg = _lm(g, key)
        if any(_div_mono(lg, _lm(h, key)) for j, h in enumerate(basis) if j != i
               and (key(_lm(h, key)) < key(lg) or (key(_lm(h, key)) == key(lg) and j < i))):
            continue
        kept.append(g)
    # tail-reduce each against the others
    out = []
    for i, g in enumerate(kept):
        others = [h for j, h in enumerate(kept) if j != i]
        r = _reduce(g, others, key) if others else g
        if not r.is_zero():
            out.append(r.canonical())
    out.sort(key=lambda g: key(_lm(g, key)))
    return out


def eliminate(system: PolySystem, drop) -> PolySystem:
    """Generators of the elimination ideal: basis elements free of `drop`."""
    drop = tuple(drop)
    unknown = [v for v in drop if v not in system.variables]
    if unknown:
        raise GroebnerError(f"dropped symbols not in system: {unknown}")
    if not drop:
        return groebner_basis(system, GREVLEX)
    gb = groebner_basis(system, elimination_order(drop))
    keep_vars = tuple(v for v in system.variables if v not in drop)
    kept = []
    for g in gb.polynomials:
        if all(g.degree(v) <= 0 for v in drop):
            kept.append(g.with_vars(keep_vars))
    return PolySystem(tuple(kept), keep_vars)
