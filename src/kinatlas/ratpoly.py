"""Exact rational polynomial arithmetic.

Sparse multivariate polynomials (MPoly) over arbitrary-precision rationals,
and dense univariate polynomials (UPoly) held as primitive integer
coefficients with a positive leading coefficient, which carry what the root
and cell layers use: the derivative, the gcd and the squarefree part.  All
values are immutable and every operation is a pure function.

Elimination runs on integers: `mgcd`, `resultant` and `exact_div` clear
each operand once to coprime integer coefficients and call the integer
kernels, and only the result is Fraction-valued again.  The multivariate
gcd is GCDHEU (Char, Geddes and Gonnet 1989), proven by exact division and
backed by the primitive PRS; the resultant is taken by evaluation at
integer nodes and Newton interpolation (Collins 1971); squarefree parts
are p / gcd(p, dp/dv).  Univariate gcds, exact quotients and products run
on integer coefficient lists (`int_poly_gcd`, `_poly_quo`, `_poly_mul`).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as _int_gcd, lcm as _int_lcm

class RatPolyError(Exception):
    pass


def _merge_vars(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """Union of two variable tuples, keeping first-seen order."""
    out = list(a)
    seen = set(a)
    for v in b:
        if v not in seen:
            out.append(v)
            seen.add(v)
    return tuple(out)


def _grlex_key(exp: tuple[int, ...]):
    return (sum(exp), exp)


class MPoly:
    """Sparse multivariate polynomial with Fraction coefficients.

    Terms map exponent tuples (one entry per variable in `vars`) to
    nonzero coefficients.  Zero coefficients are never stored.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...], terms: dict[tuple[int, ...], Fraction]):
        self.vars = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c, variables: tuple[str, ...] = ()) -> "MPoly":
        c = Fraction(c)
        z = (0,) * len(variables)
        return MPoly(variables, {z: c} if c else {})

    @staticmethod
    def var(name: str, variables: tuple[str, ...] | None = None) -> "MPoly":
        if variables is None:
            variables = (name,)
        if name not in variables:
            raise RatPolyError(f"variable {name!r} not in {variables}")
        e = tuple(1 if v == name else 0 for v in variables)
        return MPoly(variables, {e: Fraction(1)})

    def with_vars(self, variables: tuple[str, ...]) -> "MPoly":
        """Re-embed into a larger (or reordered) variable tuple."""
        if variables == self.vars:
            return self
        idx = []
        for v in self.vars:
            if v not in variables:
                if any(e[self.vars.index(v)] for e in self.terms):
                    raise RatPolyError(f"cannot drop live variable {v!r}")
                idx.append(None)
            else:
                idx.append(variables.index(v))
        terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            ne = [0] * len(variables)
            for i, p in enumerate(e):
                if p:
                    ne[idx[i]] = p
            terms[tuple(ne)] = c
        return MPoly(variables, terms)

    # -- predicates / accessors ---------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise RatPolyError("not a constant")
        return next(iter(self.terms.values()))

    def degree(self, var: str) -> int:
        """Degree in one variable (-1 for the zero polynomial)."""
        if var not in self.vars:
            return 0 if self.terms else -1
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=-1)

    def live_vars(self) -> tuple[str, ...]:
        live = set()
        for e in self.terms:
            for i, p in enumerate(e):
                if p:
                    live.add(self.vars[i])
        return tuple(v for v in self.vars if v in live)

    # -- arithmetic ----------------------------------------------------

    def _aligned(self, other: "MPoly") -> tuple["MPoly", "MPoly"]:
        if self.vars == other.vars:
            return self, other
        u = _merge_vars(self.vars, other.vars)
        return self.with_vars(u), other.with_vars(u)

    def __add__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.const(other, self.vars)
        a, b = self._aligned(other)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return MPoly(a.vars, terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "MPoly":
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.const(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            c = Fraction(other)
            if not c:
                return MPoly(self.vars, {})
            return MPoly(self.vars, {e: k * c for e, k in self.terms.items()})
        a, b = self._aligned(other)
        if len(a.terms) < len(b.terms):
            a, b = b, a
        terms: dict[tuple[int, ...], Fraction] = {}
        for eb, cb in b.terms.items():
            for ea, ca in a.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = terms.get(e)
                if s is None:
                    terms[e] = ca * cb
                else:
                    s = s + ca * cb
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
        return MPoly(a.vars, terms)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise RatPolyError("negative power")
        result = MPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return self.is_constant() and self.constant_value() == Fraction(other)
        a, b = self._aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus / evaluation -----------------------------------------

    def diff(self, var: str) -> "MPoly":
        """Exact partial derivative."""
        if var not in self.vars:
            raise RatPolyError(f"unknown variable {var!r}")
        i = self.vars.index(var)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = e[:i] + (e[i] - 1,) + e[i + 1:]
                terms[ne] = terms.get(ne, Fraction(0)) + c * e[i]
        return MPoly(self.vars, terms)

    def eval(self, point: dict) -> "MPoly | Fraction":
        """Bind a subset of variables to rationals: a Fraction when all are
        bound, else the polynomial in the remaining ones.  A polynomial
        value goes through `substitute`."""
        keep = [i for i, v in enumerate(self.vars) if v not in point]
        bound = [(i, Fraction(point[v])) for i, v in enumerate(self.vars) if v in point]
        terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            for i, w in bound:
                if e[i]:
                    c *= w ** e[i]
            ne = tuple(e[i] for i in keep)
            terms[ne] = terms.get(ne, 0) + c
        if not keep:
            return terms.get((), Fraction(0))
        return MPoly(tuple(self.vars[i] for i in keep), terms)

    def substitute(self, values: dict[str, "MPoly"], den: "MPoly") -> "MPoly":
        """den^d * self(v = values[v] / den), d the largest total degree of
        a term in the substituted variables.  Each power of a value and of
        den is taken once.  The result's variables are the kept ones, then
        those of the values and of den."""
        sub = [i for i, v in enumerate(self.vars) if v in values]
        keep = [i for i, v in enumerate(self.vars) if v not in values]
        out_vars = tuple(self.vars[i] for i in keep)
        for w in (*values.values(), den):
            out_vars = _merge_vars(out_vars, w.vars)
        pad = (0,) * (len(out_vars) - len(keep))
        groups: dict[tuple[int, ...], dict] = {}
        for e, c in self.terms.items():
            groups.setdefault(tuple(e[i] for i in sub), {})[tuple(e[i] for i in keep) + pad] = c
        ws = [w.with_vars(out_vars) for w in [values[self.vars[i]] for i in sub] + [den]]
        one = MPoly.const(1, out_vars)
        pows = [[one] for _ in ws]
        d = max(map(sum, groups), default=0)
        acc = MPoly.const(0, out_vars)
        for k, rest in groups.items():
            f = one
            for w, ps, p in zip(ws, pows, k + (d - sum(k),)):
                while len(ps) <= p:
                    ps.append(ps[-1] * w)
                f = f * ps[p]
            acc = acc + MPoly(out_vars, rest) * f
        return acc

    def eval_float(self, point: dict[str, float]) -> float:
        tot = 0.0
        for e, c in self.terms.items():
            m = float(c)
            for i, p in enumerate(e):
                if p:
                    m *= point[self.vars[i]] ** p
            tot += m
        return tot

    # -- structure in one variable -------------------------------------

    def coeffs_in(self, var: str) -> list["MPoly"]:
        """Dense coefficient list in `var` (constant term first),
        as polynomials in the remaining variables."""
        if var not in self.vars:
            return [self]
        i = self.vars.index(var)
        rest = tuple(v for j, v in enumerate(self.vars) if j != i)
        d = self.degree(var)
        if d < 0:
            return []
        buckets: list[dict] = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            ne = e[:i] + e[i + 1:]
            buckets[e[i]][ne] = c
        return [MPoly(rest, b) for b in buckets]

    @staticmethod
    def from_coeffs(coeffs: list["MPoly"], var: str) -> "MPoly":
        """Inverse of coeffs_in."""
        out_vars: tuple[str, ...] = (var,)
        for c in coeffs:
            out_vars = _merge_vars(out_vars, c.vars)
        acc = MPoly.const(0, out_vars)
        xv = MPoly.var(var, out_vars)
        xp = MPoly.const(1, out_vars)
        for k, c in enumerate(coeffs):
            if not c.is_zero():
                acc = acc + c.with_vars(out_vars) * xp
            xp = xp * xv
        return acc

    def leading_coefficient(self, var: str) -> "MPoly":
        cs = self.coeffs_in(var)
        if not cs:
            rest = tuple(v for v in self.vars if v != var)
            return MPoly.const(0, rest)
        return cs[-1]

    # -- normalization ---------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c having coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = _int_gcd(num, abs(c.numerator))
            den = den * c.denominator // _int_gcd(den, c.denominator)
        return Fraction(num, den)

    def canonical(self) -> "MPoly":
        """Content-free integer form with positive graded-lex leading coeff."""
        if not self.terms:
            return self
        c = self.content()
        lead = max(self.terms, key=_grlex_key)
        if self.terms[lead] < 0:
            c = -c
        return MPoly(self.vars, {e: k / c for e, k in self.terms.items()})

    def primitive_and_content_in(self, var: str) -> tuple["MPoly", "MPoly"]:
        """Split off gcd of the coefficients wrt `var` (multivariate content)."""
        cs = self.coeffs_in(var)
        nz = [c for c in cs if not c.is_zero()]
        if not nz:
            rest = tuple(v for v in self.vars if v != var)
            return self, MPoly.const(0, rest)
        g = nz[0]
        for c in nz[1:]:
            g = mgcd(g, c)
            if g.is_constant():
                break
        g = g.canonical()
        if g.is_constant():
            return self.canonical(), g
        prim = MPoly.from_coeffs([exact_div(c, g) for c in cs], var)
        return prim.canonical(), g

    # -- printing / parsing ----------------------------------------------

    def __repr__(self):
        return f"MPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


# ---------------------------------------------------------------------------
# exact division and gcd


def exact_div(num: MPoly, den: MPoly) -> MPoly:
    """Exact multivariate division on the cleared integers; raises if den
    does not divide num."""
    if den.is_zero():
        raise RatPolyError("division by zero polynomial")
    if den.is_constant():
        c = den.constant_value()
        return MPoly(num.vars, {e: k / c for e, k in num.terms.items()})
    num, den = num._aligned(den)
    if num.is_zero():
        return num
    (n, cn), (d, cd) = _cleared(num), _cleared(den)
    q = _int_quo(n, d)
    if q is None:
        raise RatPolyError("inexact polynomial division")
    c = cn / cd
    return MPoly(num.vars, {e: c * k for e, k in q.items()})


def mgcd(p: MPoly, q: MPoly) -> MPoly:
    """Multivariate gcd, canonical: the heuristic gcd of the cleared
    integers (`_heu_gcd`), or the primitive PRS when the heuristic gives up."""
    if p.is_zero():
        return q.canonical()
    if q.is_zero():
        return p.canonical()
    if p.is_constant() or q.is_constant():
        return MPoly.const(1, p.vars)
    if not set(p.live_vars()) & set(q.live_vars()):
        return MPoly.const(1, p.vars)
    p, q = p._aligned(q)
    g = _heu_gcd(_cleared(p)[0], _cleared(q)[0])
    if g is None:
        return _mgcd_prs(p, q)
    return MPoly(p.vars, {e: Fraction(k) for e, k in g.items()}).canonical()


def _mgcd_prs(p: MPoly, q: MPoly) -> MPoly:
    """gcd of two aligned nonconstant polynomials by primitive PRS recursion
    in their first common live variable, canonical output."""
    qv = set(q.live_vars())
    var = next(v for v in p.live_vars() if v in qv)
    pp, pc = p.primitive_and_content_in(var)
    qp, qc = q.primitive_and_content_in(var)
    cont = mgcd(pc, qc)
    a, b = pp, qp
    if a.degree(var) < b.degree(var):
        a, b = b, a
    while not b.is_zero() and b.degree(var) > 0:
        r = _prem(a, b, var)
        if r.is_zero():
            a, b = b, r
            break
        rp, _ = r.primitive_and_content_in(var)
        a, b = b, rp
    if b.is_zero():
        g, _ = a.primitive_and_content_in(var)
    else:
        g = MPoly.const(1, p.vars)
    return (g * cont.with_vars(g.vars)).canonical()


def _coeffs_wrt(p: MPoly, var: str, rest: tuple[str, ...]) -> list[MPoly]:
    return [c.with_vars(rest) for c in p.coeffs_in(var)]


def _prem(a: MPoly, b: MPoly, var: str) -> MPoly:
    """Pseudo-remainder of a by b (b nonzero) in `var`: `_int_prem` run on
    their `MPoly` coefficient lists."""
    rest = tuple(v for v in a.vars if v != var)
    r = _int_prem(_coeffs_wrt(a, var, rest), _coeffs_wrt(b, var, rest))
    if not r:
        return MPoly.const(0, a.vars)
    return MPoly.from_coeffs(r, var).with_vars(_merge_vars(a.vars, (var,)))


def resultant(p: MPoly, q: MPoly, var: str) -> MPoly:
    """Resultant wrt `var` by evaluation and interpolation on integers
    (Collins, JACM 1971); exact.

    Each operand is cleared once, p = c_p P and q = c_q Q with P and Q
    integer.  The other variables that either operand holds are bound one
    at a time at the integer nodes 0, -1, 2, -2, 4, -3, ..., skipping every
    node where an operand loses degree in `var`; for a bound variable k,
    deg_var P deg_k Q + deg_var Q deg_k P + 1 nodes fix the result's degree
    in k.  With every variable bound, Res(P, Q) is the integer subresultant
    PRS (`_resultant_int`), and each coefficient is interpolated by integer
    Newton differences (`_newton_int`).  Res(p, q) = c_p^deg_var q
    c_q^deg_var p Res(P, Q) gives the result with one scaling at the end.
    """
    p, q = p._aligned(q)
    dp, dq = p.degree(var), q.degree(var)
    if dp <= 0 or dq <= 0:
        raise RatPolyError("resultant needs positive degree in the variable")
    v = p.vars.index(var)
    (P, cp), (Q, cq) = _cleared(p), _cleared(q)
    scale = cp ** dq * cq ** dp
    return MPoly(p.vars[:v] + p.vars[v + 1:],
                 {e[:v] + e[v + 1:]: scale * k for e, k in _resultant_interp(P, Q, v).items()})


def squarefree_part(p: MPoly, var: str) -> MPoly:
    """p / gcd(p, dp/dvar), canonicalized."""
    if p.is_zero():
        raise RatPolyError("zero polynomial")
    if p.degree(var) <= 0:
        return p.canonical()
    g = mgcd(p, p.diff(var))
    if g.is_constant():
        return p.canonical()
    return exact_div(p, g.with_vars(p.vars)).canonical()


def squarefree_total(p: MPoly) -> MPoly:
    """Squarefree part across every live variable."""
    out = p.canonical()
    for v in out.live_vars():
        out = squarefree_part(out, v)
    return out


# ---------------------------------------------------------------------------
# integer multivariate kernels: a polynomial is a dict from exponent tuples,
# one entry per variable of a tuple fixed by the caller, to nonzero ints


def _cleared(p: MPoly) -> tuple[dict, Fraction]:
    """(P, c): p = c * P with P integer terms of coprime coefficients and
    c a positive rational; p nonzero."""
    den = _int_lcm(*(c.denominator for c in p.terms.values()))
    ints = {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
    g = _int_gcd(*ints.values())
    if g > 1:
        ints = {e: k // g for e, k in ints.items()}
    return ints, Fraction(g, den)


def _int_quo(num: dict, den: dict) -> dict | None:
    """Exact quotient num / den of integer polynomials, or None when den
    does not divide num over the integers.  The graded-lex leading term of
    the remainder is cancelled until none is left; when den is primitive, as
    `_cleared` makes it, that is division over the rationals too (Gauss)."""
    dl = max(den, key=_grlex_key)
    dc = den[dl]
    tail = [(e, k) for e, k in den.items() if e != dl]
    rem = dict(num)
    heap = [(-sum(e), tuple(-x for x in e), e) for e in rem]
    heapify(heap)
    q = {}
    while heap:
        e = heappop(heap)[2]
        c = rem.pop(e, 0)
        if not c:
            continue
        m = tuple(a - b for a, b in zip(e, dl))
        if min(m) < 0:
            return None
        k, r = divmod(c, dc)
        if r:
            return None
        q[m] = k
        for de, dk in tail:
            ne = tuple(a + b for a, b in zip(m, de))
            s = rem.get(ne)
            if s is None:
                rem[ne] = -k * dk
                heappush(heap, (-sum(ne), tuple(-x for x in ne), ne))
            elif s == k * dk:
                del rem[ne]
            else:
                rem[ne] = s - k * dk
    return q


_HEU_TRIES = 6


def _heu_gcd(a: dict, b: dict) -> dict | None:
    """gcd over the integers of two nonzero integer polynomials by GCDHEU
    (Char, Geddes and Gonnet, J. Symbolic Comput. 1989), or None when the
    heuristic gives up.

    The gcd c of the two integer contents is split off and carried into the
    result.  The last live variable is bound at xi = 2 min(|A|, |B|) + 29
    (max norms of the primitive parts A, B), the gcd of the images is taken
    recursively down to integer gcds, and its symmetric xi-adic expansion
    rebuilds a candidate whose primitive part is accepted only when it
    divides A and B exactly; then it is gcd(A, B), because the images' gcd
    is the true gcd with its integer content.  Otherwise xi grows by
    73794/27011, at most `_HEU_TRIES` times.
    """
    ca, cb = _int_gcd(*a.values()), _int_gcd(*b.values())
    c = _int_gcd(ca, cb)
    zero = (0,) * len(next(iter(a)))
    live = [i for i, d in enumerate(map(max, zip(*a, *b))) if d]
    if not live or (zero in a and len(a) == 1) or (zero in b and len(b) == 1):
        return {zero: c}
    i = live[-1]
    if ca > 1:
        a = {e: k // ca for e, k in a.items()}
    if cb > 1:
        b = {e: k // cb for e, k in b.items()}
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    rows_a, rows_b = _rows_in(a, i), _rows_in(b, i)
    for _ in range(_HEU_TRIES):
        ai, bi = _bind_rows(rows_a, xi), _bind_rows(rows_b, xi)
        g = _heu_gcd(ai, bi) if ai and bi else None
        if g is not None:
            h = _xi_adic(g, i, xi)
            ch = _int_gcd(*h.values())
            if ch > 1:
                h = {e: k // ch for e, k in h.items()}
            if _int_quo(a, h) is not None and _int_quo(b, h) is not None:
                return {e: c * k for e, k in h.items()} if c > 1 else h
        xi = xi * 73794 // 27011
    return None


def _rows_in(a: dict, i: int) -> dict:
    """a as a polynomial in variable i: the exponent tuple with entry i set
    to 0 -> dense coefficient list in variable i, constant term first."""
    rows: dict = {}
    for e, c in a.items():
        key = e[:i] + (0,) + e[i + 1:]
        row = rows.get(key)
        if row is None:
            row = rows[key] = []
        if len(row) <= e[i]:
            row.extend([0] * (e[i] + 1 - len(row)))
        row[e[i]] = c
    return rows


def _bind_rows(rows: dict, x: int) -> dict:
    """Integer terms of the polynomial `_rows_in(a, i)` describes, with
    variable i bound to x (its exponent 0): one Horner pass per row."""
    out = {}
    for key, row in rows.items():
        acc = 0
        for c in reversed(row):
            acc = acc * x + c
        if acc:
            out[key] = acc
    return out


def _xi_adic(g: dict, i: int, xi: int) -> dict:
    """Inverse of binding variable i to xi for coefficients below xi / 2 in
    magnitude: each integer expanded in symmetric base-xi digits, digit j
    becoming the coefficient of variable i to the power j."""
    half = xi // 2
    out = {}
    for e, k in g.items():
        j = 0
        while k:
            d = k % xi
            if d > half:
                d -= xi
            if d:
                out[e[:i] + (j,) + e[i + 1:]] = d
            k = (k - d) // xi
            j += 1
    return out


def _resultant_interp(a: dict, b: dict, v: int) -> dict:
    """Res(a, b) in variable v of two integer polynomials of positive degree
    in v, as integer terms with exponent 0 for v: the last other live
    variable is bound at the nodes, the rest recursively."""
    da, db = max(e[v] for e in a), max(e[v] for e in b)
    live = [i for i, d in enumerate(map(max, zip(*a, *b))) if d and i != v]
    if not live:
        r = _resultant_int(_dense(a, v, da), _dense(b, v, db))
        return {(0,) * len(next(iter(a))): r} if r else {}
    i = live[-1]
    bound = da * max(e[i] for e in b) + db * max(e[i] for e in a)
    rows_a, rows_b = _rows_in(a, i), _rows_in(b, i)
    xs: list[int] = []
    values: list[dict] = []
    k = 0
    while len(xs) <= bound:
        x0 = k if k % 2 == 0 else -(k + 1) // 2
        k += 1
        a0, b0 = _bind_rows(rows_a, x0), _bind_rows(rows_b, x0)
        if all(e[v] < da for e in a0) or all(e[v] < db for e in b0):
            continue  # a leading coefficient in v vanishes at x0
        values.append(_resultant_interp(a0, b0, v))
        xs.append(x0)
    out = {}
    for mono in set().union(*values):
        for j, c in enumerate(_newton_int(xs, [w.get(mono, 0) for w in values])):
            if c:
                out[mono[:i] + (j,) + mono[i + 1:]] = c
    return out


def _dense(a: dict, v: int, d: int) -> list[int]:
    """Coefficient list (constant term first) of an integer polynomial of
    degree d in variable v, the only live one."""
    out = [0] * (d + 1)
    for e, c in a.items():
        out[e[v]] = c
    return out


def _resultant_int(a: list[int], b: list[int]) -> int:
    """Resultant of two nonconstant integer polynomials given by coefficient
    lists (constant term first, nonzero leading coefficients), by the
    subresultant PRS with Collins' divisors; every division is exact."""
    m, n = len(a) - 1, len(b) - 1
    sign = 1
    if m < n:
        a, b = b, a
        if m * n % 2:
            sign = -1
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        d = da - db
        if da % 2 and db % 2:
            sign = -sign
        r = _int_prem(a, b)
        if not r:
            return 0
        den = g * h ** d
        r = [_exact_quo(c, den, "subresultant coefficient") for c in r]
        a, b = b, r
        g = a[-1]
        if d >= 1:
            h = _exact_quo(g ** d, h ** (d - 1), "subresultant scale")
        if len(b) == 1:
            da = len(a) - 1
            res = _exact_quo(b[0] ** da, h ** (da - 1), "resultant") if da > 1 else b[0] ** da
            return sign * res


def _exact_quo(n: int, d: int, what: str) -> int:
    q, r = divmod(n, d)
    if r:
        raise RatPolyError(f"inexact integer division in the {what}")
    return q


def _newton_int(xs: list[int], ys: list[int]) -> list[int]:
    """Coefficients (constant term first) of the polynomial of degree below
    len(xs) through the points (xs[i], ys[i]), by Newton divided
    differences on integers.  They are integers whenever an integer
    polynomial takes the values at distinct integer nodes; any other
    input raises RatPolyError naming the node."""
    n = len(xs)
    c = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i], r = divmod(c[i] - c[i - 1], xs[i] - xs[i - j])
            if r:
                raise RatPolyError(f"divided difference of order {j} at node {xs[i]} "
                                   "is not an integer")
    poly = [c[-1]]  # Horner in the Newton basis: poly * (var - x_i) + c_i
    for i in range(n - 2, -1, -1):
        x = xs[i]
        poly = ([c[i] - x * poly[0]]
                + [poly[k - 1] - x * poly[k] for k in range(1, len(poly))] + [poly[-1]])
    return poly


# ---------------------------------------------------------------------------
# dense univariate layer


class UPoly:
    """Dense univariate polynomial over Q, held as its primitive integer
    coefficients (constant term first) with a positive leading
    coefficient: the constructor clears rational input once.  Roots, gcds
    and squarefree parts do not see the nonzero constant factor that is
    dropped, and signs flip with it at most; `to_mpoly` gives the monic
    form.  The root and cell layers read `coeffs` directly."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var: str = "x"):
        cs = [c if type(c) is int else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if cs:
            den = _int_lcm(*(c.denominator for c in cs))
            cs = [c.numerator * (den // c.denominator) for c in cs]
            g = _int_gcd(*cs)
            if cs[-1] < 0:
                g = -g
            if g != 1:
                cs = [c // g for c in cs]
        self.coeffs = tuple(cs)
        self.var = var

    @staticmethod
    def from_mpoly(p: MPoly, var: str | None = None) -> "UPoly":
        live = p.live_vars()
        if var is None:
            var = live[0] if live else (p.vars[0] if p.vars else "x")
        if any(v != var for v in live):
            raise RatPolyError(f"not univariate in {var!r}: {live}")
        cs = p.coeffs_in(var)
        return UPoly([c.constant_value() for c in cs], var)

    def to_mpoly(self) -> MPoly:
        """The monic polynomial."""
        lc = self.coeffs[-1] if self.coeffs else 1
        return MPoly((self.var,), {(i,): Fraction(c, lc) for i, c in enumerate(self.coeffs)})

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, UPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def derivative(self) -> "UPoly":
        return UPoly([c * i for i, c in enumerate(self.coeffs)][1:], self.var)

    def gcd(self, other: "UPoly") -> "UPoly":
        """The gcd, by `int_poly_gcd`."""
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return UPoly(int_poly_gcd(self.coeffs, other.coeffs), self.var)

    def squarefree(self) -> "UPoly":
        """p / gcd(p, p'), gcd and quotient taken on integers."""
        if self.degree <= 1:
            return self
        ints = self.coeffs
        g = int_poly_gcd(ints, [i * c for i, c in enumerate(ints)][1:])
        if len(g) == 1:
            return self
        return UPoly(_poly_quo(ints, g, "squarefree part"), self.var)

    def __repr__(self):
        return f"UPoly({self.coeffs!r}, {self.var!r})"


def int_poly_gcd(a, b) -> list[int]:
    """Primitive gcd (up to sign) of two nonzero integer polynomials given
    by coefficient lists, constant term first; [1] when they are coprime.

    Coprime operands are settled by one gcd over GF(P) first: when P does
    not divide the leading coefficient of the higher-degree operand, the
    true gcd keeps its degree modulo P, so a constant gcd modulo P proves
    it constant.  Every other case runs the integer primitive PRS.
    """
    if len(a) < len(b):
        a, b = b, a
    if a[-1] % _GCD_PRIME and _coprime_mod_prime(a, b):
        return [1]
    while b and len(b) > 1:
        r = _int_prem(a, b)
        if not r:
            a, b = b, r
            break
        _int_primitive(r)
        a, b = b, r
    if b:  # nonzero constant remainder: coprime
        return [1]
    return _int_primitive(list(a))


def _int_prem(a: list, b: list) -> list:
    """Pseudo-remainder lc(b)^(da-db+1) * a mod b on dense coefficient
    lists (constant term first) of integers, or of `MPoly`s."""
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return list(a)
    lb = b[-1]
    r = list(a)
    e = da - db + 1
    while len(r) - 1 >= db and r:
        top = r[-1]
        k = len(r) - 1 - db
        r = [c * lb for c in r[:-1]]
        for i in range(db):
            r[k + i] -= top * b[i]
        while r and r[-1] == 0:
            r.pop()
        e -= 1
    if e > 0 and r:
        f = lb ** e
        r = [c * f for c in r]
    return r


_GCD_PRIME = (1 << 61) - 1


def _coprime_mod_prime(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True iff the gcd of a and b over GF(_GCD_PRIME) is a nonzero constant
    (Euclid on monic remainders, coefficient lists lowest degree first)."""
    P = _GCD_PRIME
    f = [c % P for c in a]
    g = [c % P for c in b]
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    while g:
        if len(g) == 1:
            return True
        inv = pow(g[-1], -1, P)
        g = [c * inv % P for c in g]
        dg = len(g) - 1
        while len(f) > dg:
            top = f.pop()
            if top:
                k = len(f) - dg
                for i in range(dg):
                    f[k + i] = (f[k + i] - top * g[i]) % P
            while f and f[-1] == 0:
                f.pop()
        f, g = g, f
    return len(f) == 1


def _int_primitive(r: list[int]) -> list[int]:
    """Strip integer content in place (sign preserved)."""
    g = _int_gcd(*r)
    if g > 1:
        r[:] = [c // g for c in r]
    return r


def _poly_quo(a, b: list[int], what: str) -> list[int]:
    """Exact quotient a / b of integer polynomials (constant term first);
    RatPolyError naming `what` if b does not divide a over the integers."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, m = divmod(r[k + db], lb)
        if m:
            raise RatPolyError(f"inexact integer quotient: {what}")
        q[k] = c
        if c:
            for i in range(db):
                r[k + i] -= c * b[i]
    if any(r[:db]):
        raise RatPolyError(f"inexact integer quotient: {what}")
    return q


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# textual format


def format_poly(p: MPoly) -> str:
    """Canonical text: graded-lex descending, `^` powers, `*` products."""
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)
    parts = []
    for e, c in items:
        factors = []
        for i, pw in enumerate(e):
            if pw == 1:
                factors.append(p.vars[i])
            elif pw > 1:
                factors.append(f"{p.vars[i]}^{pw}")
        mag = abs(c)
        if not factors:
            body = _fmt_frac(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = _fmt_frac(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


def _fmt_frac(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
