"""Singular pairs: axioms, exhaustive enumeration, bialexander families.

A singular pair is a biquandle S together with a bijective, left- and
right-invertible tau: X x X -> X x X satisfying

    (1) tau o S = S o tau                                     (RV)
    (2) (Sx1)(1xS)(tau x 1) = (1 x tau)(Sx1)(1xS)             (RIVb)
    (3) (1xS)(Sx1)(1 x tau) = (tau x 1)(1xS)(Sx1)             (RIVa)

Written out in elements these are eight component equations; the search
below builds tau1 row by row (left invertibility makes each row a
permutation), derives tau2 pointwise from the first component of (1),
and checks every component equation as soon as the rows it mentions
exist.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, gcd

import numpy as np

from .errors import (DimensionMismatchError, HomogeneityViolationError,
                     NonUnitError, SearchBoundExceededError, UnknownNameError)
from .pairtable import (Biquandle, PairTable, dihedral_switch, flip_switch,
                        i2_switch, is_flip)


@dataclass(frozen=True)
class SingularPair:
    biquandle: Biquandle
    tau: PairTable

    def __post_init__(self):
        if self.biquandle.n != self.tau.n:
            raise DimensionMismatchError("switch and tau live on different sets")

    @property
    def n(self) -> int:
        return self.biquandle.n

    def key(self):
        return self.biquandle.table.key() + self.tau.key()

    def relabel(self, g) -> "SingularPair":
        t = self.biquandle.table.relabel(g)
        s = tuple(g[self.biquandle.s_map[_inv(g)[i]]] for i in range(self.n))
        return SingularPair(Biquandle(t, s), self.tau.relabel(g))

    @classmethod
    def checked(cls, biquandle: Biquandle, tau: PairTable) -> "SingularPair":
        res = check_singular_pair(biquandle, tau)
        if not res.ok:
            raise ValueError(f"not a singular pair: {res.violations[0]}")
        return cls(biquandle, tau)


def _inv(g):
    out = [0] * len(g)
    for i, v in enumerate(g):
        out[v] = i
    return out


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple


@dataclass(frozen=True)
class PairCheck:
    ok: bool
    violations: tuple[Violation, ...]


def check_singular_pair(S: Biquandle, tau: PairTable) -> PairCheck:
    """Check Def-of-singular-pair axioms; report first witness per category."""
    if S.n != tau.n:
        raise DimensionMismatchError(
            f"switch on {S.n} elements, tau on {tau.n}")
    n = S.n
    st = S.table
    bad: list[Violation] = []

    if not tau.is_left_invertible():
        x = next(x for x in range(n) if len(set(tau.t1[x])) != n)
        bad.append(Violation("left_invertible", (x,)))
    if not tau.is_right_invertible():
        y = next(y for y in range(n)
                 if len({tau.t2[x][y] for x in range(n)}) != n)
        bad.append(Violation("right_invertible", (y,)))
    if not tau.is_bijective():
        seen = {}
        wit = None
        for x in range(n):
            for y in range(n):
                img = tau.apply(x, y)
                if img in seen and wit is None:
                    wit = (seen[img], (x, y))
                seen[img] = (x, y)
        bad.append(Violation("bijective", wit))

    # eq (1), both components
    done = False
    for x in range(n):
        for y in range(n):
            if tau.apply(*st.apply(x, y)) != st.apply(*tau.apply(x, y)):
                bad.append(Violation("rv", (x, y)))
                done = True
                break
        if done:
            break

    def triple_map_eq(first, second, axiom):
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if first(x, y, z) != second(x, y, z):
                        bad.append(Violation(axiom, (x, y, z)))
                        return

    def rivb_lhs(x, y, z):  # (Sx1)(1xS)(tau x 1)
        a, b = tau.apply(x, y)
        b2, c2 = st.apply(b, z)
        a3, b3 = st.apply(a, b2)
        return a3, b3, c2

    def rivb_rhs(x, y, z):  # (1 x tau)(Sx1)(1xS)
        b, c = st.apply(y, z)
        a2, b2 = st.apply(x, b)
        b3, c3 = tau.apply(b2, c)
        return a2, b3, c3

    def riva_lhs(x, y, z):  # (1xS)(Sx1)(1 x tau)
        b, c = tau.apply(y, z)
        a2, b2 = st.apply(x, b)
        b3, c3 = st.apply(b2, c)
        return a2, b3, c3

    def riva_rhs(x, y, z):  # (tau x 1)(1xS)(Sx1)
        a, b = st.apply(x, y)
        b2, c2 = st.apply(b, z)
        a3, b3 = tau.apply(a, b2)
        return a3, b3, c2

    triple_map_eq(rivb_lhs, rivb_rhs, "rivb")
    triple_map_eq(riva_lhs, riva_rhs, "riva")

    return PairCheck(not bad, tuple(bad))


def check_flip_tau_condition(tau: PairTable) -> bool:
    """tau1(y,x) = tau2(x,y); equivalent to the pair axioms when S = flip."""
    n = tau.n
    return all(tau.t1[y][x] == tau.t2[x][y] for x in range(n) for y in range(n))


def check_flip_s_condition(S: PairTable) -> bool:
    """The five identities making (X, S, flip) a singular pair."""
    n = S.n
    s1, s2 = S.t1, S.t2
    for x in range(n):
        for y in range(n):
            if s1[x][y] != s2[y][x]:
                return False
            for z in range(n):
                if s1[s2[x][y]][z] != s1[x][z]:
                    return False
                if s2[s2[x][y]][z] != s2[s2[x][z]][y]:
                    return False
                if s1[x][s1[y][z]] != s1[y][s1[x][z]]:
                    return False
                if s2[y][z] != s2[y][s1[x][z]]:
                    return False
    return True


# ---------------------------------------------------------------------------
# bialexander families
# ---------------------------------------------------------------------------

def make_tau_phi(m: int, s: int, t: int, phi) -> PairTable | None:
    """tau_phi(x,y) = (x + phi(s*y - x), y - t*phi(s*y - x)) on Z/m.

    phi must be a bijection of Z/m commuting with multiplication by s, t
    and -1; the result is returned only when the assembled map is
    bijective (left/right invertibility is automatic).
    """
    s %= m
    t %= m
    if gcd(s, m) != 1 or gcd(t, m) != 1:
        raise NonUnitError("s and t must be units")
    phi = [p % m for p in phi]
    if sorted(phi) != list(range(m)):
        raise ValueError("phi must be a permutation of Z/m")
    for lam in (s, t, m - 1):
        for x in range(m):
            if phi[(lam * x) % m] != (lam * phi[x]) % m:
                raise HomogeneityViolationError(
                    f"phi({lam}*{x}) != {lam}*phi({x}) mod {m}")
    tab = PairTable.from_function(
        m, lambda x, y: ((x + phi[(s * y - x) % m]) % m,
                         (y - t * phi[(s * y - x) % m]) % m))
    return tab if tab.is_bijective() else None


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))


def make_tau_a(p: int, s: int, t: int, a: int) -> PairTable | None:
    """tau_a(x,y) = (a*y + (1-a/s)*x, (a*t/s)*x + (1-a*t)*y) over F_p.

    Returns None exactly when (s*t+1)*a = s, i.e. when tau_a fails to be
    bijective.
    """
    if not _is_prime(p):
        raise NonUnitError(f"{p} is not prime")
    s %= p
    t %= p
    a %= p
    for name, v in (("s", s), ("t", t), ("a", a)):
        if v == 0:
            raise NonUnitError(f"{name} must be a unit mod {p}")
    if ((s * t + 1) * a - s) % p == 0:
        return None
    sinv = pow(s, -1, p)
    return PairTable.from_function(
        p, lambda x, y: ((a * y + (1 - a * sinv) * x) % p,
                         ((a * t * sinv) * x + (1 - a * t) * y) % p))


def check_bialexander_characterization(m: int, s: int, t: int,
                                       tau: PairTable) -> bool:
    """Linear-algebra characterization of singular pairs for S_{s,t}.

    Valid when (1 - s*t) is a unit; agrees with check_singular_pair on
    every left/right-invertible candidate.  The conditions: tau commutes
    with multiplication by s, t, -1; the two translation identities that
    pin tau down to tau(0,-); and t*tau1(0,x) = s*tau2(x,0).  Bijectivity
    of tau is part of being a singular pair and is checked as well.
    """
    s %= m
    t %= m
    if gcd(s, m) != 1 or gcd(t, m) != 1:
        raise NonUnitError("s and t must be units")
    if gcd((1 - s * t) % m, m) != 1:
        raise NonUnitError("(1 - s*t) must be a unit")
    if tau.n != m:
        raise DimensionMismatchError("tau is not on Z/m")
    if not (tau.is_left_invertible() and tau.is_right_invertible()
            and tau.is_bijective()):
        return False
    sinv = pow(s, -1, m)
    for lam in (s, t, m - 1):
        for x in range(m):
            for y in range(m):
                a, b = tau.apply(x, y)
                if tau.apply((lam * x) % m, (lam * y) % m) != ((lam * a) % m, (lam * b) % m):
                    return False
    for x in range(m):
        for y in range(m):
            a, b = tau.apply(x, y)
            a0, b0 = tau.apply(0, (y - x * sinv) % m)
            if (a, b) != ((a0 + x) % m, (b0 + x * sinv) % m):
                return False
            a1, b1 = tau.apply((x - s * y) % m, 0)
            if (a, b) != ((a1 + s * y) % m, (b1 + y) % m):
                return False
    for x in range(m):
        if (t * tau.t1[0][x]) % m != (s * tau.t2[x][0]) % m:
            return False
    return True


def tau_phi_family(m: int, s: int, t: int) -> list[PairTable]:
    """All bijective tau_phi for S_{s,t} on Z/m, sorted."""
    s %= m
    t %= m
    lams = sorted({s, t, m - 1} - {1 % m})
    # orbits of Z/m under multiplication by the lambdas
    orbit_of = list(range(m))
    for x in range(m):
        if orbit_of[x] != x:
            continue
        stack = [x]
        while stack:
            u = stack.pop()
            for lam in lams:
                v = (lam * u) % m
                if orbit_of[v] != orbit_of[x]:
                    orbit_of[v] = orbit_of[x]
                    stack.append(v)
    reps = sorted({orbit_of[x] for x in range(m)})
    rep_index = {r: i for i, r in enumerate(reps)}
    # phi is determined by its values on orbit representatives; the value on
    # rep r must sit in an orbit with compatible stabilizer, which we test
    # directly by propagating and checking consistency.
    results = []

    def orbit_elements(r):
        seen = {r}
        stack = [r]
        while stack:
            u = stack.pop()
            for lam in lams:
                v = (lam * u) % m
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    orbits = {r: sorted(orbit_elements(r)) for r in reps}

    def build(i, phi, used):
        if i == len(reps):
            if all(v is not None for v in phi):
                tab = make_tau_phi(m, s, t, phi)
                if tab is not None:
                    results.append(tab)
            return
        r = reps[i]
        for target in range(m):
            if target in used:
                continue
            # propagate phi over the orbit of r and check consistency
            trial = dict()
            ok = True
            stack = [(r, target)]
            while stack and ok:
                u, v = stack.pop()
                if u in trial:
                    ok = trial[u] == v
                    continue
                trial[u] = v
                for lam in lams:
                    stack.append(((lam * u) % m, (lam * v) % m))
            if not ok:
                continue
            vals = set(trial.values())
            if len(vals) != len(trial) or vals & used:
                continue
            phi2 = list(phi)
            for u, v in trial.items():
                phi2[u] = v
            build(i + 1, phi2, used | vals)

    build(0, [None] * m, set())
    return sorted(set(results), key=lambda t_: t_.key())


# ---------------------------------------------------------------------------
# exhaustive enumeration of companion tau's
# ---------------------------------------------------------------------------

def _derive_tau2(st: PairTable, t1_rows, a, b, linv):
    """Solve eq (1), first component, for tau2(a,b)."""
    u = t1_rows[a][b]
    sa, sb = st.apply(a, b)
    w = t1_rows[sa][sb]
    return linv[u][w]


def _instance_buckets(st: PairTable):
    """Group component-equation instances by the last tau1 row they need.

    Returns buckets[k] = list of (eq_id, x, y, z); evaluating an instance
    requires tau1 rows <= k only, so it can run as soon as row k is placed.
    """
    n = st.n
    s1, s2 = st.t1, st.t2

    def rows_tau2(a, b):
        return (a, s1[a][b])

    buckets = [[] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            sxy1 = s1[x][y]
            # eq (1) second component; (x,y) only, evaluate with z = 0
            need = {x, *rows_tau2(x, y), *rows_tau2(sxy1, s2[x][y])}
            buckets[max(need)].append((0, x, y, 0))
            for z in range(n):
                a, b = sxy1, s1[s2[x][y]][z]
                buckets[max({a, y})].append((6, x, y, z))
                buckets[max({*rows_tau2(a, b), y, *rows_tau2(y, z)})].append((7, x, y, z))
                buckets[max({y, *rows_tau2(y, z)})].append((8, x, y, z))
                buckets[max({x, *rows_tau2(x, y)})].append((9, x, y, z))
                c = s2[x][s1[y][z]]
                buckets[max({c, x, *rows_tau2(x, y)})].append((10, x, y, z))
                buckets[max({*rows_tau2(c, s2[y][z]), x, *rows_tau2(x, y)})].append((11, x, y, z))
    return buckets


def _eval_instance(eq, x, y, z, st: PairTable, t1, t2):
    s1, s2 = st.t1, st.t2
    if eq == 0:    # tau2(S(x,y)) = S2(tau(x,y))
        a, b = s1[x][y], s2[x][y]
        return t2[a][b] == s2[t1[x][y]][t2[x][y]]
    if eq == 6:    # tau1(S1(x,y), S1(S2(x,y),z)) = S1(x, tau1(y,z))
        return t1[s1[x][y]][s1[s2[x][y]][z]] == s1[x][t1[y][z]]
    if eq == 7:    # tau2(same args) = S1(S2(x,tau1(y,z)), tau2(y,z))
        return t2[s1[x][y]][s1[s2[x][y]][z]] == s1[s2[x][t1[y][z]]][t2[y][z]]
    if eq == 8:    # S2(S2(x,y),z) = S2(S2(x,tau1(y,z)), tau2(y,z))
        return s2[s2[x][y]][z] == s2[s2[x][t1[y][z]]][t2[y][z]]
    if eq == 9:    # S1(x,S1(y,z)) = S1(tau1(x,y), S1(tau2(x,y),z))
        return s1[x][s1[y][z]] == s1[t1[x][y]][s1[t2[x][y]][z]]
    if eq == 10:   # tau1(S2(x,S1(y,z)), S2(y,z)) = S2(tau1(x,y), S1(tau2(x,y),z))
        return t1[s2[x][s1[y][z]]][s2[y][z]] == s2[t1[x][y]][s1[t2[x][y]][z]]
    if eq == 11:   # tau2(S2(x,S1(y,z)), S2(y,z)) = S2(tau2(x,y), z)
        return t2[s2[x][s1[y][z]]][s2[y][z]] == s2[t2[x][y]][z]
    raise AssertionError(eq)


def _enumerate_flip_taus(n: int, require_bijective: bool):
    """Fast path for S = flip: tau2(x,y) = tau1(y,x), eqs (2),(3) vacuous."""
    perms = list(itertools.permutations(range(n)))
    results = []
    rows = []

    def pairs_completed_at(k):
        return [(k, b) for b in range(k)] + [(a, k) for a in range(k)] + [(k, k)]

    def rec(k, seen):
        if k == n:
            t1 = tuple(rows)
            t2 = tuple(tuple(rows[y][x] for y in range(n)) for x in range(n))
            results.append(PairTable(n, t1, t2))
            return
        for p in perms:
            rows.append(p)
            added = []
            ok = True
            if require_bijective:
                for (a, b) in pairs_completed_at(k):
                    pair = (rows[a][b], rows[b][a])
                    if pair in seen:
                        ok = False
                        break
                    seen.add(pair)
                    added.append(pair)
            if ok:
                rec(k + 1, seen)
            for pair in added:
                seen.discard(pair)
            rows.pop()

    rec(0, set())
    return results


def enumerate_taus(S: Biquandle, require_bijective: bool = True,
                   up_to_iso: bool = False, max_n: int = 5):
    """All tau making (S, tau) a singular pair, in table-lexicographic order.

    With require_bijective=False the bijectivity requirement is dropped
    (left/right invertibility and eqs (1)-(3) still hold), which is the
    population counted in the left/right-invertible table.
    """
    n = S.n
    if n > max_n:
        raise SearchBoundExceededError(
            f"n={n} exceeds enumeration bound {max_n}")
    st = S.table
    if is_flip(st):
        results = _enumerate_flip_taus(n, require_bijective)
    else:
        results = _search_taus(st, require_bijective)
    out = []
    for tab in sorted(set(results), key=lambda t_: t_.key()):
        res = check_singular_pair(S, tab)
        if require_bijective:
            if not res.ok:
                raise AssertionError("enumeration produced a non-pair")
        else:
            hard = [v for v in res.violations if v.axiom != "bijective"]
            if hard:
                raise AssertionError("enumeration produced a bad candidate")
        out.append(tab)
    if up_to_iso:
        return classify_isomorphism([SingularPair(S, tab) for tab in out])
    return out


def _search_taus(st: PairTable, require_bijective: bool):
    n = st.n
    perms = list(itertools.permutations(range(n)))
    # linv[u][w] = y with S1(u,y) = w
    linv = [[0] * n for _ in range(n)]
    for u in range(n):
        for y in range(n):
            linv[u][st.t1[u][y]] = y
    buckets = _instance_buckets(st)
    # tau2(a,b) becomes derivable once rows a and S1(a,b) both exist
    derive_at = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            derive_at[max(a, st.t1[a][b])].append((a, b))

    t1 = [None] * n
    t2 = [[None] * n for _ in range(n)]
    col_seen = [set() for _ in range(n)]
    results = []

    def rec(k, seen):
        if k == n:
            tab = PairTable(n, tuple(t1), tuple(tuple(r) for r in t2))
            results.append(tab)
            return
        for p in perms:
            t1[k] = p
            derived = []
            ok = True
            for (a, b) in derive_at[k]:
                v = _derive_tau2(st, t1, a, b, linv)
                t2[a][b] = v
                derived.append((a, b))
                if v in col_seen[b]:       # right invertibility
                    ok = False
                    break
                col_seen[b].add(v)
                if require_bijective:
                    pair = (t1[a][b], v)
                    if pair in seen:
                        ok = False
                        col_seen[b].discard(v)
                        t2[a][b] = None
                        derived.pop()
                        break
                    seen.add(pair)
            if ok:
                for (eq, x, y, z) in buckets[k]:
                    if not _eval_instance(eq, x, y, z, st, t1, t2):
                        ok = False
                        break
            if ok:
                rec(k + 1, seen)
            for (a, b) in derived:
                v = t2[a][b]
                col_seen[b].discard(v)
                if require_bijective:
                    seen.discard((t1[a][b], v))
                t2[a][b] = None
            t1[k] = None

    rec(0, set())
    return results


def brute_force_taus(S: Biquandle, require_bijective: bool = True,
                     max_n: int = 3) -> list[PairTable]:
    """Oracle: scan all ((n!)^n)^2 left/right-invertible maps directly."""
    n = S.n
    if n > max_n:
        raise SearchBoundExceededError(f"n={n} exceeds brute-force bound {max_n}")
    perms = list(itertools.permutations(range(n)))
    out = []
    for rows in itertools.product(perms, repeat=n):
        for cols in itertools.product(perms, repeat=n):
            t2 = tuple(tuple(cols[y][x] for y in range(n)) for x in range(n))
            tab = PairTable(n, rows, t2)
            res = check_singular_pair(S, tab)
            if res.ok:
                out.append(tab)
            elif not require_bijective:
                if all(v.axiom == "bijective" for v in res.violations):
                    out.append(tab)
    return sorted(out, key=lambda t_: t_.key())


# ---------------------------------------------------------------------------
# left/right-invertible counts (the flip-compatible population)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LrCounts:
    total: int
    iso: int
    bijective: int
    bijective_iso: int


def _partitions(n):
    if n == 0:
        yield []
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield [first] + rest


def _centralizer_order(cycle_type, n):
    out = 1
    for ell in set(cycle_type):
        m = cycle_type.count(ell)
        out *= ell**m * factorial(m)
    return out


def _power_cycle_type(cycle_type, e):
    out = []
    for ell in cycle_type:
        g = gcd(ell, e)
        out.extend([ell // g] * g)
    return sorted(out, reverse=True)


def enumerate_left_right_invertible(n: int, max_n: int = 4) -> LrCounts:
    """The four counts of the flip-compatible left/right-invertible table.

    total is (n!)^n (tau1 is a free list of n permutations and forces
    tau2); iso is computed by Burnside orbit counting over S_n acting by
    simultaneous relabeling; the bijective population is enumerated
    explicitly and classified.
    """
    if n > max_n:
        raise SearchBoundExceededError(f"n={n} exceeds bound {max_n}")
    total = factorial(n) ** n
    # Burnside: a relabeling g fixes the tau determined by rows (p_x) iff
    # p_{g(x)} = g p_x g^-1; choices are one centralizer element of g^ell
    # per cycle of length ell.
    iso_sum = 0
    for ct in _partitions(n):
        class_size = factorial(n) // _centralizer_order(ct, n)
        fixed = 1
        for ell in ct:
            fixed *= _centralizer_order(_power_cycle_type(ct, ell), n)
        iso_sum += class_size * fixed
    iso = iso_sum // factorial(n)

    bij = _enumerate_flip_taus(n, require_bijective=True)
    classes = classify_isomorphism(
        [SingularPair(flip_switch(n), tab) for tab in bij])
    return LrCounts(total, iso, len(bij), len(classes))


# ---------------------------------------------------------------------------
# isomorphism classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsoClass:
    canonical: SingularPair
    size: int


def automorphism_group(t: PairTable) -> list[tuple[int, ...]]:
    """All permutations g with (g x g) o T o (g x g)^-1 = T, by backtracking."""
    n = t.n
    out = []

    def extend(g):
        k = len(g)
        if k == n:
            out.append(tuple(g))
            return
        used = set(g)
        for img in range(n):
            if img in used:
                continue
            g.append(img)
            if _consistent(t, g):
                extend(g)
            g.pop()

    def _consistent(t, g):
        k = len(g)
        for x in range(k):
            for y in range(k):
                a, b = t.apply(x, y)
                if a < k and g[a] != t.t1[g[x]][g[y]]:
                    return False
                if b < k and g[b] != t.t2[g[x]][g[y]]:
                    return False
        return True

    extend([])
    # the partial checks only prune; keep exactly the true automorphisms
    return [g for g in out if t.relabel(g) == t]


def _np_tables(pair: SingularPair):
    n = pair.n
    arr = np.empty((4, n, n), dtype=np.int16)
    arr[0] = pair.biquandle.table.t1
    arr[1] = pair.biquandle.table.t2
    arr[2] = pair.tau.t1
    arr[3] = pair.tau.t2
    return arr


def canonical_key(pair: SingularPair, relabelings=None) -> bytes:
    """Minimal serialized form over the given relabelings (default: all n!)."""
    n = pair.n
    if relabelings is None:
        if n > 8:
            raise SearchBoundExceededError(
                f"canonical form over all {n}! relabelings refused for n={n}")
        relabelings = itertools.permutations(range(n))
    arr = _np_tables(pair)
    best = None
    for g in relabelings:
        gv = np.asarray(g, dtype=np.int16)
        ginv = np.empty(n, dtype=np.intp)
        ginv[gv] = np.arange(n)
        key = gv[arr[:, ginv][:, :, ginv]].tobytes()
        if best is None or key < best:
            best = key
    return best


def classify_isomorphism(pairs) -> list[IsoClass]:
    """Partition pairs into isomorphism classes (simultaneous relabeling).

    When every input shares the same switch S the relabelings are cut to
    Aut(S): two pairs with equal S are isomorphic iff an S-automorphism
    conjugates one tau onto the other.  Otherwise the minimum runs over
    all n! relabelings (n <= 8).
    """
    pairs = list(pairs)
    if not pairs:
        return []
    n = pairs[0].n
    if any(p.n != n for p in pairs):
        raise DimensionMismatchError("pairs of mixed cardinality")
    same_switch = all(p.biquandle.table == pairs[0].biquandle.table for p in pairs)
    if same_switch and (n > 8 or len(pairs) > 64):
        relabelings = automorphism_group(pairs[0].biquandle.table)
    else:
        if n > 8:
            raise SearchBoundExceededError(
                f"general classification needs n <= 8, got {n}")
        relabelings = list(itertools.permutations(range(n)))

    groups: dict[bytes, list[int]] = {}
    keys_g: dict[bytes, tuple] = {}
    rel = [np.asarray(g, dtype=np.int16) for g in relabelings]
    relinv = []
    for g in rel:
        gi = np.empty(n, dtype=np.intp)
        gi[g] = np.arange(n)
        relinv.append(gi)
    canon_of = []
    for idx, p in enumerate(pairs):
        arr = _np_tables(p)
        best = None
        best_g = None
        for g, gi in zip(rel, relinv):
            sub = arr[:, gi][:, :, gi]
            key = g[sub].tobytes()
            if best is None or key < best:
                best, best_g = key, g
        canon_of.append(best)
        groups.setdefault(best, []).append(idx)
        keys_g.setdefault(best, tuple(int(v) for v in best_g))
    classes = []
    for key in sorted(groups):
        members = groups[key]
        rep = pairs[members[0]].relabel(list(keys_g[key]))
        classes.append(IsoClass(rep, len(members)))
    return classes


def tau_phi_iso_count(n: int) -> int:
    """I_n: isomorphism classes of tau_phi singular pairs for D_n."""
    S = dihedral_switch(n)
    taus = tau_phi_family(n, 1, n - 1)
    aut = automorphism_group(S.table)
    seen = set()
    rel = [np.asarray(g, dtype=np.int16) for g in aut]
    relinv = []
    for g in rel:
        gi = np.empty(n, dtype=np.intp)
        gi[g] = np.arange(n)
        relinv.append(gi)
    for tab in taus:
        arr = np.empty((2, n, n), dtype=np.int16)
        arr[0] = tab.t1
        arr[1] = tab.t2
        best = None
        for g, gi in zip(rel, relinv):
            key = g[arr[:, gi][:, :, gi]].tobytes()
            if best is None or key < best:
                best = key
        seen.add(best)
    return len(seen)


# ---------------------------------------------------------------------------
# builtin pairs
# ---------------------------------------------------------------------------

def builtin_pair(name: str) -> SingularPair:
    S_flip2 = flip_switch(2)
    table = {
        "flip-flip": lambda: SingularPair(S_flip2, S_flip2.table),
        "flip-i2": lambda: SingularPair(S_flip2, i2_switch().table),
        # same pair as flip-i2; the paper writes tau(x,y) = (s y, s x)
        "flip-s2": lambda: SingularPair(S_flip2, i2_switch().table),
        "flip-flip-3": lambda: SingularPair(flip_switch(3), flip_switch(3).table),
        "d3-ss": lambda: SingularPair(dihedral_switch(3), dihedral_switch(3).table),
        "d3-sinv": lambda: SingularPair(dihedral_switch(3),
                                        dihedral_switch(3).table.inverse()),
        "i2-ss": lambda: SingularPair(i2_switch(), i2_switch().table),
        "trivial-1": lambda: SingularPair(flip_switch(1), flip_switch(1).table),
    }
    if name not in table:
        raise UnknownNameError(f"unknown builtin pair {name!r}")
    return table[name]()
