"""Counting sequences and series identities for the avoider counts.

Two triangles refine the counting sequence 1, 1, 2, 6, 23, 105, 549, ...
of 1-32-4 avoiders, and both are read off the succession rule.  Row n >= 1
of v is the label census at depth n - 1 of ``omega_rule``: v(n,k)
avoiders of length n carry label k.  Row n >= 1 of u is the same census
under ``lambda_rule``, so u(n,k) = v(n,k-1).  Row 0 holds the empty word
alone, at k = 0 in u and k = -1 in v.  One step of the rule's census is
the counting recurrence

    u(n,k) = u(n-1,k-1) + k * sum_{j>=k} u(n-1,j)      (1 <= k <= n)

and row sums of either triangle give the counting sequence.

The module also carries a separate recursion for 31-4-2 avoiders counted
by first letter, a continued fraction whose series, a tuple of integers
from one integer recurrence, disagrees with the counting sequence
(``compare_cfrac_with_counts`` reports where), and residual checks for the
functional equation and the boundary differential equation, both read
row by row off the tree's label census, a ``Triangle`` like v.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import chain, islice
from typing import NamedTuple

# ``generate_level`` is unused here; perfbench/tracing.py requires this binding.
from .gentree import ROOT, SuccessionRule, generate_level, lambda_rule, omega_rule, walk
from .perms import label, parse_dashed_pattern

PATTERN_3142 = parse_dashed_pattern("31-4-2")


class Triangle(NamedTuple):
    """Integer triangle stored by rows: ``rows[n]`` maps k to the entry
    (n, k) in increasing k.  Lookups read only the row asked for; entries
    outside the triangle are 0."""

    rows: tuple[dict[int, int], ...]

    def value(self, n: int, k: int) -> int:
        return self.rows[n].get(k, 0) if 0 <= n < len(self.rows) else 0

    def row(self, n: int) -> dict[int, int]:
        return dict(self.rows[n]) if 0 <= n < len(self.rows) else {}

    def row_sum(self, n: int) -> int:
        return sum(self.rows[n].values()) if 0 <= n < len(self.rows) else 0


def csv_rows(rows: Iterable[dict[int, int]]) -> Iterator[str]:
    """A triangle's rows 0, 1, ... as csv text: the header, then the lines
    of each row as one string, made as the row comes."""
    yield "n,k,value\n"
    for n, row in enumerate(rows):
        yield "".join([f"{n},{k},{v}\n" for k, v in row.items()])


def triangle_rows(rule: SuccessionRule, n_max: int) -> Iterator[dict[int, int]]:
    """Rows 0..n_max of the rule's triangle, one at a time: row 0 is
    {axiom - 1: 1} for the empty word, row n >= 1 the label census at
    depth n - 1.  n_max is checked here, before any row is read.

    >>> list(triangle_rows(lambda_rule(), 2))
    [{0: 1}, {1: 1}, {1: 1, 2: 1}]
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative: {n_max}")
    return chain([{rule.axiom - 1: 1}], islice(rule.levels(), n_max))


def u_triangle(n_max: int) -> Triangle:
    """Rows 0..n_max of the triangle u, the rows of ``lambda_rule``.

    >>> u_triangle(4).row(4)
    {1: 6, 2: 10, 3: 6, 4: 1}
    """
    return Triangle(tuple(triangle_rows(lambda_rule(), n_max)))


def v_triangle(n_max: int) -> Triangle:
    """Label census triangle: v(n,k) avoiders of length n carry label k.
    Rows 0..n_max are the rows of ``omega_rule``.

    >>> v_triangle(4).row(4)
    {0: 6, 1: 10, 2: 6, 3: 1}
    """
    return Triangle(tuple(triangle_rows(omega_rule(), n_max)))


def count_avoiders(n: int) -> int:
    """Number of 1-32-4 avoiders of length n.

    >>> [count_avoiders(n) for n in range(8)]
    [1, 1, 2, 6, 23, 105, 549, 3207]
    """
    if n < 0:
        raise ValueError(f"length must be nonnegative: {n}")
    return avoider_counts(n)[n]


def avoider_counts(n_max: int) -> list[int]:
    """Counting sequence for lengths 0..n_max: the row sums of u, summed
    as ``triangle_rows`` yields them, so only one row is held."""
    return [sum(row.values()) for row in triangle_rows(lambda_rule(), n_max)]


def callan_3142_triangle(n_max: int) -> Triangle:
    """Avoiders of 31-4-2 of length n counted by first letter k.

    Rows follow the recursion a(n,n) = a(n-1) and, for 1 <= k <= n-1,

        a(n,k) = sum_{i<k} a(i) * sum_{j=k-i}^{n-1-i} a(n-1-i, j)

    where a(m) is the m-th row sum and a(0) = 1.  Each inner sum is a
    suffix sum of row n-1-i, kept for every row, so the triangle takes
    O(n_max^3) steps.  Row 0 is empty.

    >>> callan_3142_triangle(4).row(4)
    {1: 6, 2: 6, 3: 5, 4: 6}
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative: {n_max}")
    rows: list[dict[int, int]] = [{}]
    sums = [1]
    # suffix[m][j] = sum of a(m, j') over j' >= j, for 1 <= j <= m + 1
    suffix: list[list[int]] = [[0, 0]]
    for n in range(1, n_max + 1):
        row = {k: sum(sums[i] * suffix[n - 1 - i][k - i] for i in range(k)) for k in range(1, n)}
        row[n] = sums[n - 1]
        suf = [0] * (n + 2)
        for k in range(n, 0, -1):
            suf[k] = suf[k + 1] + row[k]
        rows.append(row)
        suffix.append(suf)
        sums.append(suf[1])
    return Triangle(tuple(rows))


def callan_3142(n_max: int) -> list[int]:
    """Counting sequence of 31-4-2 avoiders for lengths 0..n_max.

    >>> callan_3142(8)
    [1, 1, 2, 6, 23, 104, 531, 2982, 18109]
    """
    tri = callan_3142_triangle(n_max)
    return [1] + [tri.row_sum(n) for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# univariate series and the continued fraction


def continued_fraction_series(n_max: int) -> tuple[int, ...]:
    """Coefficients of z^0..z^n_max in u(z) = 1 - z(U(0) - z) with
    U(m) = 1 - z^m - z/U(m+1).

    Every U(m) with m >= 1 that gets inverted has constant term 1, so its
    inverse comes from inv[i] = -sum(U[j] * inv[i-j] for j in 1..i) with no
    division: the arithmetic stays in integers, exactly.

    The fraction is cut at depth n_max + 2, where U is taken as 1.  The
    true U there differs from 1 from z^1 on, and each level up multiplies
    that difference by z, so a cut at depth D moves u only from z^(D+2)
    on.  Depth n_max - 1 is thus the shallowest exact cut (checked for
    every order 3..40), and n_max + 2 leaves a margin of three orders.

    >>> continued_fraction_series(6)
    (1, 0, 2, 2, 5, 15, 48)
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative: {n_max}")
    level = [1] + [0] * n_max
    for m in range(n_max + 1, -1, -1):
        inv = [1] + [0] * n_max
        for i in range(1, n_max + 1):
            inv[i] = -sum(level[j] * inv[i - j] for j in range(1, i + 1))
        # U(m) = 1 - z * inv - z^m
        level = [1] + [-c for c in inv[:n_max]]
        if m <= n_max:
            level[m] -= 1
    # u(z) = 1 - z * (U(0) - z)
    out = [1] + [-c for c in level[:n_max]]
    if n_max >= 2:
        out[2] += 1
    return tuple(out)


class CfracComparison(NamedTuple):
    series: tuple[int, ...]
    counts: tuple[int, ...]
    first_mismatch: int | None

    def __str__(self) -> str:
        if self.first_mismatch is None:
            return f"continued fraction matches counts through order {len(self.counts) - 1}"
        i = self.first_mismatch
        return (
            f"continued fraction disagrees with counts from order {i}: "
            f"series {self.series[i]} vs count {self.counts[i]}"
        )


def compare_cfrac_with_counts(n_max: int) -> CfracComparison:
    """Continued fraction coefficients next to the avoider counts.

    The two disagree from order 1 on; the comparison records that rather
    than hiding it.

    >>> compare_cfrac_with_counts(4).first_mismatch
    1
    """
    series = continued_fraction_series(n_max)
    counts = tuple(avoider_counts(n_max))
    first = next((i for i in range(n_max + 1) if series[i] != counts[i]), None)
    return CfracComparison(series, counts, first)


# ---------------------------------------------------------------------------
# label series, functional equation, boundary differential equation


def label_series(n_max: int) -> Triangle:
    """The tree's label census in ``v_triangle``'s shape: row 0 is
    {-1: 1} for the empty word, and row n counts, in increasing k, the
    labels of the words of length n in one ``gentree.walk(n_max)``.

    >>> label_series(3).rows
    ({-1: 1}, {0: 1}, {0: 1, 1: 1}, {0: 2, 1: 3, 2: 1})
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative: {n_max}")
    rows = [Counter([label(ROOT)])] + [Counter() for _ in range(n_max - 1)]
    for node, children in walk(n_max):
        rows[len(node)].update(map(label, children))
    return Triangle(({-1: 1}, *(dict(sorted(row.items())) for row in rows[:n_max])))


class ResidualReport(NamedTuple):
    ok: bool
    order: int
    first_bad: tuple[tuple[int, int], int] | None

    def __str__(self) -> str:
        if self.ok:
            return f"residual vanishes through order {self.order}"
        (n, k), c = self.first_bad  # type: ignore[misc]
        return f"residual has {c} * z^{n} u^{k}"


def check_functional_equation(n_max: int) -> ResidualReport:
    """Verify A(z,u) = A(0,u) + z * L(A(z,u)) on the tree's label census A
    through order n_max, with L the label transform of ``omega_rule``: u^k
    becomes the sum of u^e over the productions e of k, and the empty
    word's term becomes u^0.  n_max must be at least 1.

    Row n of the equation reads A_n = L(A_{n-1}).  The rows v_n of
    ``v_triangle`` satisfy it by construction (v_1 = {0: 1} is L of the
    empty word, each later row one step of the rule's census), so the
    residual is compared row by row with v: below the first row n where
    the census and v differ, A_{n-1} = v_{n-1}, so every earlier row of
    the residual A_n - L(A_{n-1}) is 0 and row n of it is A_n - v_n.  The
    first nonzero (n, k) of census minus v is thus the residual's first
    nonzero term.
    """
    if n_max < 1:
        raise ValueError(f"need at least order 1: {n_max}")
    census, v = label_series(n_max), v_triangle(n_max)
    for n in range(1, n_max + 1):
        a, b = census.rows[n], v.rows[n]
        for k in sorted(a.keys() | b.keys()):
            c = a.get(k, 0) - b.get(k, 0)
            if c:
                return ResidualReport(False, n_max, ((n, k), c))
    return ResidualReport(True, n_max, None)


PDE_CONVENTIONS = (
    "label-plus-one",
    "label",
    "label-plus-one-with-empty",
    "label-with-empty",
)


def _pde_first_residual(census: Triangle, convention: str) -> tuple[tuple[int, int], int] | None:
    """The lowest nonzero term c z^n t^m of the differential equation's
    residual, as ((n, m), c), or None when it vanishes.  Row n of the
    residual is

        (1-t)^2 F_n + t^2(1-t) F'_{n-1} + t^2(2-t) F_{n-1}
            - t F_{n-1}(1) - [n=1] t(1-t)^2

    with F_n row n of the census as a polynomial in t under the
    convention.  Labels are nonnegative, so t^0 is the lowest power.
    """
    shift = 1 if convention.startswith("label-plus-one") else 0
    empty = {0: 1} if convention.endswith("with-empty") else {}
    rows = [empty, *({k + shift: c for k, c in row.items()} for row in census.rows[1:])]
    prev: dict[int, int] = {}
    for n, f in enumerate(rows):
        cur, old = f.get, prev.get
        for m in range(max([*f, *prev], default=0) + 4):
            # t^m in (1-t)^2 F_n, then in t^2(1-t) F'_{n-1} + t^2(2-t) F_{n-1}
            c = cur(m, 0) - 2 * cur(m - 1, 0) + cur(m - 2, 0)
            c += (m - 1) * old(m - 1, 0) - (m - 4) * old(m - 2, 0) - old(m - 3, 0)
            if m == 1:
                c -= sum(prev.values())
            if n == 1 and 1 <= m <= 3:
                c -= (1, -2, 1)[m - 1]
            if c:
                return (n, m), c
        prev = f
    return None


class PdeReport(NamedTuple):
    ok: bool
    convention: str | None
    order: int
    tried: tuple[tuple[str, tuple[tuple[int, int], int] | None], ...]

    def __str__(self) -> str:
        if self.ok:
            return f"differential equation holds through z^{self.order} with t^({self.convention})"
        return f"differential equation fails through z^{self.order} for all conventions tried"


def check_pde(n_max: int) -> PdeReport:
    """Residual check of

        (1-t) z t^2 dF/dt + ((1-t)^2 (1-zt) + zt) F = zt(1-t)^2 + zt F(z,1)

    for the census series F under each t-exponent convention in
    ``PDE_CONVENTIONS``.  The first convention that makes the residual
    vanish through z^n_max is reported; with the label census one of them
    does, namely t^(label+1) and no empty term.  n_max must be at least 1.
    """
    if n_max < 1:
        raise ValueError(f"need at least order 1: {n_max}")
    census = v_triangle(n_max)
    tried: list[tuple[str, tuple[tuple[int, int], int] | None]] = []
    winner: str | None = None
    for convention in PDE_CONVENTIONS:
        first_bad = _pde_first_residual(census, convention)
        tried.append((convention, first_bad))
        if first_bad is None and winner is None:
            winner = convention
    return PdeReport(winner is not None, winner, n_max, tuple(tried))
