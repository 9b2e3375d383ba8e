"""Exact linear programming over rationals.

A small dense two-phase simplex with Bland's anticycling rule. Everything is
``fractions.Fraction`` arithmetic: witnesses satisfy their constraints with
identically zero residual, so callers can compare optima against game values
with plain ``==`` and ``>=``.

Each variable takes an optional lower bound; a variable without one is
free. Constraint rows are put into a canonical order before solving, which
makes the outcome (including the witness) independent of the order callers
listed them in.

Every program the library solves is built by :func:`_feasible_with`: the
strong core's n-variable covering system over the coalitions that
:func:`_witness_search` requires so far, with the efficiency row (core
nonemptiness) or with x(N) minimized in its place (:func:`balancedness_value`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import InputError
from .game import Game, _most_short
from .rational import Rational, exact

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = (LE, EQ, GE)

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class LpOutcome:
    """Result of a solve: ``status`` is optimal, infeasible, or unbounded.

    ``value`` is the exact optimum (None for feasibility-only problems) and
    ``witness`` an exact feasible point attaining it.
    """

    status: str
    value: Rational | None
    witness: tuple | None


class LinearProgram:
    """Variables ``x_0..x_{m-1}``, optional per-variable lower bounds (a
    variable without one is free), and rows ``coeffs . x (<=|=|>=) rhs``.
    ``sense`` is max, min, or feasibility."""

    __slots__ = ("num_vars", "sense", "objective", "constraints", "lower")

    def __init__(self, num_vars: int, sense: str = "feasibility",
                 objective: Sequence[Rational] | None = None,
                 constraints: Sequence[tuple] = (),
                 lower: Sequence[Rational | None] | None = None):
        if not isinstance(num_vars, int) or num_vars < 1:
            raise InputError(f"variable count must be a positive int, got {num_vars!r}")
        if sense not in ("max", "min", "feasibility"):
            raise InputError(f"unknown sense {sense!r}")
        if sense != "feasibility":
            if objective is None:
                raise InputError(f"sense {sense!r} needs an objective")
            objective = tuple(exact(c) for c in objective)
            if len(objective) != num_vars:
                raise InputError("objective length does not match variable count")
        else:
            objective = None
        rows = []
        for coeffs, rel, rhs in constraints:
            row = tuple(exact(c) for c in coeffs)
            if len(row) != num_vars:
                raise InputError("constraint row length does not match variable count")
            if rel not in _RELATIONS:
                raise InputError(f"unknown relation {rel!r}")
            rows.append((row, rel, exact(rhs)))
        if lower is None:
            lower = (None,) * num_vars
        else:
            lower = tuple(None if b is None else exact(b) for b in lower)
            if len(lower) != num_vars:
                raise InputError("bounds length does not match variable count")
        self.num_vars = num_vars
        self.sense = sense
        self.objective = objective
        self.constraints = tuple(rows)
        self.lower = lower


def _row_key(row):
    coeffs, rel, rhs = row
    return (rel, rhs, coeffs)


def _pivot(tableau, z, basic, leave, enter):
    prow = tableau[leave]
    inv = _F1 / prow[enter]
    if inv != 1:
        tableau[leave] = prow = [a * inv for a in prow]
    for i, row in enumerate(tableau):
        if i == leave:
            continue
        f = row[enter]
        if f:
            tableau[i] = [a - f * b if b else a for a, b in zip(row, prow)]
    f = z[enter]
    if f:
        z[:] = [a - f * b if b else a for a, b in zip(z, prow)]
    basic[leave] = enter


def _simplex(tableau, basic, cost):
    """Maximize ``cost . columns`` with Bland's rule; returns optimal|unbounded."""
    width = len(tableau[0]) if tableau else len(cost) + 1
    z = list(cost) + [_F0] * (width - len(cost))
    for i, b in enumerate(basic):
        cb = cost[b] if b < len(cost) else _F0
        if cb:
            row = tableau[i]
            z = [a - cb * r for a, r in zip(z, row)]
    while True:
        enter = -1
        for c in range(width - 1):
            if z[c] > 0:
                enter = c
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = best_basic = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basic[i] < best_basic):
                    best, leave, best_basic = ratio, i, basic[i]
        if leave < 0:
            return "unbounded"
        _pivot(tableau, z, basic, leave, enter)


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; every outcome is encoded in the status, never raised."""
    rows = sorted(lp.constraints, key=_row_key)

    # shift lower-bounded variables to zero and split free ones in two, so
    # every column is nonnegative: colmap[j] is (first column, lower bound)
    colmap = []
    ncols = 0
    for lo in lp.lower:
        colmap.append((ncols, lo))
        ncols += 1 if lo is not None else 2

    trows = []
    for coeffs, rel, rhs in rows:
        row = [_F0] * ncols
        b = Fraction(rhs)
        for j, a in enumerate(coeffs):
            if a == 0:
                continue
            c, lo = colmap[j]
            row[c] += a
            if lo is not None:
                b -= a * lo
            else:
                row[c + 1] -= a
        trows.append((row, rel, b))

    # normalize to rhs >= 0; a >= row with zero rhs flips into <= so its
    # surplus can start as the basic variable
    std = []
    for row, rel, b in trows:
        if b < 0 or (b == 0 and rel == GE):
            row = [-a for a in row]
            b = -b
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        std.append((row, rel, b))

    nslack = sum(1 for _, rel, _ in std if rel != EQ)
    nart = sum(1 for _, rel, _ in std if rel != LE)
    art_start = ncols + nslack
    width = art_start + nart + 1

    tableau = []
    basic = []
    s_at = ncols
    a_at = art_start
    for row, rel, b in std:
        r = row + [_F0] * (nslack + nart) + [b]
        if rel == LE:
            r[s_at] = _F1
            basic.append(s_at)
            s_at += 1
        elif rel == GE:
            r[s_at] = -_F1
            r[a_at] = _F1
            basic.append(a_at)
            s_at += 1
            a_at += 1
        else:
            r[a_at] = _F1
            basic.append(a_at)
            a_at += 1
        tableau.append(r)

    if nart:
        cost1 = [_F0] * art_start + [-_F1] * nart
        _simplex(tableau, basic, cost1)
        if any(tableau[i][-1] != 0 for i in range(len(tableau)) if basic[i] >= art_start):
            return LpOutcome("infeasible", None, None)
        # pivot leftover zero-level artificials out, dropping redundant rows
        keep = []
        for i in range(len(tableau)):
            if basic[i] >= art_start:
                enter = next((c for c in range(art_start) if tableau[i][c] != 0), None)
                if enter is None:
                    continue
                _pivot(tableau, [_F0] * width, basic, i, enter)
            keep.append(i)
        tableau = [tableau[i][:art_start] + [tableau[i][-1]] for i in keep]
        basic = [basic[i] for i in keep]

    if lp.sense != "feasibility":
        cost2 = [_F0] * art_start
        sign = _F1 if lp.sense == "max" else -_F1
        for j, cj in enumerate(lp.objective):
            if cj == 0:
                continue
            c, lo = colmap[j]
            cost2[c] += sign * cj
            if lo is None:
                cost2[c + 1] -= sign * cj
        if _simplex(tableau, basic, cost2) == "unbounded":
            return LpOutcome("unbounded", None, None)

    y = [_F0] * art_start
    for i, b in enumerate(basic):
        y[b] = tableau[i][-1]
    xs = [exact(y[c] + lo if lo is not None else y[c] - y[c + 1]) for c, lo in colmap]
    if lp.sense == "feasibility":
        return LpOutcome("optimal", None, tuple(xs))
    value = exact(sum(cj * xj for cj, xj in zip(lp.objective, xs)))
    return LpOutcome("optimal", value, tuple(xs))


def _feasible_with(game: Game, required: Iterable[int],
                   minimize: bool = False) -> tuple | None:
    """Witness of the strong core's covering system restricted to the
    coalitions in ``required``: singleton lower bounds, one row
    x(S) >= v(S) per other required mask, and the efficiency row
    x(N) = v(N), or with ``minimize`` the least x(N) in its place."""
    vals = game._values
    n = game.n
    rows = [([c >> i & 1 for i in range(n)], GE, vals[c])
            for c in required if c & (c - 1)]  # singletons are lower bounds
    if not minimize:
        rows.append(([1] * n, EQ, vals[game.full]))
    out = lp_solve(LinearProgram(n, sense="min" if minimize else "feasibility",
                                 objective=[1] * n if minimize else None,
                                 constraints=rows, lower=[vals[1 << i] for i in range(n)]))
    return out.witness if out.status == "optimal" else None


def _witness_search(game: Game, cut: Callable[[tuple], Sequence[int]],
                    minimize: bool = False) -> tuple | None:
    """Depth-first search over sets of coalitions required to be satisfied.

    Each node solves :func:`_feasible_with`; an infeasible node is dropped.
    ``cut(w)`` names coalitions the witness ``w`` leaves short, at least one
    of which every core member satisfies; an empty cut means ``w`` is a
    member and is returned. Each child requires one more of those
    coalitions, first one first. ``w`` meets every required coalition, so
    requirement sets strictly grow and the search ends; a member meeting a
    node's requirements meets some child's, so the search is complete.
    """
    seen = {frozenset()}
    stack = [frozenset()]
    while stack:
        required = stack.pop()
        w = _feasible_with(game, required, minimize)
        if w is None:
            continue
        short = cut(w)
        if not short:
            return w
        for c in reversed(short):
            child = required | {c}
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return None


def balancedness_value(game: Game) -> Rational:
    """Optimum of the fractional covering program: one weight per coalition,
    each player covered with total weight exactly 1, value-weighted sum
    maximized. The grand value meets or beats it exactly when the strong
    core is nonempty (Bondareva 1963, Shapley 1967).

    Solved through the program's n-variable dual, min x(N) subject to
    x(S) >= v(S): the strong core's row generation, the coalition the
    optimum leaves most short added each round (the grand coalition
    included), with that objective in place of the efficiency row.
    """
    w = _witness_search(game, lambda w: _most_short(game._values, w, game.n), minimize=True)
    if w is None:  # the lower bounds keep x(N) bounded below
        raise AssertionError("balancedness dual reported no optimum")
    return exact(sum(w))
