"""Exact linear programming over rationals.

A small dense two-phase simplex with Bland's anticycling rule. Everything is
``fractions.Fraction`` arithmetic: witnesses satisfy their constraints with
identically zero residual, so callers can compare optima against game values
with plain ``==`` and ``>=``.

Constraint rows are put into a canonical order before solving, which makes
the outcome (including the witness) independent of the order callers listed
them in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CapExceeded, InputError
from .game import Game
from .rational import Rational, exact, format_rational

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = (LE, EQ, GE)

BALANCE_LP_MAX_N = 12  # the covering LP has 2^n - 1 variables

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
    """Variables ``x_0..x_{m-1}``, optional per-variable bounds, and rows
    ``coeffs . x (<=|=|>=) rhs``. ``sense`` is max, min, or feasibility."""

    __slots__ = ("num_vars", "sense", "objective", "constraints", "lower", "upper")

    def __init__(self, num_vars: int, sense: str = "feasibility",
                 objective: Sequence[Rational] | None = None,
                 constraints: Sequence[tuple] = (),
                 lower: Sequence[Rational | None] | None = None,
                 upper: Sequence[Rational | None] | None = None):
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
        self.num_vars = num_vars
        self.sense = sense
        self.objective = objective
        self.constraints = tuple(rows)
        self.lower = _bounds(num_vars, lower)
        self.upper = _bounds(num_vars, upper)

    def debug_format(self) -> str:
        """Plain-text dump, one constraint per line."""
        lines = []
        if self.sense == "feasibility":
            lines.append("feasibility")
        else:
            lines.append(f"{self.sense} {_linear_text(self.objective)}")
        for coeffs, rel, rhs in self.constraints:
            lines.append(f"  {_linear_text(coeffs)} {rel} {format_rational(rhs)}")
        for j in range(self.num_vars):
            lo, hi = self.lower[j], self.upper[j]
            if lo is None and hi is None:
                continue
            left = format_rational(lo) + " <= " if lo is not None else ""
            right = " <= " + format_rational(hi) if hi is not None else ""
            lines.append(f"  {left}x{j}{right}")
        return "\n".join(lines) + "\n"


def _bounds(num_vars, seq):
    if seq is None:
        return (None,) * num_vars
    out = tuple(None if b is None else exact(b) for b in seq)
    if len(out) != num_vars:
        raise InputError("bounds length does not match variable count")
    return out


def _linear_text(coeffs) -> str:
    terms = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        terms.append(f"{format_rational(c)}*x{j}")
    return " + ".join(terms) if terms else "0"


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
    for j in range(lp.num_vars):
        lo, hi = lp.lower[j], lp.upper[j]
        if lo is not None and hi is not None and lo > hi:
            return LpOutcome("infeasible", None, None)

    rows = sorted(lp.constraints, key=_row_key)

    # substitute bounded and free variables so every column is nonnegative
    colmap = []
    ncols = 0
    bound_rows = []
    for j in range(lp.num_vars):
        lo, hi = lp.lower[j], lp.upper[j]
        if lo is not None:
            colmap.append(("lo", ncols, lo))
            if hi is not None:
                bound_rows.append((ncols, Fraction(hi - lo)))
            ncols += 1
        elif hi is not None:
            colmap.append(("hi", ncols, hi))
            ncols += 1
        else:
            colmap.append(("free", ncols, None))
            ncols += 2

    trows = []
    for coeffs, rel, rhs in rows:
        row = [_F0] * ncols
        b = Fraction(rhs)
        for j, a in enumerate(coeffs):
            if a == 0:
                continue
            mode, c, k = colmap[j]
            if mode == "lo":
                row[c] += a
                b -= a * k
            elif mode == "hi":
                row[c] -= a
                b -= a * k
            else:
                row[c] += a
                row[c + 1] -= a
        trows.append((row, rel, b))
    for c, ub in bound_rows:
        row = [_F0] * ncols
        row[c] = _F1
        trows.append((row, LE, ub))

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
            mode, c, _ = colmap[j]
            if mode == "lo":
                cost2[c] += sign * cj
            elif mode == "hi":
                cost2[c] -= sign * cj
            else:
                cost2[c] += sign * cj
                cost2[c + 1] -= sign * cj
        if _simplex(tableau, basic, cost2) == "unbounded":
            return LpOutcome("unbounded", None, None)

    y = [_F0] * art_start
    for i, b in enumerate(basic):
        y[b] = tableau[i][-1]
    xs = []
    for j in range(lp.num_vars):
        mode, c, k = colmap[j]
        if mode == "lo":
            xs.append(exact(y[c] + k))
        elif mode == "hi":
            xs.append(exact(k - y[c]))
        else:
            xs.append(exact(y[c] - y[c + 1]))
    if lp.sense == "feasibility":
        return LpOutcome("optimal", None, tuple(xs))
    value = exact(sum(cj * xj for cj, xj in zip(lp.objective, xs)))
    return LpOutcome("optimal", value, tuple(xs))


def balancedness_value(game: Game) -> Rational:
    """Optimum of the fractional covering program: one weight per coalition,
    each player covered with total weight exactly 1, value-weighted sum
    maximized. The grand value meets or beats it exactly when the strong
    core is nonempty."""
    if game.n > BALANCE_LP_MAX_N:
        raise CapExceeded(f"covering LP needs 2^{game.n}-1 variables; "
                          f"guard is n <= {BALANCE_LP_MAX_N}")
    full = game.full
    vals = game._values
    objective = [vals[mask] for mask in range(1, full + 1)]
    constraints = []
    for i in range(game.n):
        bit = 1 << i
        row = [1 if mask & bit else 0 for mask in range(1, full + 1)]
        constraints.append((row, EQ, 1))
    lp = LinearProgram(full, sense="max", objective=objective,
                       constraints=constraints, lower=[0] * full)
    out = lp_solve(lp)
    if out.status != "optimal":  # singleton cover is feasible, weights are <= 1
        raise AssertionError(f"covering LP reported {out.status}")
    return out.value
