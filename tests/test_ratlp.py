import random
from fractions import Fraction

import pytest

from coalstab import (Game, InputError, LinearProgram, balancedness_value,
                      lp_solve, strong_core_contains, strong_core_nonempty,
                      optimal_structure_value, ratlp)
from helpers import (adversarial_game, balancedness_oracle, brute_lp_max, covering_value,
                     random_game)

LE, EQ, GE = "<=", "=", ">="


def test_trivial_bounded_max():
    lp = LinearProgram(1, sense="max", objective=[1],
                       constraints=[([1], LE, 3)], lower=[0])
    out = lp_solve(lp)
    assert out.status == "optimal" and out.value == 3 and out.witness == (3,)


def test_trivial_infeasible():
    lp = LinearProgram(2, constraints=[([1, 1], EQ, 6)], lower=[5, 5])
    assert lp_solve(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(1, sense="max", objective=[1], lower=[0])
    assert lp_solve(lp).status == "unbounded"
    lp2 = LinearProgram(2, sense="min", objective=[1, 0],
                        constraints=[([1, 1], LE, 4)])
    assert lp_solve(lp2).status == "unbounded"


def test_feasibility_witness_is_exact():
    lp = LinearProgram(3, constraints=[([1, 1, 1], EQ, Fraction(7, 3)),
                                       ([1, -1, 0], GE, Fraction(1, 2))],
                       lower=[0, 0, 0])
    out = lp_solve(lp)
    assert out.status == "optimal" and out.value is None
    x = out.witness
    assert sum(x) == Fraction(7, 3) and x[0] - x[1] >= Fraction(1, 2)
    assert all(v >= 0 for v in x)


def test_free_variables_and_upper_bounds():
    lp = LinearProgram(2, sense="min", objective=[1, 1],
                       constraints=[([1, 1], GE, -5), ([1, 0], LE, 10), ([0, 1], LE, 10)])
    out = lp_solve(lp)
    assert out.status == "optimal" and out.value == -5

    lp2 = LinearProgram(1, sense="max", objective=[1], constraints=[([1], LE, 7)], lower=[2])
    out2 = lp_solve(lp2)
    assert out2.value == 7 and out2.witness == (7,)


def test_validation():
    with pytest.raises(InputError):
        LinearProgram(2, sense="max")  # objective missing
    with pytest.raises(InputError):
        LinearProgram(2, constraints=[([1], LE, 0)])
    with pytest.raises(InputError):
        LinearProgram(2, constraints=[([1, 1], "<", 0)])
    with pytest.raises(InputError):
        LinearProgram(2, lower=[0])


def test_row_permutation_invariance():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(2, 4)
        rows = []
        for _ in range(rng.randint(2, 6)):
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            rows.append((coeffs, rng.choice((LE, GE, EQ)), rng.randint(-4, 8)))
        for j in range(n):
            rows.append(([1 if i == j else 0 for i in range(n)], LE, 6))
        obj = [rng.randint(-3, 3) for _ in range(n)]
        base = lp_solve(LinearProgram(n, sense="max", objective=obj,
                                      constraints=rows, lower=[0] * n))
        for _ in range(3):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            again = lp_solve(LinearProgram(n, sense="max", objective=obj,
                                           constraints=shuffled, lower=[0] * n))
            assert again == base


def test_against_vertex_enumeration_oracle():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 3)
        rows = [([rng.randint(-3, 3) for _ in range(n)], rng.choice((LE, GE)),
                 rng.randint(-4, 8)) for _ in range(rng.randint(1, 4))]
        # box rows keep the polytope bounded so the vertex oracle is complete
        for j in range(n):
            unit = [1 if i == j else 0 for i in range(n)]
            rows.append((unit, LE, 7))
            rows.append((unit, GE, -7))
        obj = [rng.randint(-3, 3) for _ in range(n)]
        got = lp_solve(LinearProgram(n, sense="max", objective=obj, constraints=rows))
        expected = brute_lp_max(n, obj, rows)
        if expected is None:
            assert got.status == "infeasible"
        else:
            assert got.status == "optimal"
            assert got.value == expected
            for coeffs, rel, rhs in rows:
                lhs = sum(a * x for a, x in zip(coeffs, got.witness))
                assert (lhs <= rhs if rel == LE else lhs >= rhs)


def test_duality_spot_check():
    rng = random.Random(5)
    for _ in range(25):
        n, m = rng.randint(2, 3), rng.randint(2, 3)
        A = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(1, 8) for _ in range(m)]
        c = [rng.randint(0, 4) for _ in range(n)]
        primal = lp_solve(LinearProgram(
            n, sense="max", objective=c,
            constraints=[(A[i], LE, b[i]) for i in range(m)], lower=[0] * n))
        dual = lp_solve(LinearProgram(
            m, sense="min", objective=b,
            constraints=[([A[i][j] for i in range(m)], GE, c[j]) for j in range(n)],
            lower=[0] * m))
        assert primal.status == "optimal" and dual.status == "optimal"
        assert primal.value == dual.value


def test_balancedness_examples(game_a, game_b):
    assert balancedness_value(game_a) == Fraction(15, 2)
    assert balancedness_value(game_b) == 10
    assert balancedness_value(Game(1, {0b1: 9})) == 9


def test_balancedness_against_vertex_oracle():
    rng = random.Random(23)
    for _ in range(12):
        g = random_game(rng, 3)
        assert balancedness_value(g) == balancedness_oracle(g)


def test_balancedness_cap():
    # no guard of its own below the player cap: the all-zero game needs one
    # 13-variable solve
    assert balancedness_value(Game(13, cap=13)) == 0


def test_balancedness_matches_covering_program():
    rng = random.Random(29)
    for n in range(1, 8):
        for _ in range(12 if n < 7 else 3):
            for g in (random_game(rng, n), adversarial_game(rng, n)):
                assert balancedness_value(g) == covering_value(g)


def test_balancedness_solves_few_n_variable_programs(monkeypatch):
    """Row generation on the n-variable dual: the 12-player adversarial game
    that took minutes as a 4,095-variable covering program takes 16 solves
    of 12 variables each. The counts and values are pinned, so a change to
    the shared witness search that does more work shows here."""
    widths = []
    solve = ratlp.lp_solve

    def counted(lp):
        widths.append(lp.num_vars)
        return solve(lp)

    monkeypatch.setattr(ratlp, "lp_solve", counted)
    for n, solves, expected in ((8, 12, 454), (10, 12, 768), (12, 16, Fraction(12780, 11))):
        g = adversarial_game(random.Random(7), n)
        widths.clear()
        value = balancedness_value(g)
        assert set(widths) == {n} and len(widths) == solves
        assert value == expected
        assert value > g.value(g.full) and value >= optimal_structure_value(g)[0]


def test_bondareva_shapley_and_chain():
    rng = random.Random(31)
    for n in (2, 3, 4, 5, 6):
        for _ in range(25):
            g = random_game(rng, n)
            plus = covering_value(g)
            zero, _ = optimal_structure_value(g)
            assert zero <= plus
            nonempty, witness = strong_core_nonempty(g)
            assert nonempty == (g.value(g.full) >= plus)
            if nonempty:
                assert strong_core_contains(g, witness).member
