"""Shared oracles and samplers for the test suite.

Everything here is deliberately independent of the library's own algorithms:
enumeration by element insertion, linear algebra by Gaussian elimination,
optima by vertex enumeration. These are the slow-but-obvious routes the fast
implementations are checked against. :func:`dense_structure_table` is the
structure table that tries every first block, 3^n cells, against which the
library's pruned table is compared; :func:`best_coarsening_pairwise` runs it
once per forced pair-merge, :func:`weak_certificate_table` runs it over 0/-1
deficiency weights (what weak membership ran before its sparse cover), and
:func:`_unhit_partition` runs it over 0/-1 requirement weights. The
exceptions are :func:`fission_resistant_direct`, the direct scan of every
strict refinement over the library's refinement generator, which
:func:`checked_stable_contains` compares the per-block route against;
:func:`covering_value`, the whole (2^n - 1)-weight covering program through
the library's simplex, which shares no row generation with the strong-core
search; and :func:`weak_core_nonempty_unhit`, the library's earlier
weak-core search, which branches on unhit partitions over the library's
feasibility LP.
"""

from fractions import Fraction
from itertools import combinations
from math import prod

from coalstab import (CapExceeded, Game, LinearProgram, Partition, coalition_value,
                      equal_surplus_allocation, lp_solve, medium_core_nonempty, members,
                      stable_contains)
from coalstab.cores import _check_mode, _table_blocks
from coalstab.lattice import ENUMERATE_MAX_N, _iter_refinements_raw
from coalstab.ratlp import _feasible_with
from coalstab.stability import _require_feasible


# ---------------------------------------------------------------- counting

def bell_numbers(upto: int) -> list[int]:
    """Bell numbers B(0)..B(upto) via the Bell triangle."""
    out = [1]
    row = [1]
    for _ in range(upto):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        out.append(nxt[0])
        row = nxt
    return out


# ------------------------------------------------------- brute enumeration

def partitions_by_insertion(n: int) -> list[tuple[int, ...]]:
    """All partitions of n players as sorted block-mask tuples, built by
    inserting one player at a time."""
    parts = [()]
    for i in range(n):
        bit = 1 << i
        nxt = []
        for p in parts:
            nxt.append(p + (bit,))
            for k in range(len(p)):
                nxt.append(p[:k] + (p[k] | bit,) + p[k + 1:])
        parts = nxt
    return [tuple(sorted(p, key=lambda b: b & -b)) for p in parts]


def refines_oracle(p_blocks, q_blocks) -> bool:
    """Strict refinement: strictly more blocks, every p-block inside a q-block."""
    if len(p_blocks) <= len(q_blocks):
        return False
    return all(any(b & q == b for q in q_blocks) for b in p_blocks)


# ------------------------------------------------- structure table, dense

def _canonical_prefer(a: int, b: int) -> bool:
    """True when mask ``a`` precedes ``b``: the lowest differing player sits in ``a``."""
    d = a ^ b
    return bool(a & (d & -d))


def dense_structure_table(values, nplayers: int):
    """(worth, block count, first block) per mask by trying every first
    block that holds the mask's lowest player: 3^n cells, the same tie rule
    as ``subset_structure_table``, which must return this table exactly."""
    full = (1 << nplayers) - 1
    val = [0] * (full + 1)
    nblocks = [0] * (full + 1)
    first = [0] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        rest = s ^ low
        best_v = values[s]
        best_nb = 1
        best_t = s
        if rest:
            sub = (rest - 1) & rest
            while True:
                t = low | sub
                cand = values[t] + val[s ^ t]
                if cand > best_v:
                    best_v, best_nb, best_t = cand, 1 + nblocks[s ^ t], t
                elif cand == best_v:
                    nb = 1 + nblocks[s ^ t]
                    if nb < best_nb or (nb == best_nb and _canonical_prefer(t, best_t)):
                        best_nb, best_t = nb, t
                if sub == 0:
                    break
                sub = (sub - 1) & rest
        val[s] = best_v
        nblocks[s] = best_nb
        first[s] = best_t
    return val, nblocks, first


# ------------------------------------------------ membership, the long way

def allocation_sums(x, n):
    size = 1 << n
    out = [0] * size
    for s in range(1, size):
        low = s & -s
        out[s] = out[s ^ low] + x[low.bit_length() - 1]
    return out


def in_efficient_set(game: Game, x) -> bool:
    return (all(x[i] >= coalition_value(game, 1 << i) for i in range(game.n))
            and sum(x) == coalition_value(game, game.full))


def strong_member_partition_scan(game: Game, x) -> bool:
    """Strong core by the all-partitions route: every block of every
    non-grand partition is satisfied."""
    if not in_efficient_set(game, x):
        return False
    sums = allocation_sums(x, game.n)
    for blocks in partitions_by_insertion(game.n):
        if len(blocks) == 1:
            continue
        if any(sums[b] < game.value(b) for b in blocks):
            return False
    return True


def medium_member_partition_scan(game: Game, x) -> bool:
    """Medium core by partition-sum comparison against every non-grand partition."""
    if not in_efficient_set(game, x):
        return False
    total = sum(x)
    for blocks in partitions_by_insertion(game.n):
        if len(blocks) == 1:
            continue
        if total < sum(game.value(b) for b in blocks):
            return False
    return True


def weak_member_partition_scan(game: Game, x) -> bool:
    """Weak core by scanning all non-grand partitions for a satisfied block."""
    if not in_efficient_set(game, x):
        return False
    sums = allocation_sums(x, game.n)
    for blocks in partitions_by_insertion(game.n):
        if len(blocks) == 1:
            continue
        if not any(sums[b] >= game.value(b) for b in blocks):
            return False
    return True


def weak_nonempty_oracle_n3(game: Game) -> bool:
    """Exhaustive weak-core nonemptiness for 3-player games.

    Enumerates every subset of the 6 proper coalitions as the satisfied set,
    keeps the ones hitting every non-grand partition, and checks each for
    feasibility in closed form: singleton constraints become lower bounds,
    pair constraints become upper bounds on the third player, and the fixed
    total makes the box test exact.
    """
    assert game.n == 3
    v = game.value
    total = v(0b111)
    propers = [1, 2, 3, 4, 5, 6]
    nongrand = [bl for bl in partitions_by_insertion(3) if len(bl) > 1]
    for k in range(len(propers) + 1):
        for chosen in combinations(propers, k):
            sat = set(chosen)
            if not all(any(b in sat for b in bl) for bl in nongrand):
                continue
            lo = [v(1 << i) for i in range(3)]
            hi = [None, None, None]
            for c in chosen:
                if c.bit_count() == 1:
                    continue  # implied by individual rationality
                # x_i + x_j >= v(c) with the total fixed caps the third player
                third = (0b111 ^ c).bit_length() - 1
                bound = total - v(c)
                if hi[third] is None or bound < hi[third]:
                    hi[third] = bound
            if any(hi[i] is not None and hi[i] < lo[i] for i in range(3)):
                continue
            if sum(lo) > total:
                continue
            if all(h is not None for h in hi) and sum(hi) < total:
                continue
            return True
    return False


# ------------------------------------------- weak-core search, unhit partitions

def _unhit_partition(game: Game, required: frozenset) -> tuple[int, ...] | None:
    """A non-grand partition with no block in ``required``, fewest blocks
    first, canonical among those; None when every non-grand partition is hit."""
    full = game.full
    weights = [-1 if t in required or t == full else 0 for t in range(full + 1)]
    val, _, first = dense_structure_table(weights, game.n)
    return _table_blocks(first, full) if val[full] == 0 else None


def weak_certificate_table(game: Game, x) -> tuple[int, ...] | None:
    """The weak-core certificate of an efficient, individually rational
    ``x`` by the dense route: the structure table over weights 0 for strictly
    deficient coalitions and -1 for the rest, whose argmax is a fewest-block
    all-deficient partition when it is worth 0; None when none exists."""
    full = game.full
    sums = allocation_sums(x, game.n)
    weights = [0 if sums[t] < game.value(t) else -1 for t in range(full + 1)]
    val, _, first = dense_structure_table(weights, game.n)
    return _table_blocks(first, full) if val[full] == 0 else None


def weak_core_nonempty_unhit(game: Game) -> tuple[bool, tuple | None]:
    """Reference for ``weak_core_nonempty``: a complete branch-and-prune that
    ignores the LP witness. It grows a set of coalitions required to be
    satisfied: a node is pruned when the requirement set is infeasible,
    succeeds when it hits every non-grand partition, and otherwise branches
    on the blocks of an unhit partition. Singleton requirements are free
    (individual rationality implies them), so they seed the root."""
    n = game.n
    if medium_core_nonempty(game):
        return True, equal_surplus_allocation(game, Partition.grand(n))
    dead: set[frozenset] = set()

    def search(required: frozenset) -> tuple | None:
        if required in dead:
            return None
        witness = _feasible_with(game, required)
        if witness is None:
            dead.add(required)
            return None
        violating = _unhit_partition(game, required)
        if violating is None:
            return witness
        for b in violating:
            got = search(required | {b})
            if got is not None:
                return got
        dead.add(required)
        return None

    root = frozenset(1 << i for i in range(n))
    got = search(root)
    return (got is not None), got


# ------------------------------------------------- stability, cross-checked

def checked_stable_contains(game: Game, pair, mode):
    """``stable_contains`` with its answer checked: the fission verdict must
    equal the direct refinement scan, each certificate must be a
    strict refinement (fission) or coarsening (fusion) of the pair's
    partition, and it must defeat the pair under the mode's rule, checked
    here by hand."""
    report = stable_contains(game, pair, mode)
    if not report.feasible:
        assert report.fission_resistant is None and report.fusion_resistant is None
        return report
    assert report.stable == (report.fission_resistant and report.fusion_resistant)
    assert report.fission_resistant == fission_resistant_direct(game, pair, mode)
    assert (report.fission_certificate is None) == report.fission_resistant
    assert (report.fusion_certificate is None) == report.fusion_resistant
    own = pair.partition.blocks
    current = sum(game.value(b) for b in own)
    if report.fission_certificate is not None:
        ref = report.fission_certificate.blocks
        assert Partition(game.n, ref).blocks == ref and refines_oracle(ref, own)
        sums = allocation_sums(pair.allocation, game.n)
        new = [b for b in ref if b not in own]
        if mode == "strong":
            assert any(sums[b] < game.value(b) for b in new)
        elif mode == "medium":
            assert sum(game.value(b) for b in ref) > current
        else:
            assert all(sums[b] < game.value(b) for b in new)
    if report.fusion_certificate is not None:
        coarse = report.fusion_certificate.blocks
        assert Partition(game.n, coarse).blocks == coarse and refines_oracle(own, coarse)
        assert sum(game.value(b) for b in coarse) > current
    return report


def fission_resistant_direct(game: Game, pair, mode: str) -> bool:
    """Scan every strict refinement of the pair's partition and apply the
    mode's blocking rule to it. Costs the product of Bell(|b|) over the
    blocks, refused above Bell(ENUMERATE_MAX_N), the budget
    ``enumerate_stable_partitions`` allows."""
    _check_mode(mode)
    xs = _require_feasible(game, pair)
    blocks = pair.partition.blocks
    bell = bell_numbers(max(game.n, ENUMERATE_MAX_N))
    cost, budget = prod(bell[b.bit_count()] for b in blocks), bell[ENUMERATE_MAX_N]
    if cost > budget:
        raise CapExceeded(f"refusing to scan {cost} refinements "
                          f"(guard is Bell({ENUMERATE_MAX_N}) = {budget})")
    vals = game._values
    if mode == "medium":
        current = sum(vals[b] for b in blocks)
        return all(sum(vals[b] for b in ref) <= current
                   for ref in _iter_refinements_raw(blocks))
    sums = allocation_sums(xs, game.n)
    own = set(blocks)
    if mode == "strong":
        return not any(b not in own and sums[b] < vals[b]
                       for ref in _iter_refinements_raw(blocks) for b in ref)
    # weak: some new block of every refinement must hold out
    return all(any(b not in own and sums[b] >= vals[b] for b in ref)
               for ref in _iter_refinements_raw(blocks))


# ------------------------------------------------ coarsening, pair by pair

def best_coarsening_pairwise(game: Game, p: Partition):
    """Reference for ``best_coarsening``: every strict coarsening keeps some
    pair of blocks together, so force-merge each pair in turn, optimize the
    reduced quotient game with the structure table, and return the best worth
    with the smallest ``sort_key`` among the per-pair argmaxes."""
    blocks = p.blocks
    q = len(blocks)
    assert q >= 2
    best = None
    winners = []
    for i in range(q):
        for j in range(i + 1, q):
            reduced = [blocks[i] | blocks[j]]
            reduced.extend(blocks[k] for k in range(q) if k != i and k != j)
            size = 1 << (q - 1)
            union = [0] * size
            qvals = [0] * size
            for m in range(1, size):
                low = m & -m
                union[m] = union[m ^ low] | reduced[low.bit_length() - 1]
                qvals[m] = game.value(union[m])
            val, _, first = dense_structure_table(qvals, q - 1)
            cand = val[size - 1]
            out = []
            s = size - 1
            while s:
                out.append(union[first[s]])
                s ^= first[s]
            part = Partition(game.n, out)
            if best is None or cand > best:
                best, winners = cand, [part]
            elif cand == best:
                winners.append(part)
    return best, min(winners, key=Partition.sort_key)


# ------------------------------------------------------ exact linear algebra

def rref_solve(rows, rhs):
    """Solve ``rows . x = rhs`` exactly; returns x iff the solution exists and
    is unique, else None."""
    m = len(rows)
    if m == 0:
        return None
    k = len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [a * inv for a in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][-1] != 0:
            return None  # inconsistent
    if len(pivots) < k:
        return None  # not unique
    x = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        x[c] = aug[i][-1]
    return x


def balancedness_oracle(game: Game):
    """Covering-program optimum by vertex enumeration: supports of at most n
    coalitions with linearly independent columns."""
    n = game.n
    full = game.full
    masks = list(range(1, full + 1))
    best = None
    for k in range(1, n + 1):
        for support in combinations(masks, k):
            rows = [[1 if c >> i & 1 else 0 for c in support] for i in range(n)]
            sol = rref_solve(rows, [1] * n)
            if sol is None or any(d < 0 for d in sol):
                continue
            value = sum(game.value(c) * d for c, d in zip(support, sol))
            if best is None or value > best:
                best = value
    return best


def covering_value(game: Game):
    """Balancedness by the whole covering program through ``lp_solve``: one
    nonnegative weight per coalition (2^n - 1 variables), each player
    covered with total weight exactly 1, value-weighted sum maximized."""
    full = game.full
    masks = range(1, full + 1)
    rows = [([c >> i & 1 for c in masks], "=", 1) for i in range(game.n)]
    out = lp_solve(LinearProgram(full, sense="max", objective=[game.value(c) for c in masks],
                                 constraints=rows, lower=[0] * full))
    assert out.status == "optimal"  # the singleton cover is feasible, weights are <= 1
    return out.value


def brute_lp_max(num_vars, objective, rows):
    """Bounded-LP optimum by tight-set enumeration.

    ``rows`` are ``(coeffs, rel, rhs)`` with rel in {"<=", "=", ">="}; the
    feasible set must be bounded (include box rows). Returns the best value
    over all vertices, or None when infeasible.
    """
    eq_rows = [(c, b) for c, rel, b in rows if rel == "="]
    best = None
    for chosen in combinations(range(len(rows)), num_vars - len(eq_rows)):
        tight = eq_rows + [(rows[i][0], rows[i][2]) for i in chosen]
        sol = rref_solve([c for c, _ in tight], [b for _, b in tight])
        if sol is None:
            continue
        ok = True
        for coeffs, rel, rhs in rows:
            lhs = sum(a * x for a, x in zip(coeffs, sol))
            if rel == "<=" and lhs > rhs:
                ok = False
            elif rel == ">=" and lhs < rhs:
                ok = False
            elif rel == "=" and lhs != rhs:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        value = sum(c * x for c, x in zip(objective, sol))
        if best is None or value > best:
            best = value
    return best


# ----------------------------------------------------------------- sampling

def random_game(rng, n, lo=-10, hi=10) -> Game:
    size = 1 << n
    table = [0] * size
    for mask in range(1, size):
        table[mask] = rng.randint(lo, hi)
    return Game(n, table)


def adversarial_game(rng, n) -> Game:
    """The family of slow weak-core searches: randint(0,10)*|S|^2, with the
    grand value reset to max//2 + randint(0,20)."""
    table = [0] + [rng.randint(0, 10) * bin(m).count("1") ** 2 for m in range(1, 1 << n)]
    table[-1] = max(table) // 2 + rng.randint(0, 20)
    return Game(n, table)


# Index 5 of adversarial_game(random.Random(7), 6): the unhit-partition weak
# search needed 18,876 LP solves to find its weak core nonempty.
ADVERSARIAL_6 = [
    0, 2, 8, 32, 2, 0, 0, 90, 1, 32, 8, 54, 12, 27, 0, 64, 3, 16, 32, 27, 36, 45,
    36, 128, 24, 18, 0, 80, 63, 160, 144, 200, 6, 32, 8, 72, 8, 72, 72, 0, 28, 18,
    81, 0, 18, 32, 32, 175, 36, 9, 72, 0, 45, 160, 128, 200, 72, 112, 16, 200, 0,
    75, 75, 101]


def random_partition(rng, n) -> Partition:
    blocks = []
    for i in range(n):
        k = rng.randint(0, len(blocks))
        if k == len(blocks):
            blocks.append(1 << i)
        else:
            blocks[k] |= 1 << i
    return Partition(n, blocks)


def block_surpluses(game: Game, p: Partition):
    out = []
    for b in p.blocks:
        base = sum(game.value(1 << i) for i in members(b))
        out.append(game.value(b) - base)
    return out


def sample_feasible_allocations(game: Game, p: Partition, rng, count=4, denom=6):
    """Members of the pair-feasible set: equal-surplus center, per-block
    vertices, and random convex combinations with small denominators.
    Empty when some block has negative surplus."""
    surpluses = block_surpluses(game, p)
    if any(s < 0 for s in surpluses):
        return []
    base = [game.value(1 << i) for i in range(game.n)]
    out = []

    def build(selector):
        x = list(base)
        for b, surplus in zip(p.blocks, surpluses):
            idx = members(b)
            weights = selector(len(idx))
            total = sum(weights)
            for i, w in zip(idx, weights):
                x[i] += surplus * Fraction(w, total)
        return tuple(x)

    def rand_weights(k):
        w = [rng.randint(0, denom) for _ in range(k)]
        return w if any(w) else [1] * k

    out.append(build(lambda k: [1] * k))  # equal split
    for corner in range(count):
        out.append(build(lambda k, c=corner: [1 if j == c % k else 0 for j in range(k)]))
    for _ in range(count):
        out.append(build(rand_weights))
    return list(dict.fromkeys(out))


def sample_efficient_allocations(game: Game, rng, count=5):
    return sample_feasible_allocations(game, Partition.grand(game.n), rng, count=count)
