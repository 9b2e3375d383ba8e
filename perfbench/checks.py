"""Output checks written without coalstab: plain masks, ints and Fractions.

Every check raises :class:`CheckFailed` with a reason. They verify that a
certificate or witness is valid for the inputs, which holds for any seed;
they do not decide which valid certificate the program should return.
"""

from __future__ import annotations

from fractions import Fraction


class CheckFailed(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def masks_of(partition) -> tuple[int, ...]:
    """Blocks of a coalstab ``Partition`` as a sorted tuple of masks."""
    return tuple(sorted(partition.blocks))


def alloc_sums(x, n: int) -> list:
    """Allocation total for every coalition mask."""
    out = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        out[s] = out[s ^ low] + x[low.bit_length() - 1]
    return out


def require_partition(blocks, n: int) -> None:
    seen = 0
    for b in blocks:
        require(0 < b < (1 << n) and not seen & b, f"blocks {blocks} overlap or are empty")
        seen |= b
    require(seen == (1 << n) - 1, f"blocks {blocks} do not cover {n} players")


def worth(values, blocks) -> int:
    return sum(values[b] for b in blocks)


def refines(fine, coarse) -> bool:
    """Every block of ``fine`` sits inside some block of ``coarse``."""
    return all(any(b & c == b for c in coarse) for b in fine)


def require_strict_refinement(fine, coarse, n: int) -> None:
    require_partition(fine, n)
    require(set(fine) != set(coarse) and refines(fine, coarse),
            f"{fine} is not a strict refinement of {coarse}")


def require_feasible(values, blocks, x, n: int) -> None:
    """Individually rational and exactly efficient on every block."""
    require(all(x[i] >= values[1 << i] for i in range(n)), "allocation not individually rational")
    sums = alloc_sums(x, n)
    require(all(sums[b] == values[b] for b in blocks), "allocation not efficient per block")


def require_efficient(values, x, n: int) -> None:
    require_feasible(values, ((1 << n) - 1,), x, n)


def strong_member(values, x, n: int) -> bool:
    """No coalition falls short of its value (prefix-sum scan of all 2^n)."""
    sums = alloc_sums(x, n)
    return all(sums[c] >= values[c] for c in range(1, 1 << n))


def weak_member(values, x, n: int) -> bool:
    """No partition into two or more strictly deficient blocks exists (3^n)."""
    full = (1 << n) - 1
    sums = alloc_sums(x, n)
    splittable = [False] * (full + 1)
    splittable[0] = True
    for s in range(1, full + 1):
        low = s & -s
        rest = s ^ low
        sub = rest
        while True:
            t = low | sub
            if (t != full and sums[t] < values[t] and splittable[s ^ t]):
                splittable[s] = True
                break
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return not splittable[full]


def check_sam(values, n: int, start, trace) -> dict:
    """A SAM trace starts where asked, rises strictly along valid moves, and
    ends on a pair whose allocation is feasible for its partition."""
    start = tuple(sorted(start))
    require(masks_of(trace.start) == start, "trace does not start at the requested partition")
    here = start
    worths = [worth(values, start)]
    for step in trace.steps:
        src, dst = masks_of(step.source), masks_of(step.target)
        require(src == here, "steps do not chain")
        require(step.source_worth == worth(values, src), "source worth is wrong")
        require(step.target_worth == worth(values, dst), "target worth is wrong")
        require(step.target_worth > step.source_worth, "worth does not rise strictly")
        if step.direction == "fusion":
            require_strict_refinement(src, dst, n)
        else:
            require(step.direction == "fission", f"unknown direction {step.direction!r}")
            require_strict_refinement(dst, src, n)
        worths.append(step.target_worth)
        here = dst
    terminal = masks_of(trace.terminal)
    require(terminal == here == masks_of(trace.terminal_pair.partition),
            "terminal partition does not end the walk")
    require_feasible(values, terminal, trace.terminal_pair.allocation, n)
    return {"terminal": list(terminal), "worths": [str(w) for w in worths]}


def check_stability(values, n: int, blocks, x, mode: str, report) -> dict:
    """Verdicts are consistent and each certificate really defeats the pair."""
    blocks = tuple(sorted(blocks))
    require(report.mode == mode and report.feasible, "feasible pair reported infeasible")
    require(report.stable == (report.fission_resistant and report.fusion_resistant),
            "stable verdict does not combine the two resistances")
    require((report.fission_certificate is None) == report.fission_resistant,
            "fission verdict and certificate disagree")
    require((report.fusion_certificate is None) == report.fusion_resistant,
            "fusion verdict and certificate disagree")
    current = worth(values, blocks)
    if report.fission_certificate is not None:
        ref = masks_of(report.fission_certificate)
        require_strict_refinement(ref, blocks, n)
        sums = alloc_sums(x, n)
        new = [b for b in ref if b not in blocks]
        if mode == "medium":
            require(worth(values, ref) > current, "medium fission certificate is not worth more")
        elif mode == "strong":
            require(any(sums[b] < values[b] for b in new), "strong certificate has no short block")
        else:
            require(all(sums[b] < values[b] for b in new), "weak certificate has a satisfied block")
    if report.fusion_certificate is not None:
        coarse = masks_of(report.fusion_certificate)
        require_strict_refinement(blocks, coarse, n)
        require(worth(values, coarse) > current, "fusion certificate is not worth more")
    return {"stable": report.stable, "fission": report.fission_resistant,
            "fusion": report.fusion_resistant}


def check_enumerate(values, n: int, partitions) -> dict:
    """Every listed partition is valid, listed once, and no union of its
    blocks is worth more than its parts."""
    listed = [masks_of(p) for p in partitions]
    require(len(set(listed)) == len(listed), "a partition is listed twice")
    for blocks in listed:
        require_partition(blocks, n)
        q = len(blocks)
        for m in range(1, 1 << q):
            if m & (m - 1):
                part = [blocks[k] for k in range(q) if m >> k & 1]
                union = 0
                for b in part:
                    union |= b
                require(values[union] <= worth(values, part),
                        f"{blocks} is beaten by merging {part}")
    return {"partitions": [[list(b), str(worth(values, b))] for b in listed]}


def names_to_mask(names) -> int:
    """Players are named ``P<index>`` in the generated game files."""
    return sum(1 << int(name[1:]) for name in names)


def check_core_find(values, n: int, mode: str, code: int, payload: dict) -> dict:
    nonempty = payload["nonempty"]
    require(code == (0 if nonempty else 1), f"exit code {code} for nonempty={nonempty}")
    witness = payload["witness"]
    require((witness is not None) == nonempty, "witness presence does not match the verdict")
    if nonempty:
        x = [Fraction(v) for v in witness]
        require(len(x) == n, "witness has the wrong length")
        require_efficient(values, x, n)
        if mode == "strong":
            require(strong_member(values, x, n), "strong witness lets a coalition fall short")
        elif mode == "weak":
            require(weak_member(values, x, n), "weak witness admits an all-deficient partition")
    return {"nonempty": nonempty}


def check_core_check(values, n: int, mode: str, x, code: int, payload: dict) -> dict:
    member = payload["member"]
    require(code == (0 if member else 1), f"exit code {code} for member={member}")
    require(payload["mode"] == mode, "wrong mode in the report")
    sums = alloc_sums(x, n)
    full = (1 << n) - 1
    if mode == "strong":
        require(member == strong_member(values, x, n), "strong verdict is wrong")
        if not member:
            c = names_to_mask(payload["coalition"])
            require(sums[c] < values[c], "blocking coalition does not fall short")
    elif not member:
        blocks = tuple(names_to_mask(b) for b in payload["partition"])
        require_partition(blocks, n)
        require(len(blocks) >= 2, "violating partition is the grand one")
        if mode == "medium":
            require(worth(values, blocks) > values[full], "violating partition is not worth more")
        else:
            require(all(sums[b] < values[b] for b in blocks), "violating partition has a satisfied block")
    elif mode == "weak":
        for group in payload["satisfied"]:
            c = names_to_mask(group)
            require(0 < c < full and sums[c] >= values[c], "listed coalition is not satisfied")
    return {"member": member}
