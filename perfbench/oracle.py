"""Seeded inputs and an independent completion counter.

Nothing here calls latinsym. The counter is a plain backtracking search over
empty cells, so it checks count_completions and is_theta_completable on the
random squares of the `cover` and `cli_tables` workloads without sharing any
code with the cover search it checks. The squares it handles are those of the
identity isotopism (structures 1^n,1^n,1^n), where every partial Latin square
is invariant and its invariant completions are all its completions.
"""

from __future__ import annotations

import json
import random


def random_partial_latin_square(rng: random.Random, n: int, size: int
                                ) -> tuple[tuple[int, int, int], ...]:
    """A partial Latin square of order n with `size` cells, 1-based triples.

    Triples are tried in a seeded random order and kept when they clash with
    no kept triple; a draw that stalls below `size` is thrown away and drawn
    again, so the result always has exactly `size` cells.
    """
    if not 0 <= size <= n * n:
        raise ValueError(f"size must lie in 0..{n * n}")
    triples = [(r, c, s) for r in range(1, n + 1) for c in range(1, n + 1)
               for s in range(1, n + 1)]
    while True:
        rng.shuffle(triples)
        rc, rs, cs, cells = set(), set(), set(), []
        for (r, c, s) in triples:
            if len(cells) == size:
                break
            if (r, c) in rc or (r, s) in rs or (c, s) in cs:
                continue
            rc.add((r, c))
            rs.add((r, s))
            cs.add((c, s))
            cells.append((r, c, s))
        if len(cells) == size:
            return tuple(sorted(cells))


def square_json(n: int, cells) -> str:
    """The JSON square format that `latinsym complete --pls` reads."""
    return json.dumps({"n": n, "cells": [list(c) for c in cells]})


def count_latin_completions(n: int, cells) -> int:
    """Number of Latin squares of order n that contain the given cells.

    Backtracking that always fills the empty cell with the fewest admissible
    symbols; no memo, so its cost is independent of the library's.
    """
    full = (1 << n) - 1
    row, col = [0] * n, [0] * n
    empty = {(r, c) for r in range(n) for c in range(n)}
    for (r, c, s) in cells:
        bit = 1 << (s - 1)
        if (row[r - 1] | col[c - 1]) & bit or (r - 1, c - 1) not in empty:
            return 0
        row[r - 1] |= bit
        col[c - 1] |= bit
        empty.discard((r - 1, c - 1))
    order = sorted(empty)

    def rec(k: int) -> int:
        if k == len(order):
            return 1
        best, best_mask, best_count = k, 0, n + 1
        for j in range(k, len(order)):
            r, c = order[j]
            mask = full & ~(row[r] | col[c])
            count = bin(mask).count("1")
            if count < best_count:
                best, best_mask, best_count = j, mask, count
                if count == 0:
                    return 0
        order[k], order[best] = order[best], order[k]
        r, c = order[k]
        total = 0
        mask = best_mask
        while mask:
            bit = mask & -mask
            mask ^= bit
            row[r] |= bit
            col[c] |= bit
            total += rec(k + 1)
            row[r] ^= bit
            col[c] ^= bit
        order[k], order[best] = order[best], order[k]
        return total

    return rec(0)
