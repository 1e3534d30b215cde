"""Seeded input samplers for the map workloads.

Both samplers are exactly uniform and draw only from the random.Random they
are given, so a seed fixes the inputs. They produce text lines in the
program's wire formats; the program itself is never called here.
"""

from __future__ import annotations

import random


def sample_perm(n: int, rng: random.Random) -> str:
    """A uniform permutation of 1..n (Fisher-Yates), as space-separated values."""
    perm = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return " ".join(map(str, perm))


def lbp_completions(n: int) -> list[list[int]]:
    """rows[i][h]: weighted completions of steps i..n-1 of a labeled ballot path
    standing at height h before step i; the path may end at any height.

    An up step from height h has h+1 labels and a down step h labels, so
    rows[0][0] is the Springer number S_n.
    """
    rows: list[list[int]] = [[1] * (n + 1)]
    for i in range(n - 1, -1, -1):
        nxt = rows[-1]
        rows.append([(h + 1) * nxt[h + 1] + (h * nxt[h - 1] if h else 0) for h in range(i + 1)])
    rows.reverse()
    return rows


def sample_lbp(n: int, rng: random.Random, rows: list[list[int]]) -> str:
    """A labeled ballot path drawn uniformly from all S_n of them.

    One draw per step picks the step and its label together, each pair with
    probability proportional to the completions it leaves. A plain random walk
    would stay near height sqrt(n); uniform paths climb much higher, which is
    what the placeholder scans of fz_inverse pay for.
    """
    steps = []
    weights = []
    h = 0
    for i in range(n):
        nxt = rows[i + 1]
        up = (h + 1) * nxt[h + 1]
        r = rng.randrange(rows[i][h])
        if r < up:
            steps.append("U")
            weights.append(r // nxt[h + 1])
            h += 1
        else:
            steps.append("D")
            weights.append((r - up) // nxt[h - 1])
            h -= 1
    return "".join(steps) + ";" + ",".join(map(str, weights))
