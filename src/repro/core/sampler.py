"""Exact uniform (p, q)-biclique sampling from the unique representation.

A corollary of EPivoter's core property (Theorem 3.5): every biclique is
represented by exactly one enumeration-tree leaf, and within a leaf the
bicliques are parameterised by independent subset choices.  So sampling a
leaf with probability proportional to its (p, q) count and then sampling
the subsets uniformly yields an **exactly uniform** random
(p, q)-biclique — without materialising the (possibly astronomical)
biclique set.

This serves the paper's GNN-training motivation ([33] uses (4,10)/(5,10)
bicliques as training structures): one EPivoter pass builds the sampler,
then draws are ``O(p + q)`` each.
"""

from __future__ import annotations

import numpy as np

from repro.core.epivoter import EPivoter
from repro.graph.bigraph import BipartiteGraph
from repro.utils.combinatorics import binomial
from repro.utils.rng import as_generator

__all__ = ["BicliqueSampler"]


class BicliqueSampler:
    """Uniform sampler over the (p, q)-bicliques of a graph.

    Building the sampler costs one pruned EPivoter traversal; it stores
    one entry per enumeration leaf with a non-zero (p, q) count.

    Example
    -------
    >>> g = BipartiteGraph(3, 3, [(u, v) for u in range(3) for v in range(3)])
    >>> sampler = BicliqueSampler(g, 2, 2)
    >>> sampler.count
    9
    >>> left, right = sampler.sample(seed=1)
    >>> len(left), len(right)
    (2, 2)
    """

    def __init__(self, graph: BipartiteGraph, p: int, q: int):
        if p < 1 or q < 1:
            raise ValueError("p and q must be positive")
        self.p = p
        self.q = q
        ordered, left_map, right_map = graph.degree_ordered()
        # new -> old id maps, to report samples in the caller's labelling.
        self._left_old = [0] * graph.n_left
        for old, new in enumerate(left_map):
            self._left_old[new] = old
        self._right_old = [0] * graph.n_right
        for old, new in enumerate(right_map):
            self._right_old[new] = old
        engine = EPivoter(ordered)
        # Each stored leaf: (free_l, fixed_l, free_r, fixed_r, extra, i)
        # restricted to one extra-subset size i, plus its biclique count.
        self._leaves: list[tuple[list[int], list[int], list[int], list[int], list[int], int]] = []
        weights: list[int] = []

        def on_leaf(free_l, fixed_l, free_r, fixed_r, extra_pool, extra_min):
            a = p - len(fixed_l)
            if a < 0 or a > len(free_l):
                return
            for i in range(extra_min, len(extra_pool) + 1):
                b = q - len(fixed_r) - i
                if b < 0 or b > len(free_r):
                    continue
                count = (
                    binomial(len(free_l), a)
                    * binomial(len(free_r), b)
                    * binomial(len(extra_pool), i)
                )
                if count:
                    self._leaves.append(
                        (list(free_l), list(fixed_l), list(free_r),
                         list(fixed_r), list(extra_pool), i)
                    )
                    weights.append(count)

        engine._run(on_leaf=on_leaf, bounds=(p, q, p, q))
        self.count = sum(weights)
        if weights:
            # float64 cumulative weights are fine for sampling probabilities;
            # `count` stays exact.
            total = float(self.count)
            self._cumulative = np.cumsum(
                np.array([float(w) for w in weights]) / total
            )
        else:
            self._cumulative = np.zeros(0)

    def sample(
        self, seed: "int | None | np.random.Generator" = None
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Draw one uniform (p, q)-biclique as ``(left, right)`` tuples."""
        rng = as_generator(seed)
        if self.count == 0:
            raise ValueError(f"the graph has no ({self.p}, {self.q})-bicliques")
        index = int(np.searchsorted(self._cumulative, rng.random(), side="right"))
        return self._expand(min(index, len(self._leaves) - 1), rng)

    def _expand(self, index: int, rng: np.random.Generator):
        """Materialise one biclique from a drawn leaf's subset choices."""
        free_l, fixed_l, free_r, fixed_r, extra, i = self._leaves[index]
        a = self.p - len(fixed_l)
        b = self.q - len(fixed_r) - i
        left = list(fixed_l)
        if a:
            left += [free_l[j] for j in rng.choice(len(free_l), size=a, replace=False)]
        right = list(fixed_r)
        if b:
            right += [free_r[j] for j in rng.choice(len(free_r), size=b, replace=False)]
        if i:
            right += [extra[j] for j in rng.choice(len(extra), size=i, replace=False)]
        return (
            tuple(sorted(self._left_old[u] for u in left)),
            tuple(sorted(self._right_old[v] for v in right)),
        )

    def sample_many(
        self, k: int, seed: "int | None | np.random.Generator" = None
    ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Draw ``k`` independent uniform samples (with replacement).

        The leaf lookups are vectorised: one inverse-CDF ``searchsorted``
        over a block of ``k`` uniforms replaces ``k`` scalar binary
        searches; only the per-sample subset choices remain scalar work.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        if k == 0:
            return []
        if self.count == 0:
            raise ValueError(f"the graph has no ({self.p}, {self.q})-bicliques")
        rng = as_generator(seed)
        indices = np.minimum(
            np.searchsorted(self._cumulative, rng.random(k), side="right"),
            len(self._leaves) - 1,
        )
        return [self._expand(int(index), rng) for index in indices]
