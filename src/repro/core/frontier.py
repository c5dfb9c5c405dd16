"""Level-synchronous (frontier-batched) EPivoter traversal.

This is the only walk of the edge-pivot enumeration tree (Algorithm
2): global, single-pair and per-vertex counts and the uniform sampler
all run it.  Popping one tree node per loop iteration would let
CPython interpreter overhead dominate, so the walk is structured
GPU-style (after the level-synchronous formulation of "Accelerating
Biclique Counting on GPU"): a whole *frontier* of tree nodes is
materialised per step, their candidate sets live in one contiguous
int64 arena per side (``offsets`` + implicit lengths), and every
per-node operation — size pruning, the candidate-subgraph edge
construction, pivot selection, child construction — becomes a
vectorised reduction across the batch.  The candidate-subgraph edges
for the *entire* frontier come from a single
:func:`repro.graph.intersect.intersect_arena_many` call per level.

Bit-identity contract
---------------------
The tree is fixed by the graph, the pivot rule and the bounds; batch
geometry never changes it:

* children are constructed from the six-case analysis of Theorem 3.4,
  with every candidate list kept sorted;
* the pivot is the first edge (in ``(x, y)`` candidate-local order)
  maximising the pivot score — ``(d(x) - 1) * (d(y) - 1)`` for
  ``"product"``, the butterflies through the edge in ``G'`` for
  ``"exact"``;
* prune tests run in a fixed order (size bound, left reach, right
  reach).

``tests/test_epivoter_frontier.py`` pins the resulting tree-shape
counters (nodes, leaves, branch and prune tallies) to literal values
for both pivot rules, and checks every count against the brute-force
oracle and the golden tables.

Leaves go to a *sink*, and the sink decides what the walk carries.
Size-level counts use :class:`RecordSink`: leaf and case-5
contributions are *recorded* as small integer tuples, deduplicated
with ``np.unique``, and only evaluated at the end with Python-integer
binomials — numpy never computes a count, so there is no int64
overflow.  Per-vertex counts and sampling use :class:`LeafSink`: the
batches then also carry the vertex ids of the pivot and held sets,
and every leaf reaches the caller as vertex lists.

Budgets: :class:`~repro.core.epivoter.CountBudgetExceeded` is raised
if and only if the tree has more than ``node_budget`` nodes (every
node enters exactly one batch, and the running node total is checked
before each batch expands); deadlines are polled per batch plus once
before the walk.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.intersect import (
    as_int64,
    exclusive_cumsum,
    gather_slices,
    intersect_arena_many,
)
from repro.utils.combinatorics import binomial

if TYPE_CHECKING:
    from repro.graph.bigraph import BipartiteGraph
    from repro.obs.progress import Heartbeat
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import Trace

__all__ = [
    "DEFAULT_BATCH_CAP",
    "FrontierGraph",
    "LeafSink",
    "RecordSink",
    "run_frontier",
]

#: Child batches are split so no single expansion exceeds this many
#: nodes — bounds the arena working set regardless of tree width.
DEFAULT_BATCH_CAP = 8192

#: The exact pivot score processes at most about this many wedges per
#: sort (whole candidate rows at a time), bounding its pair arrays on
#: dense batches.
_WEDGE_CAP = 1 << 19

#: Batches smaller than this are merged with pending ones before
#: expanding, so deep skinny subtrees do not degenerate into per-node
#: numpy calls.
_MIN_BATCH = 256

#: Individual ``frontier_expand`` spans are emitted for this many
#: batches; the rest fold into one aggregated tail span so a deep
#: traversal cannot blow up the trace document.
_TRACE_SPAN_CAP = 32


class FrontierGraph:
    """Numpy CSR views (plus cached keyed rows) for one ordered graph.

    ``stride`` exceeds every vertex id on either side, so
    ``row_id * stride + value`` keys are strictly increasing along the
    concatenation of per-row sorted runs — the property every batched
    ``searchsorted`` membership test in this module relies on.
    """

    __slots__ = (
        "indptr_l",
        "indices_l",
        "indptr_r",
        "indices_r",
        "stride",
        "_keyed_l",
        "_keyed_r",
    )

    def __init__(self, graph: "BipartiteGraph"):
        indptr_l, indices_l, indptr_r, indices_r = graph.csr_buffers()
        self.indptr_l = as_int64(indptr_l)
        self.indices_l = as_int64(indices_l)
        self.indptr_r = as_int64(indptr_r)
        self.indices_r = as_int64(indices_r)
        self.stride = max(graph.n_left, graph.n_right, 1) + 1
        self._keyed_l = None
        self._keyed_r = None

    def keyed_left(self):
        """``left_row * stride + indices_l`` — globally monotone keys."""
        if self._keyed_l is None:
            self._keyed_l = (
                np.repeat(
                    np.arange(self.indptr_l.size - 1, dtype=np.int64) * self.stride,
                    np.diff(self.indptr_l),
                )
                + self.indices_l
            )
        return self._keyed_l

    def keyed_right(self):
        """``right_row * stride + indices_r`` — globally monotone keys."""
        if self._keyed_r is None:
            self._keyed_r = (
                np.repeat(
                    np.arange(self.indptr_r.size - 1, dtype=np.int64) * self.stride,
                    np.diff(self.indptr_r),
                )
                + self.indices_r
            )
        return self._keyed_r


class _Batch:
    """One frontier batch: n tree nodes with arena-packed candidate sets.

    ``al[aloff[i]:aloff[i+1]]`` is node i's sorted left candidate set
    (``ar``/``aroff`` mirrored on the right); ``pl/hl/pr/hr`` are the
    pivot-set and held-set *sizes* of Algorithm 2's six node sets, and
    ``level`` the node's depth in the enumeration tree (roots are 1).
    ``ids`` is ``None`` on size-level walks; under a :class:`LeafSink`
    it holds the vertex ids of ``(P_l, H_l, P_r, H_r)`` as four
    ``(arena, offsets)`` pairs packed like the candidate sets.
    """

    __slots__ = ("al", "aloff", "ar", "aroff", "pl", "hl", "pr", "hr", "level", "ids")

    def __init__(self, al, aloff, ar, aroff, pl, hl, pr, hr, level, ids=None):
        self.al = al
        self.aloff = aloff
        self.ar = ar
        self.aroff = aroff
        self.pl = pl
        self.hl = hl
        self.pr = pr
        self.hr = hr
        self.level = level
        self.ids = ids

    @property
    def size(self) -> int:
        return self.pl.size

    @property
    def arena_bytes(self) -> int:
        total = (
            self.al.nbytes
            + self.ar.nbytes
            + self.aloff.nbytes
            + self.aroff.nbytes
            + 5 * self.pl.nbytes
        )
        if self.ids is not None:
            total += sum(arena.nbytes + off.nbytes for arena, off in self.ids)
        return int(total)


#: A batch's per-node vectors, in constructor order after the arenas.
_VECTORS = ("pl", "hl", "pr", "hr", "level")


def _cat(a, b):
    """Concatenate two ``(arena, offsets)`` pairs (``b``'s offsets rebased)."""
    return np.concatenate([a[0], b[0]]), np.concatenate([a[1], b[1][1:] + a[1][-1]])


def _cut(pair, start: int, stop: int):
    """Nodes ``start:stop`` of an ``(arena, offsets)`` pair (arena a view)."""
    arena, off = pair
    return arena[off[start] : off[stop]], off[start : stop + 1] - off[start]


def _take(pair, idx):
    """Nodes ``idx`` of an ``(arena, offsets)`` pair, gathered."""
    arena, off = pair
    return gather_slices(arena, off[idx], off[idx + 1] - off[idx])


def _grow(pair, parents, tail, first: int):
    """Child id sets: child ``j`` copies the set of node ``parents[j]``;
    children ``first .. first + len(tail) - 1`` also append ``tail``."""
    arena, off = pair
    lens = np.diff(off)[parents]
    grown = lens.copy()
    grown[first : first + tail.size] += 1
    new_off = exclusive_cumsum(grown)
    out = np.empty(int(new_off[-1]), dtype=np.int64)
    vals, old_off = gather_slices(arena, off[parents], lens)
    out[np.arange(vals.size) + np.repeat(new_off[:-1] - old_off[:-1], lens)] = vals
    out[new_off[first + 1 : first + tail.size + 1] - 1] = tail
    return out, new_off


def _merge(a: _Batch, b: _Batch) -> _Batch:
    """Concatenate two batches (offsets rebased; levels may differ)."""
    return _Batch(
        *_cat((a.al, a.aloff), (b.al, b.aloff)),
        *_cat((a.ar, a.aroff), (b.ar, b.aroff)),
        *(np.concatenate([getattr(a, f), getattr(b, f)]) for f in _VECTORS),
        None if a.ids is None else tuple(map(_cat, a.ids, b.ids)),
    )


def _split(batch: _Batch, cap: int) -> list[_Batch]:
    """Slice a batch into <= cap-node pieces (arena slices stay views)."""
    n = batch.size
    if n <= cap:
        return [batch]
    out = []
    for start in range(0, n, cap):
        stop = min(start + cap, n)
        ids = batch.ids
        out.append(
            _Batch(
                *_cut((batch.al, batch.aloff), start, stop),
                *_cut((batch.ar, batch.aroff), start, stop),
                *(getattr(batch, f)[start:stop] for f in _VECTORS),
                None if ids is None else tuple(_cut(pair, start, stop) for pair in ids),
            )
        )
    return out


class _Tally:
    """Per-traversal counters, folded into obs once at the end."""

    __slots__ = (
        "roots",
        "leaves",
        "pivot_branches",
        "edge_branches",
        "prune_size",
        "prune_reach_l",
        "prune_reach_r",
        "max_depth",
    )

    def __init__(self):
        self.roots = 0
        self.leaves = 0
        self.pivot_branches = 0
        self.edge_branches = 0
        self.prune_size = 0
        self.prune_reach_l = 0
        self.prune_reach_r = 0
        self.max_depth = 0


class RecordSink:
    """Size-level leaf output: exact-integer records, deduplicated
    before evaluation.

    ``visit(free_l, fixed_l, free_r, fixed_r, multiplier)`` adds
    ``multiplier * C(free_l, p - fixed_l) * C(free_r, q - fixed_r)``
    to every (p, q) cell, where ``free_*``/``fixed_*`` are set sizes.

    Leaf and case-5 contributions are pure functions of a handful of
    small integers, and real traversals hit the same signatures over and
    over.  Batches append their raw record rows; :meth:`finish` runs one
    ``np.unique`` per kind over the whole traversal's rows and evaluates
    every *unique* record once with Python-integer binomials (exactness,
    no int64 overflow), handing the occurrence count to the visitor as
    the multiplier.  Deferring the dedup to the end replaces hundreds of
    per-batch sorts with four.

    Kinds (all components Python ints after ``tolist``):

    * ``S``  ``(free_l, fixed_l, free_r, fixed_r)`` — a one-sided or
      empty leaf: one visit.
    * ``R``  ``(pl, hl, pr, hr, n_l, n_r)`` — a leaf with candidates on
      both sides (no edges across): expanded over the right candidates.
    * ``CL`` ``(pl, hl, pr, hr, n_l, t_l)`` — a case-5 left loop over
      ``t_l`` pivot non-neighbors out of ``n_l`` left candidates.
    * ``CR`` — mirrored on the right.
    """

    __slots__ = ("visit", "_raw")

    carries_ids = False

    def __init__(self, visit):
        self.visit = visit
        self._raw = {kind: [] for kind in ("S", "R", "CL", "CR")}

    def _add(self, kind: str, *columns) -> None:
        self._raw[kind].append(np.stack(columns, axis=1))

    def leaves(self, node: _Batch, leaf, nl, nr) -> None:
        """Record the leaves ``leaf`` (indices into ``node``)."""
        both = (nl[leaf] > 0) & (nr[leaf] > 0)
        b = leaf[both]
        if b.size:
            self._add("R", node.pl[b], node.hl[b], node.pr[b], node.hr[b], nl[b], nr[b])
        s = leaf[~both]
        if s.size:
            self._add("S", node.pl[s] + nl[s], node.hl[s], node.pr[s] + nr[s], node.hr[s])

    def case5(self, side: str, node: _Batch, nodes, n, t, rank) -> None:
        """Record the case-5 loops of ``nodes`` on ``side`` (``"L"``/``"R"``):
        ``t`` pivot non-neighbors out of ``n`` candidates."""
        c = nodes
        self._add("C" + side, node.pl[c], node.hl[c], node.pr[c], node.hr[c], n[c], t[c])

    def _folded(self, kind: str):
        """``(row_tuple_list, count_list)`` over every row added so far."""
        chunks = self._raw[kind]
        if not chunks:
            return (), ()
        rows = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        # Pack each row into one int64 with mixed radix when the column
        # ranges allow (they essentially always do): a 1-D unique sorts
        # machine words, an order of magnitude faster than the void-view
        # sort behind unique(axis=0).
        maxes = rows.max(axis=0).astype(np.int64) + 1
        span = 1
        for m in maxes.tolist():
            span *= m
        if span < (1 << 62):
            key = rows[:, 0].astype(np.int64, copy=True)
            for j in range(1, rows.shape[1]):
                key *= maxes[j]
                key += rows[:, j]
            uniq, counts = np.unique(key, return_counts=True)
            cols = []
            for j in range(rows.shape[1] - 1, 0, -1):
                uniq, col = np.divmod(uniq, maxes[j])
                cols.append(col)
            cols.append(uniq)
            packed = np.stack(cols[::-1], axis=1)
            return packed.tolist(), counts.tolist()
        uniq, counts = np.unique(rows, axis=0, return_counts=True)
        return uniq.tolist(), counts.tolist()

    def finish(self, bounds=None) -> None:
        """Evaluate every unique record through the size-level visitor.

        ``bounds`` (the traversal's ``(max_p, max_q, min_p, min_q)``)
        lets the R-expansion stop at ``i = max_q - hr``: the visitor
        contract makes contributions with ``fixed_r > max_q`` vanish
        (``C(free_r, q - fixed_r)`` with ``q <= max_q``), so the
        remaining iterations are exact zeros.

        The case-5 loops run over a consecutive range of *free* sizes
        with everything else fixed.  When the visitor exposes
        ``left_run`` / ``right_run`` hooks
        (``(free_lo, free_hi, ...)`` — see :func:`_matrix_visitor`),
        each record collapses to one call via the hockey-stick identity
        ``sum_{f=lo..hi} C(f, a) = C(hi+1, a+1) - C(lo, a+1)``;
        otherwise the generic per-k loop runs.
        """
        visit = self.visit
        cap_q = None if bounds is None else bounds[1]
        left_run = getattr(visit, "left_run", None)
        right_run = getattr(visit, "right_run", None)
        rows, counts = self._folded("S")
        for (free_l, fixed_l, free_r, fixed_r), c in zip(rows, counts):
            visit(free_l, fixed_l, free_r, fixed_r, c)
        rows, counts = self._folded("R")
        for (pl, hl, pr, hr, n_l, n_r), c in zip(rows, counts):
            # Bicliques using no right candidate: left candidates free.
            visit(pl + n_l, hl, pr, hr, c)
            # i >= 1 right candidates exclude every left candidate.
            top = n_r if cap_q is None else min(n_r, cap_q - hr)
            for i in range(1, top + 1):
                visit(pl, hl, pr, hr + i, c * binomial(n_r, i))
        rows, counts = self._folded("CL")
        for (pl, hl, pr, hr, n_l, t_l), c in zip(rows, counts):
            if left_run is not None:
                left_run(pl + n_l - t_l, pl + n_l - 1, hl + 1, pr, hr, c)
                continue
            for k in range(1, t_l + 1):
                visit(pl + n_l - k, hl + 1, pr, hr, c)
        rows, counts = self._folded("CR")
        for (pl, hl, pr, hr, n_r, t_r), c in zip(rows, counts):
            if right_run is not None:
                right_run(pl, hl, pr + n_r - t_r, pr + n_r - 1, hr + 1, c)
                continue
            for k in range(1, t_r + 1):
                visit(pl, hl, pr + n_r - k, hr + 1, c)


def _lists(pair, idx) -> "list[list[int]]":
    """Nodes ``idx`` of an ``(arena, offsets)`` pair as Python lists."""
    flat, off = _take(pair, idx)
    flat = flat.tolist()
    off = off.tolist()
    return [flat[a:b] for a, b in zip(off, off[1:])]


class LeafSink:
    """Vertex-identity leaf output, for per-vertex counts and sampling.

    Batches walked under this sink carry the vertex ids of the pivot
    and held sets (:attr:`_Batch.ids`), and every leaf and case-5 step
    goes straight to
    ``on_leaf(free_l, fixed_l, free_r, fixed_r, extra_pool, extra_min)``,
    describing the bicliques ``(X ∪ fixed_l, Y ∪ fixed_r ∪ S)`` with
    ``X ⊆ free_l``, ``Y ⊆ free_r``, ``S ⊆ extra_pool`` and
    ``|S| >= extra_min`` (all arguments are lists of vertex ids).
    """

    __slots__ = ("on_leaf",)

    carries_ids = True

    def __init__(self, on_leaf):
        self.on_leaf = on_leaf

    def leaves(self, node: _Batch, leaf, nl, nr) -> None:
        on_leaf = self.on_leaf
        p_l, h_l, p_r, h_r = (_lists(pair, leaf) for pair in node.ids)
        c_l = _lists((node.al, node.aloff), leaf)
        c_r = _lists((node.ar, node.aroff), leaf)
        for pl, hl, pr, hr, cl, cr in zip(p_l, h_l, p_r, h_r, c_l, c_r):
            if cl and cr:
                # No right candidate kept: left candidates free; else at
                # least one right candidate, excluding every left one.
                on_leaf(pl + cl, hl, pr, hr, [], 0)
                on_leaf(pl, hl, pr, hr, cr, 1)
            else:
                on_leaf(pl + cl, hl, pr + cr, hr, [], 0)

    def case5(self, side: str, node: _Batch, nodes, n, t, rank) -> None:
        """The k-th pivot non-neighbor ``w`` (local order, ``rank``) is
        held, the candidates ranked after it stay free."""
        on_leaf = self.on_leaf
        arena, off = (node.al, node.aloff) if side == "L" else (node.ar, node.aroff)
        ordered = np.empty_like(arena)
        ordered[np.repeat(off[:-1], n) + rank] = arena
        p_l, h_l, p_r, h_r = (_lists(ids, nodes) for ids in node.ids)
        cands = _lists((ordered, off), nodes)
        for pl, hl, pr, hr, cand, t_i in zip(
            p_l, h_l, p_r, h_r, cands, t[nodes].tolist()
        ):
            for k in range(1, t_i + 1):
                if side == "L":
                    on_leaf(pl + cand[k:], hl + [cand[k - 1]], pr, hr, [], 0)
                else:
                    on_leaf(pl, hl, pr + cand[k:], hr + [cand[k - 1]], [], 0)

    def finish(self, bounds=None) -> None:
        """Nothing is deferred: leaves were delivered as they were found."""


def _segment_ranks(flags, node_of, offsets, n_nodes):
    """Local-reordering positions, vectorised per segment.

    ``flags[i]`` says whether flat candidate ``i`` is adjacent to its
    node's pivot.  Each candidate list is reordered as non-neighbors
    first, neighbors after (both preserving sorted order); the returned
    ``ranks`` are each candidate's index in that reordered list, and
    ``t`` the per-node non-neighbor count.
    """
    total = flags.size
    flag_int = flags.astype(np.int64)
    lengths = np.diff(offsets)
    adj_in_node = np.bincount(node_of[flags], minlength=n_nodes).astype(np.int64)
    t = lengths - adj_in_node
    if total == 0:
        return np.empty(0, dtype=np.int64), t
    # Segmented exclusive prefix counts of the adjacency flags.
    prefix = np.cumsum(flag_int) - flag_int
    base = np.repeat(prefix[np.minimum(offsets[:-1], total - 1)], lengths)
    adj_before = prefix - base
    intra = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], lengths)
    nonadj_before = intra - adj_before
    ranks = np.where(flags, t[node_of] + adj_before, nonadj_before)
    return ranks, t


def _keyed_member(keyed, stride, row_of, values):
    """Vectorised ``values[i] in row row_of[i]`` against keyed CSR rows."""
    keys = row_of * stride + values
    pos = np.searchsorted(keyed, keys)
    inb = pos < keyed.size
    return inb & (keyed[np.where(inb, pos, 0)] == keys)


def _butterfly_scores(e_flat, rpos, deg_r, col_order, col_start, row_start):
    """``|N(e, G')|`` for every candidate-subgraph edge ``e = (x, y)``.

    The paper's exact pivot criterion: the butterflies through ``e``,
    ``sum over x' in col(y), x' != x, of |row(x') ∩ row(x)| - 1``.
    Each term belongs to one wedge ``x - y - x'``, and the common
    neighbors of ``(x, x')`` are exactly the wedges sharing that pair,
    so one ``np.unique`` over the wedge pair keys yields every term.
    All wedges of a pair start on row ``x``, so wedges are processed a
    block of whole rows at a time, about ``_WEDGE_CAP`` per block.
    """
    n_edges = e_flat.size
    span = deg_r[rpos]  # column members of each edge's y, x included
    cum = exclusive_cumsum(span)
    cuts = np.searchsorted(
        cum[row_start],
        np.arange(_WEDGE_CAP, int(cum[-1]), _WEDGE_CAP),
    )
    blocks = np.unique(
        np.concatenate([[0], row_start[cuts], [n_edges]])
    ).tolist()
    score = np.empty(n_edges, dtype=np.int64)
    stride = int(row_start.size)  # exceeds every flat row position
    for lo, hi in zip(blocks, blocks[1:]):
        spans = span[lo:hi]
        members, _ = gather_slices(col_order, col_start[rpos[lo:hi]], spans)
        owner = np.repeat(np.arange(lo, hi, dtype=np.int64), spans)
        other = members != owner
        keys = e_flat[owner[other]] * stride + e_flat[members[other]]
        _, inverse, pair_common = np.unique(
            keys, return_inverse=True, return_counts=True
        )
        running = exclusive_cumsum(pair_common[inverse] - 1)
        ends = exclusive_cumsum(spans - 1)  # each owner's wedges
        score[lo:hi] = running[ends[1:]] - running[ends[:-1]]
    return score


def _root_batch(fg: FrontierGraph, roots, carry_ids: bool) -> _Batch:
    """The level-1 batch: one node per root edge, candidate sets
    ``N^{>u}(v)`` / ``N^{>v}(u)`` sliced from the CSR in one gather
    (with ``carry_ids``, ``H_l = {u}``, ``H_r = {v}`` and empty ``P``)."""
    n = len(roots)
    us = np.fromiter((edge[0] for edge in roots), dtype=np.int64, count=n)
    vs = np.fromiter((edge[1] for edge in roots), dtype=np.int64, count=n)
    # First index of row v with value > u: one searchsorted on the keyed
    # concatenation (side="right" lands just past (v, u)).
    lo = np.searchsorted(fg.keyed_right(), vs * fg.stride + us, side="right")
    al, aloff = gather_slices(fg.indices_r, lo, fg.indptr_r[vs + 1] - lo)
    lo = np.searchsorted(fg.keyed_left(), us * fg.stride + vs, side="right")
    ar, aroff = gather_slices(fg.indices_l, lo, fg.indptr_l[us + 1] - lo)
    zeros = np.zeros(n, dtype=np.int64)
    ones = np.ones(n, dtype=np.int64)
    ids = None
    if carry_ids:
        empty = (np.empty(0, dtype=np.int64), np.zeros(n + 1, dtype=np.int64))
        single = np.arange(n + 1, dtype=np.int64)
        ids = (empty, (us, single), empty, (vs, single))
    return _Batch(
        al, aloff, ar, aroff,
        zeros, ones, zeros.copy(), ones.copy(), ones.copy(), ids,
    )


def _expand(fg: FrontierGraph, batch: _Batch, bounds, sink,
            tally: _Tally, pivot: str) -> "list[_Batch]":
    """Expand one batch: prune, intersect, pick pivots, build children.

    Returns the child batches (at most one, possibly empty list); leaf
    and case-5 contributions go to ``sink``, counters to ``tally``.
    """
    n = batch.size
    pl, hl, pr, hr = batch.pl, batch.hl, batch.pr, batch.hr
    level = batch.level
    nl_all = np.diff(batch.aloff)
    nr_all = np.diff(batch.aroff)
    tally.max_depth = max(tally.max_depth, int(level.max()))

    # --- prune, in a fixed order: size bound, left reach, right reach
    if bounds is None:
        keep = np.arange(n, dtype=np.int64)
    else:
        max_p, max_q, min_p, min_q = bounds
        size_cut = (hl > max_p) | (hr > max_q)
        reach_l_cut = ~size_cut & (pl + hl + nl_all < min_p)
        reach_r_cut = ~size_cut & ~reach_l_cut & (pr + hr + nr_all < min_q)
        tally.prune_size += int(size_cut.sum())
        tally.prune_reach_l += int(reach_l_cut.sum())
        tally.prune_reach_r += int(reach_r_cut.sum())
        keep = np.nonzero(~(size_cut | reach_l_cut | reach_r_cut))[0]
    if keep.size == 0:
        return []

    # --- compact the survivors' candidate arenas
    al, aloff = gather_slices(batch.al, batch.aloff[keep], nl_all[keep])
    ar, aroff = gather_slices(batch.ar, batch.aroff[keep], nr_all[keep])
    pl = pl[keep]
    hl = hl[keep]
    pr = pr[keep]
    hr = hr[keep]
    level = level[keep]
    ids = batch.ids
    if ids is not None:
        ids = tuple(_take(pair, keep) for pair in ids)
    node = _Batch(al, aloff, ar, aroff, pl, hl, pr, hr, level, ids)
    k = keep.size
    nl = np.diff(aloff)
    nr = np.diff(aroff)
    tot_l = int(aloff[-1])
    tot_r = int(aroff[-1])

    # --- candidate-subgraph edges for the whole frontier: one batched
    #     kernel call resolves N(x) ∩ C_r for every (node, x in C_l).
    lnode = np.repeat(np.arange(k, dtype=np.int64), nl)
    if tot_l and tot_r:
        sizes, _, e_yloc = intersect_arena_many(
            fg.indptr_l,
            fg.indices_l,
            al,
            ar,
            aroff,
            query_of_row=lnode,
            keyed_indices=fg.keyed_left(),
            stride=fg.stride,
        )
    else:
        sizes = np.zeros(tot_l, dtype=np.int64)
        e_yloc = np.empty(0, dtype=np.int64)

    n_edges = int(sizes.sum())
    e_flat = np.repeat(np.arange(tot_l, dtype=np.int64), sizes)
    e_node = lnode[e_flat] if n_edges else np.empty(0, dtype=np.int64)
    edges_per_node = np.bincount(e_node, minlength=k)
    rpos = aroff[e_node] + e_yloc  # flat right-arena position of each edge's y
    deg_r = np.bincount(rpos, minlength=tot_r)

    # --- leaves: no candidate-subgraph edges; record in closed form
    leaf = np.nonzero(edges_per_node == 0)[0]
    if leaf.size:
        tally.leaves += int(leaf.size)
        sink.leaves(node, leaf, nl, nr)
    live = np.nonzero(edges_per_node > 0)[0]
    if live.size == 0:
        return []

    # Edges grouped by column (then x-order) and by row: the column of
    # (node, y) is "left candidates adjacent to y within the node".
    col_order = np.lexsort((e_flat, rpos))
    col_start = exclusive_cumsum(deg_r)
    row_start = exclusive_cumsum(sizes)

    # --- pivot per live node: the first edge, in (x, y) candidate-local
    #     order, maximising the pivot score.
    estart = exclusive_cumsum(edges_per_node)
    if pivot == "exact":
        score = _butterfly_scores(
            e_flat, rpos, deg_r, col_order, col_start, row_start
        )
    else:
        score = (sizes[e_flat] - 1) * (deg_r[rpos] - 1)
    seg_max = np.maximum.reduceat(score, estart[live])
    is_max = score == np.repeat(seg_max, edges_per_node[live])
    max_edges = np.nonzero(is_max)[0]
    _, first = np.unique(e_node[max_edges], return_index=True)
    piv_edge = max_edges[first]  # one per live node, in live order
    pivot_u = al[e_flat[piv_edge]]
    pivot_v = ar[rpos[piv_edge]]

    # --- per-candidate pivot adjacency (x in N(pivot_v), y in N(pivot_u))
    pv_v_of = np.zeros(k, dtype=np.int64)
    pv_v_of[live] = pivot_v
    pv_u_of = np.zeros(k, dtype=np.int64)
    pv_u_of[live] = pivot_u
    rnode = np.repeat(np.arange(k, dtype=np.int64), nr)
    x_adj = _keyed_member(fg.keyed_right(), fg.stride, pv_v_of[lnode], al)
    y_adj = _keyed_member(fg.keyed_left(), fg.stride, pv_u_of[rnode], ar)
    live_flag = np.zeros(k, dtype=bool)
    live_flag[live] = True

    # --- local reordering (pivot non-neighbors first), as ranks
    rank_l, t_l = _segment_ranks(x_adj, lnode, aloff, k)
    rank_r, t_r = _segment_ranks(y_adj, rnode, aroff, k)

    # --- case 5: one-sided bicliques holding a pivot non-neighbor
    c5 = live[t_l[live] > 0]
    if c5.size:
        sink.case5("L", node, c5, nl, t_l, rank_l)
    c5 = live[t_r[live] > 0]
    if c5.size:
        sink.case5("R", node, c5, nr, t_r, rank_r)

    # --- case 6: one child per candidate edge not covered by the pivot
    covered = x_adj[e_flat] & y_adj[rpos]
    unc = np.nonzero(~covered)[0]
    n_edge_children = unc.size
    tally.edge_branches += int(n_edge_children)
    tally.pivot_branches += int(live.size)

    # sub_l of edge (node, x, y): left candidates adjacent to y ranked
    # after x, filtered from the edge column of (node, y).
    col_len = deg_r[rpos[unc]]
    members, _ = gather_slices(col_order, col_start[rpos[unc]], col_len)
    parent = np.repeat(np.arange(n_edge_children, dtype=np.int64), col_len)
    keep_l = rank_l[e_flat[members]] > np.repeat(rank_l[e_flat[unc]], col_len)
    sub_l_child = parent[keep_l]
    sub_l_vals = al[e_flat[members[keep_l]]]

    # sub_r mirrored: the edge row of (node, x) is already contiguous.
    row_len = sizes[e_flat[unc]]
    members, _ = gather_slices(
        np.arange(n_edges, dtype=np.int64), row_start[e_flat[unc]], row_len
    )
    parent = np.repeat(np.arange(n_edge_children, dtype=np.int64), row_len)
    keep_r = rank_r[rpos[members]] > np.repeat(rank_r[rpos[unc]], row_len)
    sub_r_child = parent[keep_r]
    sub_r_vals = ar[rpos[members[keep_r]]]

    # --- cases 1-4: the pivot branch (pivot endpoints become free)
    pv_mask_l = live_flag[lnode] & x_adj & (al != pv_u_of[lnode])
    pv_mask_r = live_flag[rnode] & y_adj & (ar != pv_v_of[rnode])
    pv_l_counts = np.bincount(lnode[pv_mask_l], minlength=k)[live]
    pv_r_counts = np.bincount(rnode[pv_mask_r], minlength=k)[live]

    # --- assemble the child batch: edge children first, pivot children
    #     after (both grouped in parent order; values stay sorted).
    counts_l = np.concatenate(
        [np.bincount(sub_l_child, minlength=n_edge_children), pv_l_counts]
    )
    counts_r = np.concatenate(
        [np.bincount(sub_r_child, minlength=n_edge_children), pv_r_counts]
    )
    edge_parent = e_node[unc]
    if ids is not None:
        # Edge children hold (x, y); pivot children add the pivot to P.
        parents = np.concatenate([edge_parent, live])
        ids = (
            _grow(ids[0], parents, pivot_u, n_edge_children),
            _grow(ids[1], parents, al[e_flat[unc]], 0),
            _grow(ids[2], parents, pivot_v, n_edge_children),
            _grow(ids[3], parents, ar[rpos[unc]], 0),
        )
    child = _Batch(
        np.concatenate([sub_l_vals, al[pv_mask_l]]),
        exclusive_cumsum(counts_l),
        np.concatenate([sub_r_vals, ar[pv_mask_r]]),
        exclusive_cumsum(counts_r),
        np.concatenate([pl[edge_parent], pl[live] + 1]),
        np.concatenate([hl[edge_parent] + 1, hl[live]]),
        np.concatenate([pr[edge_parent], pr[live] + 1]),
        np.concatenate([hr[edge_parent] + 1, hr[live]]),
        np.concatenate([level[edge_parent], level[live]]) + 1,
        ids,
    )
    return [child]


def run_frontier(
    fg: FrontierGraph,
    roots: "list[tuple[int, int]]",
    sink: "RecordSink | LeafSink",
    bounds=None,
    obs: "MetricsRegistry | None" = None,
    heartbeat: "Heartbeat | None" = None,
    node_budget: "int | None" = None,
    deadline: "float | None" = None,
    trace: "Trace | None" = None,
    batch_cap: int = DEFAULT_BATCH_CAP,
    pivot: str = "product",
) -> None:
    """Run the traversal over ``roots``; ``sink`` receives leaves.

    A :class:`RecordSink` gets set sizes (global and single-pair
    counts); a :class:`LeafSink` makes the batches carry vertex ids and
    gets vertex lists (local counts, sampling).  Both see the same tree.
    ``bounds`` is ``(max_p, max_q, min_p, min_q)`` or ``None`` (no size
    pruning); ``pivot`` is ``"product"`` or ``"exact"`` (see
    :class:`~repro.core.epivoter.EPivoter`).  ``node_budget`` /
    ``deadline`` (an absolute ``time.monotonic()`` timestamp) abandon
    the walk with :class:`~repro.core.epivoter.CountBudgetExceeded`.

    ``heartbeat`` ticks once per node (``tick(width)`` per batch);
    ``trace`` receives ``frontier_expand`` spans for the first
    ``_TRACE_SPAN_CAP`` batches plus one aggregated tail span.
    """
    from repro.core.epivoter import CountBudgetExceeded, _flush_traversal_stats

    if deadline is not None and time.monotonic() >= deadline:
        raise CountBudgetExceeded("deadline expired before the traversal started")
    tally = _Tally()
    tally.roots = len(roots)
    track = obs is not None and obs.enabled
    traced = trace is not None and trace.enabled
    nodes_total = 0
    batches = 0
    max_width = 0
    max_arena = 0
    tail_batches = 0
    tail_nodes = 0
    tail_seconds = 0.0
    pending: list[_Batch] = []
    if roots:
        pending.extend(_split(_root_batch(fg, roots, sink.carries_ids), batch_cap))
    while pending:
        batch = pending.pop()  # scalar-pop-ok: pops a whole frontier batch
        while batch.size < _MIN_BATCH and pending:
            batch = _merge(batch, pending.pop())  # scalar-pop-ok: whole-batch merge
        width = batch.size
        batches += 1
        nodes_total += width
        if node_budget is not None and nodes_total > node_budget:
            raise CountBudgetExceeded(f"node budget of {node_budget} exhausted")
        if deadline is not None and time.monotonic() >= deadline:
            raise CountBudgetExceeded(f"deadline hit after {nodes_total} nodes")
        if heartbeat is not None:
            heartbeat.tick(width)
        if width > max_width:
            max_width = width
        arena = batch.arena_bytes
        if arena > max_arena:
            max_arena = arena
        if traced and batches <= _TRACE_SPAN_CAP:
            with trace.span("frontier_expand", batch=batches, width=width):
                children = _expand(fg, batch, bounds, sink, tally, pivot)
        elif traced:
            started = time.perf_counter()
            children = _expand(fg, batch, bounds, sink, tally, pivot)
            tail_seconds += time.perf_counter() - started
            tail_batches += 1
            tail_nodes += width
        else:
            children = _expand(fg, batch, bounds, sink, tally, pivot)
        for child in children:
            pending.extend(_split(child, batch_cap))
    if traced and tail_batches:
        trace.add_span(
            "frontier_expand",
            tail_seconds,
            batches=tail_batches,
            nodes=tail_nodes,
            aggregated=True,
        )
    sink.finish(bounds)
    if track:
        _flush_traversal_stats(
            obs,
            tally.roots,
            nodes_total,
            tally.leaves,
            tally.pivot_branches,
            tally.edge_branches,
            tally.prune_size,
            tally.prune_reach_l,
            tally.prune_reach_r,
            tally.max_depth,
        )
        obs.incr("epivoter.frontier_batches", batches)
        obs.gauge_max("epivoter.frontier_max_width", max_width)
        obs.gauge_max("epivoter.arena_bytes", max_arena)
