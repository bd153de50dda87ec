"""Local objects as arrays: one CSR support table and each distinct block once.

Every local object of a scheme is a support (sorted coordinates) plus a
small block read on it.  `support_table` validates the supports and stores
them as one flat int64 array cut by bounds; `by_identity` finds each
distinct block object once.  `Supports`, `Blocks` and `EdgeMap` are the
read-only views a scheme exposes, making a per-object array only when asked,
and `BlockOperator` applies the blocks to signals without an m x d matrix.
"""

from __future__ import annotations

import math
from collections.abc import ItemsView, Mapping, Sequence, ValuesView

import numpy as np

from .errors import SchemeError


class Supports(Sequence):
    """Supports k = 0, 1, ... of a CSR table: flat[bounds[k]:bounds[k + 1]],
    a read-only int64 view made on access.  A slice gives a tuple."""

    __slots__ = ("flat", "bounds")

    def __init__(self, flat: np.ndarray, bounds: np.ndarray):
        self.flat, self.bounds = flat, bounds

    def __len__(self) -> int:
        return self.bounds.size - 1

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[j] for j in range(len(self))[k])
        k = range(len(self))[k]
        return self.flat[self.bounds[k] : self.bounds[k + 1]]

    def __iter__(self):
        bounds = self.bounds.tolist()
        return (self.flat[a:b] for a, b in zip(bounds[:-1], bounds[1:]))


class Blocks(Sequence):
    """Item k is blocks[index[k]]: each distinct block is held once."""

    __slots__ = ("blocks", "index")

    def __init__(self, blocks: list, index: np.ndarray):
        self.blocks, self.index = blocks, index

    def __len__(self) -> int:
        return self.index.size

    def __getitem__(self, k):
        return self.blocks[self.index[k]]

    def __iter__(self):
        return map(self.blocks.__getitem__, self.index.tolist())


class EdgeMap(Mapping):
    """Per-edge values keyed by the edges (u, v) of a graph, in the order of
    its sorted arrays u < v: `by_edge[k]` belongs to edge (u[k], v[k])."""

    __slots__ = ("graph", "by_edge")

    def __init__(self, graph, by_edge: Sequence):
        self.graph, self.by_edge = graph, by_edge

    def __len__(self) -> int:
        return len(self.by_edge)

    def __iter__(self):
        return zip(self.graph.u.tolist(), self.graph.v.tolist())

    def __getitem__(self, e):
        u, v = self.graph.u, self.graph.v
        try:
            a, b = e
            lo, hi = u.searchsorted(a), u.searchsorted(a, "right")  # the edges at a
            k = int(lo + v[lo:hi].searchsorted(b))
            found = k < hi and v[k] == b
        except (TypeError, ValueError, OverflowError):
            found = False
        if not found:
            raise KeyError(e)
        return self.by_edge[k]

    def values(self):
        return _EdgeValues(self)

    def items(self):
        return _EdgeItems(self)


class _EdgeValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping.by_edge)


class _EdgeItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping.by_edge)


class BlockOperator:
    """Local blocks applied without an m x d matrix.

    Member k reads the coordinates flat[bounds[k]:bounds[k + 1]] through the
    conjugated rows of blocks[block_of[k]]; `op @ F` lists every member's
    measurements in member order, for a signal F or a (d, T) array of
    columns.  A block several members share is conjugated once and
    broadcast over them as one (1, r, s) stack; blocks used once form one
    (k, r, s) stack per shape.  Each stack is applied as `stack @ F[cols]`,
    so time and memory grow with the sum of r * s over the members, never
    with m * d, and no block is copied once per member.
    """

    def __init__(self, flat, bounds, blocks, block_of):
        heights = np.array([block.shape[0] for block in blocks], dtype=np.int64)
        #: start of each member's rows in `op @ F`, then the total row count
        self.offsets = np.concatenate(([0], np.cumsum(heights[block_of])))
        shared = np.bincount(block_of, minlength=len(blocks)) > 1
        shapes = {}
        shape_of = np.array([shapes.setdefault(block.shape, len(shapes)) for block in blocks])
        group = np.where(shared[block_of], block_of, len(blocks) + shape_of[block_of])
        order = np.argsort(group, kind="stable")
        starts = np.flatnonzero(np.diff(group[order], prepend=-1))
        self.stacks = []
        for members in np.split(order, starts[1:]) if order.size else ():
            j = block_of[members[0]]
            r, s = blocks[j].shape
            if shared[j]:
                stack = np.conj(blocks[j])[None]
            else:
                stack = np.conj(np.array([blocks[i] for i in block_of[members]]))
            first, k = members[0], members.size
            if members[-1] - first == k - 1:  # consecutive members: slices, no gather
                cols = flat[bounds[first] : bounds[first] + k * s].reshape(k, s)
                rows = slice(self.offsets[first], self.offsets[first + k])
            else:
                cols = flat[bounds[members][:, None] + np.arange(s)]
                rows = (self.offsets[members][:, None] + np.arange(r)).ravel()
            self.stacks.append((cols, stack, rows))

    def __matmul__(self, F) -> np.ndarray:
        F = np.asarray(F)
        tail, width = F.shape[1:], math.prod(F.shape[1:])
        out = np.empty(
            (self.offsets[-1],) + tail, dtype=np.result_type(F, *(s for _, s, _ in self.stacks))
        )
        for cols, stack, rows in self.stacks:
            picked = F[cols].reshape(cols.shape + (width,))
            if isinstance(rows, slice):  # a run of members: their rows are one block of out
                np.matmul(stack, picked, out=out[rows].reshape(len(cols), stack.shape[1], width))
            else:
                out[rows] = (stack @ picked).reshape((rows.size,) + tail)
        return out

    def power_sums(self, F, p: float) -> np.ndarray:
        """||B_k F[supp_k]||_p^p for every member k (one column per column of F)."""
        return np.add.reduceat(np.abs(self @ F) ** p, self.offsets[:-1], axis=0)


def support_table(parts, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate coordinate supports in one pass: each sorted, distinct integers
    in [0, dim).  `parts` lists them in order, each part an (n, s) table with
    one support per row or a sequence of supports.  Returns the CSR table:
    support k is flat[bounds[k]:bounds[k + 1]] of the read-only int64 `flat`."""
    pieces, sizes = [], []
    for part in parts:
        if isinstance(part, np.ndarray) and part.ndim == 2:
            pieces.append(part.ravel())
            sizes.append(np.full(len(part), part.shape[1]))
        else:
            arrays = [np.asarray(support) for support in part]
            pieces += arrays
            sizes.append(np.array([arr.size for arr in arrays], dtype=np.int64))
    for arr in pieces:
        if arr.size and (arr.ndim != 1 or arr.dtype.kind not in "iu"):
            raise SchemeError(
                "a projection is given by its support: a 1-D array of integer indices"
            )
    bounds = np.concatenate(([0], np.cumsum(np.concatenate(sizes), dtype=np.int64)))
    flat = np.concatenate([arr for arr in pieces if arr.size] or [np.zeros(0, dtype=np.int64)])
    inside = np.ones(max(flat.size - 1, 0), dtype=bool)  # pairs within one support
    ends = bounds[1:]
    inside[ends[(ends > 0) & (ends < flat.size)] - 1] = False
    if np.any((flat[1:] <= flat[:-1]) & inside):
        raise SchemeError("projection support must be sorted without duplicates")
    if flat.size and (flat.min() < 0 or flat.max() >= dim):
        raise SchemeError(f"projection support leaves the coordinate range [0, {dim})")
    flat = flat.astype(np.int64, copy=False)  # concatenate made a new array
    flat.setflags(write=False)
    return flat, bounds


def by_identity(values: Sequence) -> tuple[list, np.ndarray]:
    """Each distinct object of `values` once, in order of first use, and the
    index of each item's object."""
    ids = np.fromiter(map(id, values), dtype=np.uint64, count=len(values))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return [values[i] for i in first[order].tolist()], rank[inverse]
