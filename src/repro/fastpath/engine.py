"""Fastpath engine: dispatch, the shared traversal core, and the latency model.

All three traversals share one shape: the ``(row, tree)`` cross product is
flattened into *lanes*, every lane carries a cursor through its tree, and
the lane arrays are stepped level-synchronously until every lane lands on a
leaf.  A lane that lands steps in place on its leaf's self-loop.  Two walks
share that shape.  A call of at most :data:`FASTPATH_FLAT_LANES` lanes (a
serving-size batch) walks *flat*: every lane steps down to the table's
deepest level, as a warp does (paper §3.2), and the vote and work counters
are read once at the end, since at that size the walk costs NumPy dispatch
per level, not memory.  A larger call *compacts*: retired lanes are
dropped once they make up at least half of the carried lanes, so
compaction runs on a few levels instead of every level.  Either loop count
is bounded by the deepest tree, never by the number of rows — that is what
makes the fast path scale.

The family modules (:mod:`repro.fastpath.hierpath` /
:mod:`~repro.fastpath.csrpath` / :mod:`~repro.fastpath.filpath`) do not
duplicate the stepping loop.  Each lowers its device layout once, when the
layout is built (:func:`lower`), into a flat :class:`EdgeTable` — a
successor table ``succ[2 * slot + went_right]`` precomputed from the
layout's own crossing rules (subtree-connection hops, CSR children
indirection, FIL adjacent children) — and the shared :func:`traverse_edges`
core gathers node feature, query value and split threshold on every
lane-level.  The successor is a fourth gather on CSR and FIL tables and on
the hierarchical levels that cross into a child subtree; inside a complete
subtree (paper §3.1) the compacting walk computes it, ``2n + 1 +
went_right`` in local numbering, with no gather at all.  (The flat walk
gathers it on every level: computing it would need a mask to hold its
retired lanes on their leaves.)  The compacting walk materializes lanes in
row blocks of at most :data:`FASTPATH_CHUNK_LANES` so the working set
stays cache-resident at any batch size.

Blocks are independent, so a batch that spans two or more of them runs
them on ``min(blocks, CPUs)`` threads: the caller's and workers started
for that call, which cost ~0.1-0.2 ms against at least ~10 ms of block
work, most of it in NumPy calls that release the GIL.  A batch of one
block runs inline on the caller's thread.  That covers every serving
batch (256 rows x 20 trees is 5,120 lanes) and every degraded vote: at
that size the NumPy calls are too short to overlap, and two threads
splitting one were measured 2-3x slower, handing the GIL back and forth.

Two things deliberately do **not** happen here:

* no wall-clock measurement.  The simulated world must stay byte-replayable
  (the chaos soak compares whole reports), so the ``seconds`` a fastpath
  launch reports come from the deterministic analytic model below
  (:func:`fastpath_seconds`).  Real throughput is measured only by
  ``benchmarks/bench_fastpath.py`` through the sanctioned
  :class:`repro.utils.clock.Stopwatch` seam.
* no per-row / per-warp Python loop.  Source rule PERF001
  (``tests/test_source_rules.py``) bans ``for`` statements and
  comprehensions in this package.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.forest.tree import LEAF, TreeStack, stack_trees
from repro.utils.validation import check_feature_width

#: Fixed per-launch overhead of the modelled fast path, seconds.  Stands in
#: for dispatch + argument marshalling; dominates tiny batches.
FASTPATH_LAUNCH_OVERHEAD_S = 2e-5

#: Modelled cost of advancing one active lane by one level, seconds.  A lane
#: step is one gather + compare + index update over contiguous arrays —
#: orders of magnitude below the trace path's per-step accounting.
FASTPATH_SECONDS_PER_LANE_LEVEL = 2e-10

@dataclass(frozen=True)
class FastpathStats:
    """What one fastpath launch did (feeds obs + backend details).

    ``lane_levels`` is the total number of active lane-steps — one per
    lane per level down to and including its leaf — and the work metric
    the latency model charges for.  It does not depend on the walk: the
    steps a retired lane takes on its leaf's self-loop are not counted,
    whether the compacting walk carries it until the next compaction or
    the flat walk (:data:`FASTPATH_FLAT_LANES`) to the last level.
    ``frontier_occupancy`` is ``lane_levels / (lanes * levels)``: 1.0
    means every lane stayed active through every level, lower means lanes
    retired early (shallow leaves).
    """

    family: str
    rows: int
    trees: int
    lanes: int
    levels: int
    lane_levels: int
    frontier_occupancy: float


def make_stats(family: str, rows: int, trees: int, levels: int, lane_levels: int) -> FastpathStats:
    lanes = rows * trees
    denom = lanes * levels
    occupancy = (float(lane_levels) / float(denom)) if denom > 0 else 0.0
    return FastpathStats(
        family=family,
        rows=int(rows),
        trees=int(trees),
        lanes=int(lanes),
        levels=int(levels),
        lane_levels=int(lane_levels),
        frontier_occupancy=occupancy,
    )


def fastpath_seconds(lane_levels: int) -> float:
    """Deterministic modelled latency of one fastpath launch.

    Every codec compares the same decoded float32 ``value`` channel, so
    one rate per lane-level serves every layout codec.
    """
    return (
        FASTPATH_LAUNCH_OVERHEAD_S
        + float(lane_levels) * FASTPATH_SECONDS_PER_LANE_LEVEL
    )


#: Upper bound on lanes materialized per traversal block.  Each thread
#: traverses one block of rows to completion at a time, so the per-lane
#: state plus the block's slice of ``X`` stay cache-resident at any batch
#: size.
FASTPATH_CHUNK_LANES = 65536

#: Largest call, in lanes, that takes the flat walk: every lane steps
#: the table's ``max_levels`` levels in lock-step, with no retirement
#: bookkeeping.  Below it a walk is bound by NumPy dispatch per level, and
#: the flat walk makes 9 NumPy calls per level against the compacting
#: walk's 11-13; above it the compacting walk wins by dropping retired
#: lanes and stopping at the batch's deepest leaf, not the table's.  Measured on
#: 2 vCPUs over the served hybrid tables (SD4/RSD10 and SD6/RSD6), flat
#: over compacting time: susy d20x20 (21 levels) 0.57x at 20 lanes, 0.83x
#: at 2,040 and 0.94x at 5,120; covertype d35x20 (36 levels) 0.78x at 20,
#: 0.97x at 2,040, 1.08x at 2,560 and 1.24x at 5,120.  So a 256-row
#: serving batch of 20 trees compacts.
FASTPATH_FLAT_LANES = 2048


@dataclass(frozen=True)
class EdgeTable:
    """A device layout lowered to flat successor-table form.

    One entry per node slot, in the layout's own slot numbering:

    * ``feature`` — ``int32``; split feature id, negative on terminals
      (``LEAF``/``EMPTY``), which makes the retirement test one compare.
    * ``value`` — ``float32``; split threshold (class label on leaves, read
      via ``label`` instead).  Under a non-float32 codec this is the
      layout's decoded (round-tripped) channel, so every codec compares
      the same way.
    * ``label`` — ``int32``; class label on leaf slots, 0 elsewhere.
    * ``succ`` — ``int32[2 * slots]``; ``succ[2 * g + went_right]`` is the
      next slot.  Terminal slots self-loop: a retired lane that is still
      carried steps in place, until the next compaction drops it or the
      flat walk ends.  All
      layout-specific stepping rules (hierarchical subtree crossings, CSR
      children indirection, FIL adjacent children) are resolved here,
      once, at build time.
    * ``roots`` — ``int32[n_trees]``; each tree's root slot.
    * ``host`` — ``int32[slots]``; the host-tree node (its
      :class:`~repro.forest.tree.TreeStack` global id) each slot stands
      for, -1 on padding.  :func:`lower` fills it; the core reads it only
      to report each lane's leaf to a caller that certifies them.

    Four scalars ride beside the arrays (they are not buffers, so the
    ``edges.*`` layout digests do not cover them):

    * ``max_feature`` — the largest split feature over all trees (-1 when
      no tree splits); a query matrix must be wider than it.
    * ``rsd`` / ``sd`` — set on hierarchical tables only: the layout's
      root and child subtree depths.  Lanes walk in lock-step, so every
      live lane sits at the same tree depth ``d``, and a lane leaves its
      complete subtree only at ``d == rsd - 1`` or at ``d >= rsd`` with
      ``(d - rsd) % sd == sd - 1``.  At every other depth the core computes
      the child slot instead of gathering ``succ``; the lowering guarantees
      that no inner slot elsewhere needs a connection hop.  ``None`` (CSR,
      FIL) means every level gathers ``succ``.
    * ``max_levels`` — set by :func:`lower`: the levels the deepest walk
      takes (its leaf depth + 1).  The core steps no lane further, so a
      damaged ``succ`` that loops ends there; ``None`` bounds the walk by
      the slot count instead.
    """

    feature: np.ndarray
    value: np.ndarray
    label: np.ndarray
    succ: np.ndarray
    roots: np.ndarray
    n_classes: int
    max_feature: int
    rsd: Optional[int] = None
    sd: Optional[int] = None
    host: Optional[np.ndarray] = None
    max_levels: Optional[int] = None


def edge_table(layout, feature, inner, left, right, roots, rsd=None, sd=None) -> EdgeTable:
    """Assemble a layout's :class:`EdgeTable` from its inner slots' successors.

    ``left`` / ``right`` are the global successor slots of the ``inner``
    slots.  Terminal (leaf / padding) slots self-loop; the traversal core
    keeps stepping a retired lane on that self-edge until it compacts the
    lane away or its flat walk ends.  ``rsd`` / ``sd`` are set by the
    hierarchical family only.
    """
    succ = np.repeat(np.arange(feature.shape[0], dtype=np.int32), 2)
    succ[0::2][inner] = left
    succ[1::2][inner] = right
    return EdgeTable(
        feature=feature.astype(np.int32),
        value=layout.value.astype(np.float32),
        label=np.where(feature == LEAF, layout.value, 0).astype(np.int32),
        succ=succ,
        roots=roots.astype(np.int32),
        n_classes=int(layout.n_classes),
        max_feature=int(feature.max(initial=-1)),
        rsd=rsd,
        sd=sd,
    )


def select_trees(table: EdgeTable, trees) -> EdgeTable:
    """``table`` restricted to ``trees`` (index array or boolean mask).

    Tree selection is a root mask and nothing else: only the selected
    trees spawn lanes, so the vote runs over exactly those trees.
    """
    if trees is None:
        return table
    keep = np.asarray(trees)
    if not keep.size:  # ``[]`` parses as float64
        keep = keep.astype(np.intp)
    return replace(table, roots=table.roots[keep])


def _cpu_count() -> int:
    """CPUs this process may run on (1 where the OS cannot say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return 1


def _run_blocks(run_block, starts) -> Tuple[int, int]:
    """Run ``run_block`` on every block start and combine the blocks'
    ``(levels, lane_levels)`` by max and sum, which no run order changes.

    ``min(blocks, CPUs)`` threads, the caller's and workers started here,
    each claim the next block until none is left; with one block or one
    CPU that is the caller's thread alone.  A block that raises stops
    further claims, and the first error is re-raised once every worker has
    exited.
    """
    n_threads = min(len(starts), _cpu_count())
    pending = iter(starts)
    lock = threading.Lock()
    results = []
    errors = []

    def work():
        while not errors:
            with lock:
                start = next(pending, None)
            if start is None:
                return
            try:
                result = run_block(start)
            except BaseException as err:  # re-raised on the caller's thread
                errors.append(err)
            else:
                results.append(result)

    workers = []
    try:
        while len(workers) < n_threads - 1:
            worker = threading.Thread(target=work)
            worker.start()
            workers.append(worker)
        work()
    finally:
        list(map(threading.Thread.join, workers))
    if errors:
        raise errors[0]
    levels, lane_levels = zip((0, 0), *results)  # (0, 0): no rows
    return max(levels), sum(lane_levels)


def walks_flat(table: EdgeTable, lanes: int) -> bool:
    """Whether :func:`traverse_edges` walks ``lanes`` lanes of ``table`` flat.

    Calls of at most :data:`FASTPATH_FLAT_LANES` lanes do, on a table that
    knows its ``max_levels``; every other call compacts retired lanes.
    """
    return table.max_levels is not None and 0 < lanes <= FASTPATH_FLAT_LANES


def traverse_edges(
    table: EdgeTable,
    X: np.ndarray,
    leaves: Optional[np.ndarray] = None,
    walking: Optional[np.ndarray] = None,
    slots: Optional[np.ndarray] = None,
):
    """Run every ``(row, tree)`` lane of ``X`` through the successor table.

    Returns ``(predictions int64[n_rows], levels, lane_levels)``.  The
    majority vote is bit-identical to ``reference_predict``: per-row class
    bincount, ties breaking toward the lower label because ``argmax``
    returns the first maximum.  ``X`` narrower than the forest's largest
    split feature raises ``ValueError``: a lane would read the next row.

    With ``leaves`` (an integer array of ``n_rows * n_trees`` entries),
    lane ``row * n_trees + k`` also writes there the host node (the
    ``host`` channel) of the leaf it reached in the table's ``k``-th tree,
    for a caller that certifies them against the host trees.

    With ``walking`` (an integer array of ``limit + 1`` entries, ``limit``
    being ``max_levels`` or, where that is ``None``, the slot count),
    entry ``d`` receives the number of lanes that walk level ``d`` (visit
    a node at tree depth ``d``), and entry ``limit`` the lanes still
    walking when the bound stops them, which only a damaged, looping
    ``succ`` leaves.  The work counts of the FPGA cost models are sums
    over it (:mod:`repro.kernels.traversal_stats`).

    With ``slots`` (an integer array of shape ``(limit, n_rows * n_trees)``),
    row ``d`` receives the slot each lane visits on level ``d``, in the
    table's slot numbering, and -1 where the lane does not walk level
    ``d``; so ``walking[d] == (slots[d] >= 0).sum()``.  The simulated GPU
    kernels count their loads, crossings and branches from it, one tree
    at a time.

    ``levels`` is the deepest frontier iteration count of any block (a
    lane reaching a leaf at depth ``d`` retires on iteration ``d + 1``, so
    ``levels == max_depth + 1`` over the leaves reached); ``lane_levels``
    is the number of active lane-steps, ``sum(d + 1)`` over all lanes, the
    work metric :func:`fastpath_seconds` charges.  Neither counts the
    steps retired lanes take while carried, so neither depends on the walk
    (:func:`walks_flat`): a call of at most :data:`FASTPATH_FLAT_LANES`
    lanes steps every lane through ``succ`` down to ``max_levels`` and
    reads both counters, the vote and the leaf claims once, from each
    level's ``feature`` gather; a larger one compacts retired lanes away.

    No gather ever uses a negative index, as on a device, where a gather
    does not wrap around the way NumPy's does.  A carried retired lane
    still gathers ``X`` at its row offset plus its negative ``LEAF``
    marker: the element before its row, clamped to element 0 for row 0.
    The width check makes that clamp the only one the ``X`` gather applies
    on an intact table.

    A damaged table never raises.  Every gather at an index read from the
    table (``roots``, ``succ``, ``feature``, ``label``) clamps into its
    array, a label outside ``[0, n_classes)`` votes for the last class,
    and a lane still walking after ``max_levels`` levels votes for nothing
    and claims leaf -1.  So the damage shows as a wrong claimed leaf or a
    wrong vote, both of which the caller's certificate rejects.

    The compacting walk traverses rows in blocks of at most
    :data:`FASTPATH_CHUNK_LANES` lanes.  A batch of several blocks runs
    them on up to one thread per CPU (:func:`_run_blocks`); every output is
    the same whichever thread runs which block.
    """
    X = np.ascontiguousarray(X, dtype=np.float32)
    check_feature_width(X, table.max_feature)
    n = int(X.shape[0])
    n_trees = int(table.roots.shape[0])
    if leaves is not None and leaves.shape != (n * n_trees,):
        raise ValueError(
            f"leaves must hold {n * n_trees} lanes, got shape {leaves.shape}"
        )
    n_classes = int(table.n_classes)
    # Lane state indexes the flattened query matrix; int32 keeps the hot
    # arrays half-width unless the batch itself needs 64-bit offsets.
    idx_dtype = np.int32 if n * X.shape[1] < 2**31 else np.int64
    n_feat = idx_dtype(X.shape[1])
    flat_x = X.reshape(-1)
    feature = table.feature
    value = table.value
    label = table.label
    succ = table.succ
    rsd, sd = table.rsd, table.sd
    n_classes32 = np.int32(n_classes)
    top_class = np.uint32(n_classes - 1)
    limit = table.max_levels
    if limit is None:
        limit = feature.shape[0]
    if walking is not None and walking.shape != (limit + 1,):
        raise ValueError(
            f"walking must hold {limit + 1} levels, got shape {walking.shape}"
        )
    if slots is not None:
        if slots.shape != (limit, n * n_trees):
            raise ValueError(
                f"slots must hold {limit} levels of {n * n_trees} lanes, "
                f"got shape {slots.shape}"
            )
        slots.fill(-1)
    votes = np.zeros(n * n_classes, dtype=np.int32)
    block = max(1, FASTPATH_CHUNK_LANES // max(1, n_trees))
    # One row of walked levels per block, so threads never share a row.
    block_walking = None
    if walking is not None:
        block_walking = np.zeros((-(-n // block), limit + 1), dtype=np.int64)

    def run_block(start):
        # Writes only this block's rows of ``votes`` and lanes of
        # ``leaves`` and ``slots``, so blocks can run on several threads
        # at once.
        stop = min(n, start + block)
        row_base = idx_dtype(start) * n_feat
        # Per-lane state: row offset into flat_x, current slot, and (on
        # hierarchical tables) ``base``, the lane's subtree root slot minus
        # one, so ``slot - base`` is the 1-based local slot.  Lanes are in
        # row-major (row, tree) order.  A lane that reaches a leaf retires
        # but stays carried, self-looping on its terminal slot, until at
        # least half of the carried lanes have retired; that level (or the
        # last) flushes the retired lanes' labels and compacts them away.
        rx = np.repeat(
            np.arange(row_base, idx_dtype(stop) * n_feat, n_feat, dtype=idx_dtype),
            n_trees,
        )
        slot = np.tile(table.roots, stop - start)
        base = slot - 1 if rsd is not None else None
        lane = None
        if leaves is not None or slots is not None:
            lane = np.arange(start * n_trees, stop * n_trees, dtype=idx_dtype)
        walked = None
        if block_walking is not None:
            walked = block_walking[start // block]
        flushed = [np.empty(0, dtype=np.int32)]
        depth = 0
        lane_levels = 0
        retired_before = 0
        while rx.size and depth < limit:
            # Every carried live lane sits at tree depth ``depth`` now.
            crossing = rsd is None or (
                depth == rsd - 1 if depth < rsd else (depth - rsd) % sd == sd - 1
            )
            live = int(rx.size) - retired_before
            if walked is not None:
                walked[depth] = live
            if slots is not None:
                # Lanes retired on an earlier level are carried, not walking.
                if retired_before:
                    walks = ~at_leaf
                    slots[depth, lane[walks]] = slot[walks]
                else:
                    slots[depth, lane] = slot
            depth += 1
            lane_levels += live
            feats = feature.take(slot, mode="clip")
            at_leaf = feats < 0
            retired_before = int(np.count_nonzero(at_leaf))
            if 2 * retired_before >= rx.size or depth == limit:
                # Flush the retired lanes.  At the last level every lane
                # flushes that has reached a leaf, so that only lanes still
                # walking (a damaged, looping ``succ``) claim -1 below.
                done = np.flatnonzero(at_leaf)
                leaf_slot = slot.take(done)
                # As uint32 a negative label is huge, so one minimum keeps
                # every label's vote inside its own row.
                votes_for = np.minimum(
                    label.take(leaf_slot, mode="clip").view(np.uint32), top_class
                ).view(np.int32)
                flushed.append(
                    ((rx.take(done) - row_base) // n_feat).astype(np.int32) * n_classes32
                    + votes_for
                )
                keep = np.flatnonzero(~at_leaf)
                rx = rx.take(keep)
                slot = slot.take(keep)
                feats = feats.take(keep)
                if base is not None:
                    base = base.take(keep)
                if leaves is not None:
                    leaves[lane.take(done)] = table.host.take(leaf_slot, mode="clip")
                if lane is not None:
                    lane = lane.take(keep)
                retired_before = 0
                if not rx.size or depth == limit:
                    break
            went_right = flat_x.take(rx + feats, mode="clip") >= value.take(
                slot, mode="clip"
            )
            if crossing:
                slot = succ.take(slot + slot + went_right, mode="clip")
                if base is not None:
                    base = slot - 1
            else:
                # In-subtree child: local ``n`` -> ``2n + 1 + went_right``.
                # Retired lanes step by 0, staying on their leaf.
                step = slot - base
                step += went_right
                if retired_before:
                    step *= ~at_leaf
                slot += step
        if rx.size:  # walked past every leaf: a damaged table
            if leaves is not None:
                leaves[lane] = -1
            if walked is not None:
                walked[depth] = rx.size
        counts = np.bincount(
            np.concatenate(flushed), minlength=(stop - start) * n_classes
        )
        votes[start * n_classes : stop * n_classes] = counts
        return depth, lane_levels

    def run_flat():
        # Every lane walks all ``limit`` levels in lock-step, as a warp
        # does: a lane on a terminal slot steps on its self-loop, so no lane
        # is retired or compacted.  The counters, the vote and the leaf
        # claims are read once, after the walk, from the ``feature`` gather
        # each level keeps in its row of ``kept``.  Row offsets and slots
        # are carried as ``intp``, the index type of a gather, so no gather
        # converts its index array; each level converts the ``succ``
        # gather's result once instead.  Array methods stand in for
        # NumPy's ``repeat``, ``tile`` and ``flatnonzero`` functions, each
        # several Python calls, which at this size cost about a gather.
        rx = np.arange(0, n * n_feat, n_feat, dtype=np.intp).repeat(n_trees)
        slot = np.empty((n, n_trees), dtype=np.intp)
        slot[:] = table.roots
        slot = slot.reshape(-1)
        kept = np.empty((limit, slot.size), dtype=feature.dtype)
        feats = feature.take(slot, mode="clip", out=kept[0])
        if slots is not None:
            slots[0] = slot
        level = 1
        while level < limit:
            went_right = flat_x.take(rx + feats, mode="clip") >= value.take(
                slot, mode="clip"
            )
            slot = succ.take(slot + slot + went_right, mode="clip").astype(np.intp)
            if slots is not None:
                slots[level] = slot
            feats = feature.take(slot, mode="clip", out=kept[level])
            level += 1
        inner = kept >= 0
        if slots is not None:
            # A lane walks level ``d + 1`` when level ``d`` left it on an
            # inner slot; on a leaf it steps in place and walks no further.
            slots[1:][~inner[:-1]] = -1
        # A lane still walking at the last level claims -1 and votes
        # nothing, as in the compacting walk.
        done = (feats < 0).nonzero()[0]
        leaf_slot = slot.take(done)
        votes_for = np.minimum(
            label.take(leaf_slot, mode="clip").view(np.uint32), top_class
        ).view(np.int32)
        votes[:] = np.bincount(
            done // n_trees * n_classes + votes_for, minlength=n * n_classes
        )
        if leaves is not None:
            leaves[:] = -1
            leaves[done] = table.host.take(leaf_slot, mode="clip")
        if walking is not None:
            # Every lane walks level 0; a lane walks level ``d + 1`` when
            # level ``d`` left it on an inner slot.
            walking[0] = slot.size
            walking[1:] = np.count_nonzero(inner, axis=1)
        levels = min(int(np.count_nonzero(inner.any(axis=1))) + 1, limit)
        return levels, int(np.count_nonzero(inner)) + int(done.size)

    if walks_flat(table, n * n_trees):
        levels, lane_levels = run_flat()
    else:
        levels, lane_levels = _run_blocks(run_block, range(0, n, block))
        if walking is not None:
            walking[:] = block_walking.sum(axis=0)
    return votes.reshape(n, n_classes).argmax(axis=1), levels, lane_levels


#: Family module per layout type, filled by :func:`family_module`.
_FAMILIES: dict = {}


def family_module(layout):
    """The family module (``hierpath`` / ``csrpath`` / ``filpath``) of ``layout``.

    Duck-typed on each family's topology array, so this module never
    imports :mod:`repro.baselines.cuml_fil` and its GPU kernel machinery.
    Resolved once per layout type.  Callers call the module's
    ``traverse_edges`` through the module, where a tracer may wrap it.
    """
    family = _FAMILIES.get(type(layout))
    if family is not None:
        return family
    from repro.fastpath import csrpath, filpath, hierpath

    if hasattr(layout, "subtree_connection"):
        family = hierpath
    elif hasattr(layout, "children_arr"):
        family = csrpath
    elif hasattr(layout, "left_child"):
        family = filpath
    else:
        raise TypeError(
            f"no fastpath traversal for layout type {type(layout).__name__}"
        )
    _FAMILIES[type(layout)] = family
    return family


def host_map(table: EdgeTable, stack: TreeStack) -> Tuple[np.ndarray, int]:
    """Host node of every slot of ``table`` (the ``host`` channel), and the
    number of depths the deepest tree spans (``max_levels``).

    One lock-step walk over all trees pairs each root slot with its host
    root, then each inner pair's two ``succ`` entries with the host node's
    two children, one depth at a time.  Slots no walk reaches (padding)
    map to -1.  Raises ``RuntimeError`` where a slot's leaf-ness or split
    feature disagrees with its host node's.
    """
    host = np.full(table.feature.shape[0], -1, dtype=np.int32)
    slot = table.roots.astype(np.int64)
    node = stack.roots
    if slot.shape != node.shape:
        raise RuntimeError("edge table and host trees differ in tree count")
    succ = table.succ.reshape(-1, 2)
    child = stack.child.reshape(-1, 2)
    levels = 0
    while slot.size:
        levels += 1
        feats = table.feature.take(slot)
        if not np.array_equal(feats, stack.feature.take(node)):
            raise RuntimeError("edge table disagrees with the host trees")
        host[slot] = node
        inner = np.flatnonzero(feats >= 0)
        slot = succ[slot.take(inner)].ravel()
        node = child[node.take(inner)].ravel()
    return host, levels


def lower(layout, trees) -> EdgeTable:
    """Lower ``layout`` to its family's :class:`EdgeTable` and attach it.

    ``trees`` are the host trees (or their
    :class:`~repro.forest.tree.TreeStack`) the layout was built from; the
    table's ``host`` channel maps each slot to its node there.  Every
    ``from_trees`` calls this right after attaching the layout's integrity
    digests; nothing else lowers a serving table, and
    :func:`fastpath_predict` reads ``layout._fastpath_edges`` directly.

    The table is a build-time snapshot: later changes to the layout's
    buffers never reach it.  So ``trace="off"`` plans are guarded on the
    table itself: its whole-array and per-tree digests
    (:class:`~repro.reliability.integrity.LayoutIntegrity` over
    :func:`~repro.reliability.integrity.table_regions`) are taken here from
    its own buffers and kept beside it as ``layout._fastpath_integrity``.
    """
    from repro.reliability.integrity import LayoutIntegrity, table_regions

    table = family_module(layout).build_edges(layout)
    host, levels = host_map(table, stack_trees(trees))
    table = replace(table, host=host, max_levels=levels)
    layout._fastpath_edges = table
    layout._fastpath_integrity = LayoutIntegrity.from_layout(
        table, table_regions(layout)
    )
    return table


def fastpath_predict(layout, X: np.ndarray, trees=None, leaves=None):
    """Vectorized batched prediction over a built device layout.

    Dispatches on the layout's family and returns
    ``(predictions int64[n_rows], FastpathStats)``.  ``trees`` (index
    array or boolean mask) restricts the vote to those trees — the
    degraded quorum vote uses it.  ``leaves``, when given, receives each
    lane's host leaf (see :func:`traverse_edges`).  Predictions are
    bit-identical to ``reference_predict`` over the same host trees and to
    the trace kernels (pinned by tests/test_fastpath.py).
    """
    family = family_module(layout)
    table = select_trees(layout._fastpath_edges, trees)
    preds, levels, lane_levels = family.traverse_edges(table, X, leaves=leaves)
    stats = make_stats(
        family.FAMILY, int(X.shape[0]), table.roots.shape[0], levels, lane_levels
    )
    return preds, stats
