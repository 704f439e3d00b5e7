"""Dynamic minimum of lines under a moving query point: batched insert,
delete, point-minimum query, and raise_each, a run of LPT steps.

Lines are y = slope*x + intercept, one per owner id. query_min(x) returns the
stored line minimizing its value at x under the canonical tie rule: least
value, then least slope, then least owner id. raise_each(xs) takes one LPT
step at each x in turn: it finds that line and sets its intercept to its
value at x, and raise_each(xs, admit) inserts batches of lines between the
steps. Both run one loop, so a run of LPT steps pays the call, the state
loads and the counter updates once.

The structure is a kinetic tournament (Basch, Guibas & Hershberger, "Data
structures for mobile data", J. Algorithms 31, 1999) over per-slope buckets:

* each leaf holds the lines of one slope in a plain heap on (intercept,
  owner), exactly the slope's stored lines: a delete removes its line on
  the spot, at O(k) on a bucket of k lines. Only the minimum can win, and
  every insert, delete and raise that changes a bucket sets its leaf to the
  heap's top at once, so each leaf always offers its bucket's minimum;
* each node k of the tree has a winner, wins[k], the winner of its two
  children at the current query point x, and a lo, los[k], the least x at
  which that comparison and every comparison below it still hold: two flat
  lists, so writing a node builds no tuple. Two lines of different slopes
  cross once: the steeper one wins iff x is left of the crossing (at equal
  value the lesser slope wins). A win of the flatter line raises lo to the
  crossing; a win of the steeper one lowers the envelope's one horizon to
  it. Every node holds for lo <= x < horizon;
* the tree is in the heap layout, and a node's parent, sibling, depth and
  children are read from index tables, not computed: k >> 1 or k ^ 1
  allocates a new int above 256, a list read does not. The tables are
  shared by every envelope in the process and grow by doubling to the
  largest row seen, so a small envelope pays nothing for them;
* the leaf row is sized once per batch: the first batch gets exactly one
  leaf per slope, and a later batch that brings more slopes than the row
  holds doubles it until they fit. Growing is one pass: the batch's lines
  are appended to their buckets, every bucket is heapified and offers its
  minimum, and every node is replayed once. Leaves are never freed. Any
  row size C makes a binary tree in the heap layout, with every leaf at
  depth floor(log2 C) or one more;
* a batch's new slopes take their leaves in ascending slope order. A single
  batch (lpt-fast admits every machine in one) thus lays the whole row out
  by slope: each subtree covers a contiguous slope range, so as x falls its
  winner seldom changes away from the raised leaf's path;
* at most one leaf is pending: its minimum changed (a delete or a raise of
  its winner) and its path above it is stale. The next query replays
  that path at the query's own x, walking up from the leaf; a sibling whose
  lo exceeds x is repaired first, so no node on the path is replayed
  twice. With nothing pending a query replays only the nodes whose lo
  exceeds x. An insert batch replays, at the last query point, the
  union of the paths of the leaves whose minimum it lowered, each up to
  where it meets the pending path, and leaves the pending leaf pending. An
  LPT step costs one path replay;
* when one leaf wins three queries in a row, the query caches the leaf's
  rival: the best line beside its path, with the lo from which it stays
  best. While that leaf is pending and no other leaf has changed, a query
  at or above that lo compares the leaf's new minimum with the rival and,
  if it wins, answers without replaying the path.

A query at or above the horizon replays all C - 1 internal nodes and
starts the horizon over at +inf, so queries at arbitrary points have no
logarithmic bound. LPT never does: it admits its first batch at x = 0 with
zero intercepts, so the flatter line wins everywhere (horizon +inf); a
later steeper win sets the horizon to a crossing above its step's point,
and the points only fall (dwp-lpt admits later batches at the last one).
On that pattern tests/test_envelope.py holds node replays per job under
1.1 per level of ceil(log2 S) at m = 100 to 4000, n = 10m (see README).
"""

from __future__ import annotations

import json
import threading
from heapq import heapify, heappush, heapreplace
from typing import NamedTuple

from .errors import UsageError
from .numeric import Scalar, scalar_to_str

_NEG_INF = float("-inf")
_POS_INF = float("inf")

# Index tables of the heap-ordered tree, for node ids below their length:
# node k's parent k >> 1, sibling k ^ 1 and depth floor(log2 k), and for k
# below half the length its children 2k and 2k + 1. Every envelope shares
# them; ``_index_tables`` grows them in place, so a list bound to a local
# stays valid.
_PARENT, _SIBLING, _DEPTH, _LEFT, _RIGHT = [], [], [], [], []
_TABLES_GROW = threading.Lock()


def _index_tables(size: int) -> None:
    """Grow the index tables, by doubling, to cover node ids below size."""
    if len(_PARENT) >= size:
        return
    with _TABLES_GROW:
        have = len(_PARENT)
        want = max(have, 2)
        while want < size:
            want *= 2
        if want == have:
            return
        ids = list(range(want))  # one int object per id, shared by the tables
        new = range(have, want)
        _PARENT.extend([ids[k >> 1] for k in new])
        _SIBLING.extend([ids[k ^ 1] for k in new])
        _DEPTH.extend([k.bit_length() - 1 for k in new])
        _LEFT.extend(ids[have:want:2])
        _RIGHT.extend(ids[have + 1:want:2])


class Line(NamedTuple):
    slope: Scalar
    intercept: Scalar
    owner: int


class LowerEnvelope:
    """Dynamic lower envelope with owner-keyed insert/delete and min queries."""

    def __init__(self):
        # A stored line is the entry (intercept, owner, slope, leaf).
        self._where = {}         # owner -> entry
        self._leaf_of = {}       # slope -> leaf index
        self._heaps = []         # leaf index -> min-heap of its stored entries
        self._x = 0              # the point every node off the pending path is valid at
        self._horizon = _POS_INF  # every node and the rival hold below it
        self._dirty = None       # pending leaf: its path is replayed by the next query
        # (leaf, line, lo): the best line outside that leaf's subtree, valid
        # for lo <= x < _horizon while no other leaf changes.
        self._rival = None
        self._streak = 0         # queries in a row won by the pending leaf
        # Heap-ordered tree: node k has children 2k, 2k+1; leaf i is node
        # _cap + i, and nodes 1.._cap-1 are internal (any _cap >= 1 makes a
        # binary tree; _cap 0 is the tree without leaves). Node k's lo is
        # _lo[k] and its winning entry (or None) _win[k]; a leaf's winner is
        # its bucket's minimum, also while it is pending, and its lo -inf.
        # The module's index tables cover every node id below 2 * _cap.
        self._cap = 0
        self._lo = []
        self._win = []
        self.counters = {
            "inserts": 0, "deletes": 0, "queries": 0,
            "comparisons": 0, "replays": 0,
        }

    # -- public API ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._where)

    def lines(self):
        """All stored lines, in no particular order."""
        return [Line(e[2], e[0], e[1]) for e in self._where.values()]

    def insert(self, *lines: Line) -> None:
        """Add a batch of lines; no owner may be stored already or repeat.

        The batch costs one update. New slopes take leaves in ascending slope
        order. If they overflow the leaf row, the batch's lines are appended
        to their buckets and ``_grow`` builds the row and every node in one
        pass; else each line is pushed onto its bucket, and the union of the
        paths of the leaves whose minimum the batch lowered is replayed once,
        up to the pending leaf's path, which stays pending.
        """
        where, leaf_of, heaps = self._where, self._leaf_of, self._heaps
        seen, new = set(), set()  # the batch's owners, its slopes without a leaf
        for slope, _, owner in lines:
            if owner in where or owner in seen:
                raise UsageError(f"owner {owner} is stored already or repeats in the batch")
            seen.add(owner)
            if slope not in leaf_of:
                new.add(slope)
        self.counters["inserts"] += len(lines)
        for slope in sorted(new):
            leaf_of[slope] = len(heaps)
            heaps.append([])
        cap = self._cap
        if len(heaps) > cap:  # the row grows: _grow heapifies every bucket
            for slope, icept, owner in lines:
                leaf = leaf_of[slope]
                entry = where[owner] = (icept, owner, slope, leaf)
                heaps[leaf].append(entry)
            self._grow()
            return
        wins, dirty = self._win, self._dirty
        changed = []  # leaves whose minimum the batch lowered, but the pending one
        for slope, icept, owner in lines:
            leaf = leaf_of[slope]
            entry = where[owner] = (icept, owner, slope, leaf)
            heappush(heaps[leaf], entry)
            best = wins[cap + leaf]
            if best is None or entry < best:
                wins[cap + leaf] = entry
                if leaf != dirty:
                    changed.append(leaf)
        if changed:
            self._replay_paths(changed)

    def delete(self, owner: int) -> None:
        """Remove the line with this owner id, in O(k) on a bucket of k lines."""
        entry = self._where.pop(owner, None)
        if entry is None:
            raise UsageError(f"no stored line with owner {owner}")
        self.counters["deletes"] += 1
        leaf = entry[3]
        heap = self._heaps[leaf]
        heap.remove(entry)
        heapify(heap)
        node = self._cap + leaf
        if self._win[node] is not entry:
            return  # not the bucket minimum
        self._win[node] = heap[0] if heap else None
        if self._dirty is None:
            self._dirty = leaf
        elif self._dirty != leaf:
            self._replay_paths((leaf,))

    def query_min(self, x: Scalar):
        """Return (owner, value) of the minimal line at x >= 0, canonical ties."""
        owners, values = self._steps((x,), False)
        return owners[0], values[0]

    def raise_each(self, xs, admit=()):
        """One LPT step at each x >= 0 of the sequence xs in turn: find the
        minimal line at x as query_min does and set its intercept to its
        value there. Returns the lists (owners, values).

        Each step leaves the envelope, counters included, as query_min(x),
        delete(owner) and insert(Line(slope, value, owner)) would: it counts
        one query, one delete and one insert, and leaves the raised leaf
        pending. ``admit`` holds (k, lines) pairs, k ascending with
        0 <= k < len(xs): each batch of lines goes through ``insert`` just
        before step k, so the call leaves the envelope as separate ``insert``
        and ``raise_each`` calls would. Admissions out of order or past the
        last step are rejected before any step runs.
        """
        return self._steps(xs, True, admit)

    def breakpoints(self):
        """Envelope pieces as (start_x, owner); the first start is None (-inf)."""
        chain = self._hull_chain()
        return [(None if i == 0 else _crossing(chain[i - 1], p), p[2])
                for i, p in enumerate(chain)]

    def breakpoints_json(self) -> str:
        """The piece list as JSON, breakpoints rendered losslessly as strings."""
        entries = [
            {"start": None if x is None else scalar_to_str(x), "owner": owner}
            for x, owner in self.breakpoints()
        ]
        return json.dumps(entries)

    # -- tournament ------------------------------------------------------------

    def _steps(self, xs, lift, admit=()):
        """Query at each x of the sequence xs in turn and, with lift, raise
        each winner to its value there; returns the lists (owners, values).
        The counts and the state live in locals and are stored back once,
        also when a bad x stops the run; the horizon and the point are also
        stored around each call that reads them (``_repair``, ``_find_rival``,
        ``_rebuild`` and ``insert``, for a batch of ``admit`` that enters
        between two steps)."""
        runs = _runs(xs, admit) if admit else ((None, xs),)
        where, heaps = self._where, self._heaps
        parent, sibling, depth = _PARENT, _SIBLING, _DEPTH
        leaf, rival, streak = self._dirty, self._rival, self._streak
        at, horizon = self._x, self._horizon
        owners, values = [], []
        replays = comparisons = 0
        try:
            for lines, run in runs:
                if lines is not None:  # a batch enters between two steps
                    self._dirty, self._rival, self._streak = leaf, rival, streak
                    self._x, self._horizon = at, horizon
                    self.insert(*lines)
                    leaf, rival, streak = self._dirty, self._rival, self._streak
                    at, horizon = self._x, self._horizon
                if run and not where:
                    raise UsageError("query on an empty envelope")
                los, wins, cap = self._lo, self._win, self._cap  # the row may have grown
                for x in run:
                    if not 0 <= x < _POS_INF:  # also rejects nan
                        raise UsageError(f"query point must be finite and >= 0, "
                                         f"got {scalar_to_str(x)}")
                    if x >= horizon:  # a steeper winner may have lost: replay all
                        self._rebuild(x)
                        leaf = rival = None
                        horizon = self._horizon
                    if leaf is None:
                        at, streak = x, 0
                        if los[1] > x:
                            self._x, self._horizon = x, horizon
                            self._repair(1)
                            horizon = self._horizon
                        best = wins[1]
                    else:
                        k = cap + leaf
                        best = wins[k]
                        # LPT often picks the same slope again: if the leaf's
                        # new minimum beats its rival, no path is replayed.
                        hit = False
                        if rival is not None:
                            if rival[0] != leaf:
                                rival = None  # another leaf's rival: this leaf's change voids it
                            elif best is not None and rival[2] <= x:
                                b = rival[1]
                                if b is None:
                                    hit = True
                                else:  # _decide, inline: best wins below the crossing iff steeper
                                    comparisons += 1
                                    slope, bslope = best[2], b[2]
                                    hit = (x < (b[0] - best[0]) / (slope - bslope)) == (slope > bslope)
                        if not hit:
                            # Replay the pending path at x from the leaf up, carrying
                            # the winner a (no two leaves share a slope, so which
                            # child is which changes no result). A sibling holds at
                            # the old point; if its lo exceeds x, it is repaired.
                            at = x
                            d = depth[k]  # the path's comparisons, less empty sides
                            replays, comparisons = replays + d, comparisons + d
                            a, lo, hi = best, _NEG_INF, _POS_INF
                            if a is not None:
                                icept, slope = a[0], a[2]
                            while k > 1:
                                s = sibling[k]
                                slo = los[s]
                                if slo > lo:
                                    if slo > x:
                                        self._x, self._horizon = x, horizon
                                        self._repair(s)
                                        horizon = self._horizon
                                        continue
                                    lo = slo
                                b = wins[s]
                                k = parent[k]
                                if a is None or b is None:  # nothing to compare
                                    comparisons -= 1
                                    if b is not None:
                                        a, icept, slope = b, b[0], b[2]
                                else:  # _decide, inline: calling it made LPT runs 1.2x slower
                                    bslope = b[2]
                                    cross = (b[0] - icept) / (slope - bslope)
                                    if x < cross:  # the steeper line wins below cross
                                        if cross < hi:
                                            hi = cross
                                        if bslope > slope:
                                            a, icept, slope = b, b[0], bslope
                                    else:  # the flatter line wins from cross on
                                        if cross > lo:
                                            lo = cross
                                        if bslope < slope:
                                            a, icept, slope = b, b[0], bslope
                                los[k] = lo
                                wins[k] = a
                            if hi < horizon:
                                horizon = hi
                            if a[3] != leaf:
                                streak = 0
                            else:
                                # Wait for a third win in a row: short runs would
                                # not repay the cost of finding the rival.
                                streak += 1
                                if streak >= 2:
                                    self._horizon = horizon
                                    rival = self._find_rival(leaf, x)
                                    horizon = self._horizon
                            leaf, best = None, a
                    icept, owner, slope, won = best
                    value = slope * x + icept
                    if lift:
                        entry = where[owner] = (value, owner, slope, won)
                        heap = heaps[won]
                        heapreplace(heap, entry)  # the winner is its heap's top
                        wins[cap + won] = heap[0]
                        leaf = won
                    owners.append(owner)
                    values.append(value)
        finally:
            self._dirty, self._rival, self._streak = leaf, rival, streak
            self._x, self._horizon = at, horizon
            counters = self.counters
            steps = len(owners)
            counters["queries"] += steps
            if lift:
                counters["deletes"] += steps
                counters["inserts"] += steps
            counters["replays"] += replays
            counters["comparisons"] += comparisons
        return owners, values

    def _grow(self) -> None:
        """Give every slope a leaf and replay every internal node at _x, in
        one pass: each bucket is heapified and offers its minimum, then
        ``_rebuild`` replays the nodes. A tree without leaves gets exactly
        one per slope; a full one doubles its leaf row until all fit."""
        heaps = self._heaps
        leaves = len(heaps)
        cap = self._cap or leaves
        while cap < leaves:
            cap *= 2
        _index_tables(2 * cap)
        wins = [None] * (2 * cap)
        for k, heap in enumerate(heaps, cap):
            heapify(heap)
            if heap:
                wins[k] = heap[0]
        self._cap, self._lo, self._win = cap, [_NEG_INF] * (2 * cap), wins
        self._rebuild(self._x)

    def _rebuild(self, x) -> None:
        """Replay every internal node at x from fresh leaves, starting the
        horizon over at +inf; drop the pending leaf and the rival."""
        self._x, self._dirty, self._rival = x, None, None
        self._horizon = _POS_INF
        self._replay(range(self._cap - 1, 0, -1))

    def _replay_paths(self, leaves) -> None:
        """Replay the paths of these leaves, none of them pending, at _x up
        to the lowest node each shares with the pending leaf's path: the
        next query replays that path, at its own point."""
        cap, dirty, parent = self._cap, self._dirty, _PARENT
        order = []
        for leaf in leaves:
            if self._rival is not None and self._rival[0] != leaf:
                self._rival = None
            k = cap + leaf
            meet = 0 if dirty is None else _common_ancestor(k, cap + dirty)
            k = parent[k]
            while k != meet:
                order.append(k)
                k = parent[k]
        if len(leaves) > 1:
            order = sorted(set(order), reverse=True)  # children before parents
        self._replay(order)

    def _repair(self, top: int) -> None:
        """Replay every node under top (top included) whose lo exceeds _x; a
        node whose lo does not vouches for its subtree."""
        los, x, left, right = self._lo, self._x, _LEFT, _RIGHT
        failed, stack = [], [top]
        while stack:
            k = stack.pop()
            if los[k] > x:  # leaves never fail
                failed.append(k)
                stack.append(left[k])
                stack.append(right[k])
        failed.reverse()  # children before parents
        self._replay(failed)

    def _find_rival(self, leaf: int, x):
        """The leaf's rival and its lo: the winners beside its path folded at
        x, where every node is valid; a steeper line's win lowers the horizon."""
        los, wins, horizon = self._lo, self._win, self._horizon
        rival, rlo, comparisons = None, _NEG_INF, 0
        node = self._cap + leaf
        while node > 1:
            s = _SIBLING[node]
            slo, line = los[s], wins[s]
            rlo = max(rlo, slo)
            if rival is None:
                rival = line
            elif line is not None:
                comparisons += 1
                rival, rlo, horizon = _decide(rival, line, x, rlo, horizon)
            node = _PARENT[node]
        self._horizon = horizon
        self.counters["comparisons"] += comparisons
        return leaf, rival, rlo

    def _replay(self, order) -> None:
        """Recompute each node from its children at the current x, in order.
        A node's lo is its own comparison's, raised to both children's."""
        los, wins, x, horizon = self._lo, self._win, self._x, self._horizon
        left, right = _LEFT, _RIGHT
        comparisons = 0
        for k in order:
            l, r = left[k], right[k]
            klo, other, a, b = los[l], los[r], wins[l], wins[r]
            if other > klo:
                klo = other
            if a is None:
                a = b
            elif b is not None:  # _decide, inline
                comparisons += 1
                slope, bslope = a[2], b[2]
                cross = (b[0] - a[0]) / (slope - bslope)
                if x < cross:  # the steeper line wins below cross
                    if cross < horizon:
                        horizon = cross
                    if bslope > slope:
                        a = b
                else:  # the flatter line wins from cross on
                    if cross > klo:
                        klo = cross
                    if bslope < slope:
                        a = b
            los[k] = klo
            wins[k] = a
        self._horizon = horizon
        counters = self.counters
        counters["replays"] += len(order)
        counters["comparisons"] += comparisons

    # -- envelope pieces and debug -------------------------------------------

    def _hull_chain(self) -> list:
        """Bucket minima on the envelope, steepest first (Graham chain over
        the strict lower hull of the dual points)."""
        pts = sorted((Line(e[2], e[0], e[1]) for e in self._win[self._cap:]
                      if e is not None), reverse=True)  # distinct slopes
        chain = []
        for p in pts:
            while len(chain) >= 2 and _covered(chain[-2], chain[-1], p):
                chain.pop()
            chain.append(p)
        return chain

    def check_invariants(self) -> None:
        """Check that each bucket heap holds exactly its stored lines, every
        leaf (the pending one too) against its bucket, and every node against
        the minimum over its subtree's leaves at _x (by value, so exact only
        in rational mode), its children's lo and the horizon, which must lie
        above _x and no stored steeper winner's crossing. The pending leaf's
        path above it is skipped until the next query replays it. Test hook,
        not hot path. The index tables must give every node below 2 * _cap
        its parent, sibling, depth and children."""
        cap, x, los, wins, horizon = self._cap, self._x, self._lo, self._win, self._horizon
        assert len(los) == len(wins) == 2 * cap and len(self._heaps) <= cap
        assert all(_PARENT[k] == k >> 1 and _SIBLING[k] == k ^ 1
                   and _DEPTH[k] == k.bit_length() - 1 for k in range(2 * cap))
        assert all(_LEFT[k] == 2 * k and _RIGHT[k] == 2 * k + 1 for k in range(cap))
        stored = {e[1]: e for heap in self._heaps for e in heap}
        assert len(stored) == sum(map(len, self._heaps)) == len(self._where)
        assert all(self._where.get(owner) is e for owner, e in stored.items())
        assert all(e[3] == i for i, heap in enumerate(self._heaps) for e in heap)
        stale = set()  # the pending leaf's ancestors
        k = (cap + self._dirty) >> 1 if self._dirty is not None else 0
        while k:
            stale.add(k)
            k >>= 1
        buckets = {}
        for e in self._where.values():
            assert self._leaf_of[e[2]] == e[3]
            if e[3] not in buckets or e < buckets[e[3]]:
                buckets[e[3]] = e

        def value(e):
            return e[2] * x + e[0], e[2]

        def checked_winner(k):
            lo, got = los[k], wins[k]
            if k >= cap:
                want = buckets.get(k - cap)
            else:
                a, b = checked_winner(2 * k), checked_winner(2 * k + 1)
                want = min((e for e in (a, b) if e is not None), key=value, default=None)
                if k not in stale:
                    assert lo <= x < horizon, f"node {k} certificate excludes x"
                    assert los[2 * k] <= lo >= los[2 * k + 1], f"node {k} outgrows a child"
                    if a is not None and b is not None:
                        _, cut, hi = _decide(a, b, x, _NEG_INF, _POS_INF)
                        assert cut <= lo and horizon <= hi, f"node {k} outlives its crossing"
            assert k in stale or got is want, f"node {k} at x={x}: {got} != {want}"
            return got

        if cap:
            checked_winner(1)
        if self._rival is not None and self._dirty in (None, self._rival[0]):
            leaf, line, rlo = self._rival
            want = min((e for i, e in buckets.items() if i != leaf), key=value, default=None)
            assert not rlo <= x or line is want, f"rival of leaf {leaf} at x={x}"


def _decide(a, b, x, lo, hi):
    """The winner at x of two lines of different slopes, with lo raised to
    their crossing if the flatter line wins (from there on), or hi lowered
    to it if the steeper one wins (left of it): at equal value the lesser
    slope wins. Either order of a and b gives the same crossing. The walk in
    ``_steps``, its rival check and the loop in ``_replay`` inline it:
    change all four alike."""
    cross = (b[0] - a[0]) / (a[2] - b[2])
    if x < cross:
        return a if a[2] > b[2] else b, lo, cross if cross < hi else hi
    return b if a[2] > b[2] else a, cross if cross > lo else lo, hi


def _runs(xs, admit) -> list:
    """xs cut before each admission: (lines or None, the x's up to the next
    admission) pairs, the first with None. Checks every step index first."""
    runs, lines, start = [], None, 0
    for k, batch in admit:
        if not start <= k < len(xs):
            raise UsageError(f"admission at step {k} is out of order or past "
                             f"the last of {len(xs)} steps")
        runs.append((lines, xs[start:k]))
        lines, start = batch, k
    runs.append((lines, xs[start:]))
    return runs


def _common_ancestor(a: int, b: int) -> int:
    """The lowest common ancestor of two nodes of the heap-ordered tree."""
    shift = a.bit_length() - b.bit_length()
    if shift > 0:
        a >>= shift
    else:
        b >>= -shift
    return a >> (a ^ b).bit_length()


def _crossing(a, b):
    """x where line a (larger slope) hands over to line b."""
    return (a[1] - b[1]) / (b[0] - a[0])


def _covered(a, b, c):
    """True if b never strictly wins between a and c (slopes a > b > c)."""
    return (b[1] - a[1]) * (b[0] - c[0]) >= (c[1] - b[1]) * (a[0] - b[0])
