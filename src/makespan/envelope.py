"""Dynamic minimum of lines under a moving query point: insert, delete,
point-minimum query, and the fused LPT step raise_min.

Lines are y = slope*x + intercept, one per owner id. query_min(x) returns the
stored line minimizing its value at x under the canonical tie rule: least
value, then least slope, then least owner id. raise_min(x) is one LPT step:
it finds that line and sets its intercept to its value at x.

The structure is a kinetic tournament (Basch, Guibas & Hershberger, "Data
structures for mobile data", J. Algorithms 31, 1999) over per-slope buckets:

* each leaf holds the lines of one slope in a lazy heap on (intercept,
  owner); only its minimum can win, so the leaf offers just that line;
* each node of the tree is one (lo, hi, winner) tuple: the winner of its two
  children at the current query point x, and the interval [lo, hi) of x on
  which that comparison and every comparison below it still hold. Two lines
  of different slopes cross once: the steeper one wins iff x is left of the
  crossing, which also settles ties (at equal value the lesser slope wins);
* a query at a new x replays only the nodes whose interval excludes x; an
  update replays the path of its slope at the current x, walking up from the
  leaf. Deleting a bucket minimum leaves that replay pending, and inserts on
  the same slope keep it pending, until a query or an update of another
  slope. raise_min replaces the winner in its bucket's heap and leaves the
  same pending replay as that delete and reinsert, so an LPT step is one
  call and costs at most one path replay;
* when one leaf wins three queries in a row, the query caches the leaf's
  rival: the best line beside its path, with the interval on which it stays
  best. While that leaf is pending and no other leaf has changed, a query
  inside the interval compares the leaf's new minimum with the rival and,
  if it wins, answers without replaying the path.

Updates cost one path, O(log S) node replays for S distinct slopes (leaves are
never freed; the tree doubles when it fills). A query replays every node whose
certificate failed, so queries at arbitrary points have no logarithmic bound.
The LPT pattern (query points that only shrink, one raised line per query)
has a measured one: tests/test_envelope.py holds node replays per job,
queries and updates together, under 1.5 per tree level at m = 100 to 4000
machines and n = 10m jobs. Measured per level: 1.28 to 1.37 for lpt-fast and
0.84 to 0.95 for dwp-lpt with distinct speeds; 1.23 falling to 0.34 for
lpt-fast on 301 shared slopes, where buckets fill and the rival check answers
most queries.
"""

from __future__ import annotations

import json
from heapq import heappop, heappush, heapreplace
from typing import NamedTuple

from .errors import UsageError
from .numeric import Scalar, scalar_to_str

_NEG_INF = float("-inf")
_POS_INF = float("inf")
_EMPTY = (_NEG_INF, _POS_INF, None)  # a node without lines, valid everywhere


class Line(NamedTuple):
    slope: Scalar
    intercept: Scalar
    owner: int


class LowerEnvelope:
    """Dynamic lower envelope with owner-keyed insert/delete and min queries."""

    def __init__(self):
        # A stored line is the entry (intercept, owner, slope, leaf); an
        # entry in a leaf heap is live iff _where still holds that object.
        self._where = {}         # owner -> entry
        self._leaf_of = {}       # slope -> leaf index
        self._heaps = []         # leaf index -> lazy min-heap of entries
        self._x = 0              # the point every node's winner is valid at
        self._dirty = None       # leaf whose path replay is pending
        # (leaf, line, lo, hi): the best line outside that leaf's subtree,
        # valid for x in [lo, hi) while no other leaf changes.
        self._rival = None
        self._streak = 0         # queries in a row won by the pending leaf
        # Heap-ordered tree: node k has children 2k, 2k+1; leaf i is node
        # _cap + i. Each node is (lo, hi, winning entry or None); a leaf's
        # winner is its bucket minimum, or a deleted entry while it is
        # pending, and its interval is everything.
        self._cap = 1
        self._nodes = [_EMPTY, _EMPTY]
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

    def insert(self, line: Line) -> None:
        """Add a line; its owner id must not be present yet."""
        slope, icept, owner = line
        if owner in self._where:
            raise UsageError(f"owner {owner} already has a stored line")
        self.counters["inserts"] += 1
        leaf = self._leaf_of.get(slope)
        dirty = self._dirty
        if dirty is not None and dirty != leaf:
            self._flush()
        if leaf is None:
            leaf = self._new_leaf(slope)
        entry = self._where[owner] = (icept, owner, slope, leaf)
        heappush(self._heaps[leaf], entry)
        if leaf == dirty:
            return  # leaf and path stay pending; a query may skip the path
        best = self._nodes[self._cap + leaf][2]
        if best is None or entry < best:
            self._settle(leaf)

    def delete(self, owner: int) -> None:
        """Remove the line with this owner id."""
        entry = self._where.pop(owner, None)
        if entry is None:
            raise UsageError(f"no stored line with owner {owner}")
        self.counters["deletes"] += 1
        leaf = entry[3]
        if self._nodes[self._cap + leaf][2] is not entry:
            return  # not the bucket minimum (or the leaf is already pending)
        heap = self._heaps[leaf]
        if heap[0] is entry:  # else a smaller line arrived while pending
            heappop(heap)
        dirty = self._dirty
        if dirty is not None and dirty != leaf:
            self._flush()
        self._dirty = leaf

    def query_min(self, x: Scalar):
        """Return (owner, value) of the minimal line at x >= 0, canonical ties."""
        icept, owner, slope, _ = self._query(x)
        return owner, slope * x + icept

    def raise_min(self, x: Scalar):
        """One LPT step: find the minimal line at x >= 0 as query_min does,
        set its intercept to its value there, and return (owner, value).

        This leaves the envelope, counters included, as query_min(x),
        delete(owner) and insert(Line(slope, value, owner)) would: it counts
        one query, one delete and one insert, and leaves the raised leaf
        pending.
        """
        icept, owner, slope, leaf = self._query(x)
        value = slope * x + icept
        entry = self._where[owner] = (value, owner, slope, leaf)
        heapreplace(self._heaps[leaf], entry)  # the live winner is its heap's top
        self._dirty = leaf
        counters = self.counters
        counters["deletes"] += 1
        counters["inserts"] += 1
        return owner, value

    def breakpoints(self):
        """Envelope pieces as (start_x, owner); the first start is None (-inf)."""
        if self._dirty is not None:
            self._flush()
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

    def _query(self, x):
        """The winning entry at x, with every node valid at x or the winner's
        leaf still pending (see the rival check)."""
        if not self._where:
            raise UsageError("query on an empty envelope")
        if not x >= 0:  # also rejects nan
            raise UsageError(f"query point must be >= 0, got {scalar_to_str(x)}")
        counters = self.counters
        counters["queries"] += 1
        nodes = self._nodes
        flushed = self._dirty
        if flushed is not None:
            # LPT often picks the same slope again: if the pending leaf's
            # minimum beats its rival, the stale path need not be replayed.
            rival = self._rival
            if rival is not None and rival[0] == flushed and rival[2] <= x < rival[3]:
                self._refresh(flushed)
                best = nodes[self._cap + flushed][2]
                if best is not None:
                    counters["comparisons"] += 1
                    if rival[1] is None or _duel(best, rival[1], x)[0] is best:
                        return best
            self._flush()
        self._x = x
        lo, hi, best = nodes[1]
        if not lo <= x < hi:
            # Collect failed nodes top-down; leaves never fail, and a node
            # whose interval holds x vouches for its whole subtree.
            failed, stack = [], [1]
            while stack:
                k = stack.pop()
                lo, hi, _ = nodes[k]
                if not lo <= x < hi:
                    failed.append(k)
                    stack.append(2 * k)
                    stack.append(2 * k + 1)
            failed.reverse()  # children before parents
            self._replay(failed)
            best = nodes[1][2]
        if best[3] != flushed:
            self._streak = 0
        else:
            # Wait for a third win in a row: short runs would not repay the
            # cost of finding the rival.
            self._streak += 1
            if self._streak >= 2:
                self._find_rival(flushed)
        return best

    def _new_leaf(self, slope) -> int:
        leaf = self._leaf_of[slope] = len(self._heaps)
        self._heaps.append([])
        if leaf == self._cap:
            # Full: double the leaf row and replay every internal node.
            cap = self._cap
            self._nodes = [_EMPTY] * (2 * cap) + self._nodes[cap:] + [_EMPTY] * cap
            self._cap = 2 * cap
            self._rival = None
            self._replay(range(2 * cap - 1, 0, -1))
        return leaf

    def _flush(self) -> None:
        leaf, self._dirty = self._dirty, None
        self._settle(leaf)

    def _refresh(self, leaf: int) -> None:
        """Drop deleted entries from the top of the leaf's heap and offer
        its minimum."""
        heap, where, nodes = self._heaps[leaf], self._where, self._nodes
        node = self._cap + leaf
        if heap and nodes[node][2] is heap[0]:
            return  # refreshed since the last change
        while heap and where.get(heap[0][1]) is not heap[0]:
            heappop(heap)
        nodes[node] = (_NEG_INF, _POS_INF, heap[0] if heap else None)

    def _settle(self, leaf: int) -> None:
        """Refresh the leaf, then replay its path to the root."""
        self._refresh(leaf)
        if self._rival is not None and self._rival[0] != leaf:
            self._rival = None
        # _replay's step, inlined because paths are most of an LPT step's
        # replays: walk k >>= 1 and carry the node just computed up as one
        # child. Which child is which changes no result, as no two leaves
        # share a slope.
        nodes, x = self._nodes, self._x
        k = self._cap + leaf
        lo, hi, a = nodes[k]
        comparisons = 0
        while k > 1:
            slo, shi, b = nodes[k ^ 1]
            k >>= 1
            if slo > lo:
                lo = slo
            if shi < hi:
                hi = shi
            if a is None:
                a = b
            elif b is not None:
                comparisons += 1
                if a[2] < b[2]:
                    a, b = b, a  # a is the steeper line
                cross = (b[0] - a[0]) / (a[2] - b[2])
                if x < cross:
                    if cross < hi:
                        hi = cross
                else:
                    a = b
                    if cross > lo:
                        lo = cross
            nodes[k] = (lo, hi, a)
        counters = self.counters
        counters["replays"] += self._cap.bit_length() - 1
        counters["comparisons"] += comparisons

    def _find_rival(self, leaf: int) -> None:
        """Fold the winners beside the leaf's path into its rival at the
        current x; every node is valid there."""
        nodes, x = self._nodes, self._x
        rival, rlo, rhi = None, _NEG_INF, _POS_INF
        node = self._cap + leaf
        while node > 1:
            slo, shi, line = nodes[node ^ 1]
            rlo, rhi = max(rlo, slo), min(rhi, shi)
            if rival is None:
                rival = line
            elif line is not None:
                rival, dlo, dhi = _duel(rival, line, x)
                rlo, rhi = max(rlo, dlo), min(rhi, dhi)
                self.counters["comparisons"] += 1
            node >>= 1
        self._rival = (leaf, rival, rlo, rhi)

    def _replay(self, order) -> None:
        """Recompute each node from its children at the current x, in order.
        A node's interval is its own comparison's, cut to both children's."""
        nodes, x = self._nodes, self._x
        comparisons = 0
        for k in order:
            klo, khi, a = nodes[2 * k]
            other, ohi, b = nodes[2 * k + 1]
            if other > klo:
                klo = other
            if ohi < khi:
                khi = ohi
            if a is None:
                a = b
            elif b is not None:
                comparisons += 1
                if a[2] < b[2]:
                    a, b = b, a  # a is the steeper line
                cross = (b[0] - a[0]) / (a[2] - b[2])
                if x < cross:
                    if cross < khi:
                        khi = cross
                else:
                    a = b
                    if cross > klo:
                        klo = cross
            nodes[k] = (klo, khi, a)
        counters = self.counters
        counters["replays"] += len(order)
        counters["comparisons"] += comparisons

    # -- envelope pieces and debug -------------------------------------------

    def _hull_chain(self) -> list:
        """Bucket minima on the envelope, steepest first (Graham chain over
        the strict lower hull of the dual points)."""
        pts = sorted((Line(e[2], e[0], e[1]) for _, _, e in self._nodes[self._cap:]
                      if e is not None), reverse=True)  # distinct slopes
        chain = []
        for p in pts:
            while len(chain) >= 2 and _covered(chain[-2], chain[-1], p):
                chain.pop()
            chain.append(p)
        return chain

    def check_invariants(self) -> None:
        """Check every leaf against its bucket and every node against a brute
        force over its subtree at the current x (by value, so exact only in
        rational mode). Test hook, not hot path."""
        if self._dirty is not None:
            self._flush()
        cap, x = self._cap, self._x
        win = [e for _, _, e in self._nodes]
        buckets = {}
        for e in self._where.values():
            assert self._leaf_of[e[2]] == e[3]
            if e[3] not in buckets or e < buckets[e[3]]:
                buckets[e[3]] = e
        for leaf in range(len(self._heaps)):
            want = buckets.get(leaf)
            assert win[cap + leaf] is want, f"leaf {leaf}: {win[cap + leaf]} != {want}"
        for k in range(1, cap):
            first, last = k, k + 1
            while first < cap:
                first, last = 2 * first, 2 * last
            entries = [e for e in win[first:last] if e is not None]
            want = min(entries, key=lambda e: (e[2] * x + e[0], e[2]), default=None)
            assert win[k] is want, f"node {k} at x={x}: {win[k]} != {want}"
            lo, hi, _ = self._nodes[k]
            assert lo <= x < hi, f"node {k} certificate excludes x"
        if self._rival is not None:
            leaf, line, rlo, rhi = self._rival
            others = [e for i, e in enumerate(win[cap:]) if i != leaf and e is not None]
            want = min(others, key=lambda e: (e[2] * x + e[0], e[2]), default=None)
            assert line is want and rlo <= x < rhi, f"rival of leaf {leaf} at x={x}"


def _duel(a, b, x):
    """The winner of two lines of different slopes at x, with the interval
    [lo, hi) on which it stays the winner (the tie rule of _replay)."""
    if a[2] < b[2]:
        a, b = b, a  # a is the steeper line
    cross = (b[0] - a[0]) / (a[2] - b[2])
    if x < cross:
        return a, _NEG_INF, cross
    return b, cross, _POS_INF


def _crossing(a, b):
    """x where line a (larger slope) hands over to line b."""
    return (a[1] - b[1]) / (b[0] - a[0])


def _covered(a, b, c):
    """True if b never strictly wins between a and c (slopes a > b > c)."""
    return (b[1] - a[1]) * (b[0] - c[0]) >= (c[1] - b[1]) * (a[0] - b[0])
