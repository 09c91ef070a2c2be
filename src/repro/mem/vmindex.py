"""Sorted interval index over pregion lists: the VM translation fast path.

The paper's section 6.2 lookup — private pregions first, then shared —
was a linear scan on every TLB miss, every kernel-copy page and every
stack-growth probe.  :class:`PregionList` keeps the authoritative list
semantics (it *is* a list, so every existing ``append``/``remove``/``in``
call site keeps working) and adds a bisectable view sorted by ``vlow``.

The view is always current: ``append`` inserts at the bisect position,
``remove`` deletes at it, and :meth:`Pregion.grow_down_to` — the only
mutation that moves a ``vlow`` — re-keys its one pregion through the
owner backref.  Upward growth and shrinking leave ``vlow`` alone, so
they never touch the index.  Each edit is O(log n) comparisons plus one
C-level memmove.  Edits must be cheap because they are not rare: a
share-group churn workload (``sproc``, ``mmap``/``munmap``, exited
members' stacks kept on a ~160-entry shared list) attaches or detaches
about 1.2 pregions per lookup (docs/INTERNALS.md section 12).  All
mutators run under the share group's update lock (or own the space
outright), so a reader under the read lock never sees a half-edited view.

Within one list pregions never overlap (private may shadow *shared*, but
that is a cross-list affair resolved by private-first lookup order), so
a binary search on ``vlow`` has exactly one containment candidate: the
rightmost pregion starting at or below the address.  The same argument
gives :meth:`PregionList.overlapping` one candidate: the rightmost
pregion starting below the range's end.

Each pregion also records the list that currently holds it (``owner``),
which lets :meth:`AddressSpace.detach` drop it in a single pass instead
of probing every list with ``in`` first.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional

from repro.mem.pregion import Growth, Pregion


class PregionList(list):
    """A pregion list that owns a sorted interval index over itself.

    Lookups report how many comparisons they made so experiments can
    contrast bisect steps with the linear scan's entries-examined count
    (kstat ``pregion_scan_len``); the counting is host-side arithmetic
    and never charges simulated cycles.
    """

    __slots__ = ("_starts", "_order", "_down_starts", "_down")

    def __init__(self, iterable=()):
        list.__init__(self, iterable)
        order = sorted(self, key=lambda pregion: pregion.vbase)
        #: the members sorted by ``vlow``, and their ``vlow`` keys
        self._order: List[Pregion] = order
        self._starts: List[int] = [pregion.vbase for pregion in order]
        #: the same view restricted to DOWN-growing members (stacks)
        self._down: List[Pregion] = [
            pregion for pregion in order if pregion.growth is Growth.DOWN
        ]
        self._down_starts: List[int] = [pregion.vbase for pregion in self._down]
        for pregion in self:
            pregion.owner = self

    # ------------------------------------------------------------------
    # mutation (the only ways kernel code edits a pregion list)

    def append(self, pregion: Pregion) -> None:
        list.append(self, pregion)
        pregion.owner = self
        for starts, order in self._views(pregion):
            self._index(starts, order, pregion)

    def remove(self, pregion: Pregion) -> None:
        list.remove(self, pregion)
        pregion.owner = None
        for starts, order in self._views(pregion):
            self._unindex(starts, order, pregion, pregion.vbase)

    def rekey(self, pregion: Pregion, old_vlow: int) -> None:
        """Re-sort a member whose ``vlow`` moved from ``old_vlow``."""
        for starts, order in self._views(pregion):
            self._unindex(starts, order, pregion, old_vlow)
            self._index(starts, order, pregion)

    def _views(self, pregion: Pregion):
        """The sorted views ``pregion`` belongs in."""
        yield self._starts, self._order
        if pregion.growth is Growth.DOWN:
            yield self._down_starts, self._down

    @staticmethod
    def _index(starts: List[int], order: List[Pregion], pregion: Pregion) -> None:
        pos = bisect_right(starts, pregion.vbase)
        starts.insert(pos, pregion.vbase)
        order.insert(pos, pregion)

    @staticmethod
    def _unindex(starts: List[int], order: List[Pregion], pregion: Pregion,
                 vlow: int) -> None:
        # Equal keys are rare (only an empty pregion can tie), so the
        # identity walk from the leftmost one is short.
        pos = bisect_left(starts, vlow)
        while order[pos] is not pregion:
            pos += 1
        del starts[pos]
        del order[pos]

    # ------------------------------------------------------------------
    # the index

    @staticmethod
    def _bisect_right(starts: List[int], value: int):
        """Rightmost insertion point, returned with the comparison count."""
        lo, hi, steps = 0, len(starts), 0
        while lo < hi:
            steps += 1
            mid = (lo + hi) // 2
            if starts[mid] <= value:
                lo = mid + 1
            else:
                hi = mid
        return lo, steps

    def lookup(self, vaddr: int):
        """The pregion containing ``vaddr`` (or None), plus bisect steps."""
        pos, steps = self._bisect_right(self._starts, vaddr)
        if pos:
            candidate = self._order[pos - 1]
            steps += 1
            if candidate.contains(vaddr):
                return candidate, steps
        return None, steps

    def nearest_down_above(self, vaddr: int):
        """The DOWN-growing member with the smallest ``vlow > vaddr``.

        Returns ``(pregion_or_None, steps)`` — the stack-growth probe's
        replacement for scanning the whole list per SEGV check.
        """
        pos, steps = self._bisect_right(self._down_starts, vaddr)
        if pos < len(self._down):
            return self._down[pos], steps + 1
        return None, steps

    def overlapping(self, vlow: int, vhigh: int) -> Optional[Pregion]:
        """A member overlapping ``[vlow, vhigh)``, or None.

        Members are disjoint, so the rightmost one starting below
        ``vhigh`` also ends last: it overlaps iff any member does.
        Charges nothing and counts nothing — attach-time only.
        """
        pos = bisect_left(self._starts, vhigh)
        if pos:
            candidate = self._order[pos - 1]
            if candidate.vhigh > vlow:
                return candidate
        return None

    def index_errors(self) -> List[str]:
        """Ways the sorted views disagree with the list (invariant).

        Empty when the view holds exactly the members, sorted by
        ``vbase`` under their current keys (and the DOWN view exactly
        the stacks), every member's ``owner`` is this list, and
        consecutive members are disjoint.
        """
        errors = []
        stacks = [pregion for pregion in self if pregion.growth is Growth.DOWN]
        for name, members, starts, order in (
            ("sorted view", self, self._starts, self._order),
            ("stack view", stacks, self._down_starts, self._down),
        ):
            if sorted(map(id, order)) != sorted(map(id, members)):
                errors.append("%s %r holds other pregions than the list"
                              % (name, order))
            if starts != [pregion.vbase for pregion in order]:
                errors.append("%s keys %s are not its members' vbases"
                              % (name, [hex(start) for start in starts]))
            if starts != sorted(starts):
                errors.append("%s %r is not sorted by vbase" % (name, order))
        for pregion in self:
            if pregion.owner is not self:
                errors.append("%r: owner is not the list holding it" % pregion)
        for lower, upper in zip(self._order, self._order[1:]):
            if lower.vhigh > upper.vlow:
                errors.append("%r overlaps %r" % (lower, upper))
        return errors
