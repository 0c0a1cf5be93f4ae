"""Scheduled-event handles for the DES kernel."""

from __future__ import annotations


class EventHandle:
    """Handle to a scheduled callback; supports cancellation.

    Cancellation is lazy: the heap entry stays in place and is skipped when
    it reaches the front, which keeps :meth:`cancel` O(1).  The owning
    :class:`~repro.sim.simulator.Simulator` is notified (via ``owner``) so
    it can account tombstones and compact the heap when they pile up; the
    kernel clears ``owner`` once the entry leaves the heap, so cancelling
    an already-fired handle stays a cheap no-op.

    Only :meth:`Simulator.schedule` and :meth:`Simulator.schedule_at`
    create handles; they allocate them bare and store every slot inline.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "label", "owner")

    def cancel(self) -> None:
        """Prevent the callback from firing; safe to call multiple times."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None
        owner = self.owner
        if owner is not None:
            owner._note_cancelled()  # type: ignore[attr-defined]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.9f}, seq={self.seq}, {state}, {self.label!r})"
