"""Sentence-activation notification sites.

The application and run-time system notify the SAS when sentences become
active (Section 4.2).  Each notification *site* is itself a piece of
dynamically-inserted instrumentation: the tool can disable a site, removing
both the notification and its run-time cost ("We could eliminate this cost
by dynamically removing such notifications from the executing code").

Site naming convention used by the CMRTS runtime:

* ``stmt``            -- source-line Executes sentences
* ``array.<NAME>``    -- per-array operation sentences ({A Sum}, {A Compute})
* ``msg``             -- Base-level message-send sentences
* ``cmrts``           -- CMRTS activity sentences (Idle, Cleanup, ...)

Costs: an *enabled* site charges ``notify_cost`` per notification whether or
not the SAS ends up keeping the sentence (limitation #2: filtered sentences
still paid for their notification).  A *disabled* site charges nothing.
"""

from __future__ import annotations

from typing import Sequence

from ..core import ActiveSentenceSet, Sentence

__all__ = ["SentenceNotifier"]


class SentenceNotifier:
    """Routes sentence transitions from the application to per-node SASes."""

    def __init__(
        self,
        sas_by_node: Sequence[ActiveSentenceSet],
        notify_cost: float = 5e-7,
        enabled: bool = True,
        bus=None,
    ):
        self.sas_by_node = list(sas_by_node)
        self.notify_cost = notify_cost
        # ``bus`` is duck-typed (anything with register_replica) rather than
        # a repro.dbsim.bus.ForwardingBus annotation: paradyn imports this
        # module, so naming dbsim here would close an import cycle
        self.bus = bus
        if bus is not None:
            for node_id, sas in enumerate(self.sas_by_node):
                bus.register_replica(node_id, sas)
        self._all_enabled = enabled
        self._site_overrides: dict[str, bool] = {}
        self.notifications = 0
        self.suppressed = 0  # calls at disabled sites (no cost, no SAS)
        # delivered-activation balance per node and sentence id (in that
        # node SAS's table): a deactivation is always delivered when its
        # activation was, even if the site was disabled in between --
        # toggling sites mid-sentence must never leave a SAS with an
        # unbalanced multiset
        self._pending: list[dict[int, int]] = [{} for _ in self.sas_by_node]

    # -- site management (driven by the tool) ------------------------------
    def enable_all(self) -> None:
        self._all_enabled = True
        self._site_overrides.clear()

    def disable_all(self) -> None:
        self._all_enabled = False
        self._site_overrides.clear()

    def enable_site(self, site: str) -> None:
        self._site_overrides[site] = True

    def disable_site(self, site: str) -> None:
        self._site_overrides[site] = False

    def site_enabled(self, site: str) -> bool:
        return self._site_overrides.get(site, self._all_enabled)

    # -- notifications (called from executing application code) -------------
    def activate(self, node_id: int, site: str, sentence: Sentence) -> float:
        """Notify activation; returns the run-time cost to charge."""
        return self.activate_sid(node_id, site, self.sas_by_node[node_id].sid(sentence))

    def deactivate(self, node_id: int, site: str, sentence: Sentence) -> float:
        """Notify deactivation; returns the run-time cost to charge.

        Delivered exactly when the matching activation was delivered, so
        dynamically toggling a site can never unbalance a SAS.
        """
        return self.deactivate_sid(node_id, site, self.sas_by_node[node_id].sid(sentence))

    def activate_sid(self, node_id: int, site: str, sid: int) -> float:
        """:meth:`activate` of the sentence ``sid`` of the node SAS
        (:meth:`~repro.core.sas.ActiveSentenceSet.sid`); the CMRTS
        dispatcher calls this."""
        if not self._site_overrides.get(site, self._all_enabled):
            self.suppressed += 1
            return 0.0
        self.notifications += 1
        balance = self._pending[node_id]
        balance[sid] = balance.get(sid, 0) + 1
        self.sas_by_node[node_id].activate_sid(sid)
        return self.notify_cost

    def deactivate_sid(self, node_id: int, site: str, sid: int) -> float:
        """:meth:`deactivate` of the sentence ``sid`` of the node SAS."""
        balance = self._pending[node_id]
        pending = balance.get(sid, 0)
        if pending > 0:
            if pending == 1:
                del balance[sid]
            else:
                balance[sid] = pending - 1
            self.notifications += 1
            self.sas_by_node[node_id].deactivate_sid(sid)
            return self.notify_cost
        self.suppressed += 1
        return 0.0

    def sas(self, node_id: int) -> ActiveSentenceSet:
        return self.sas_by_node[node_id]
