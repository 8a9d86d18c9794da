"""Shared-link bandwidth allocation for concurrent transfers.

Concurrent flows crossing the same physical link split its capacity.  Three
reference policies are provided, all computed in exact rational
arithmetic so simulation fingerprints stay platform-independent:

* :func:`max_min_rates` — progressive filling (the classic max-min fair
  allocation used by fluid network models such as SimGrid's): repeatedly
  raise every unfrozen flow's rate uniformly until some link saturates,
  freeze that link's flows at the fair-share level, and continue with the
  capacity that remains.  Saturated links are chosen in ``(fair-share
  level, link id)`` order — a deterministic tie-break, so the allocation
  never depends on dict iteration order (the PR 3 workers=1 == workers=N
  bit-identity invariant extends to graphs).
* :func:`fair_share_rates` — each flow gets the minimum over its route of
  ``capacity / crossing-flow-count``.  One pass, no global
  work-conservation; a useful lower-bound alternative
  (``contention="fairshare"``).
* :func:`selfish_rates` — strict priority: each priority class is max-min
  filled against the capacity the more urgent classes left behind.

:class:`LinkContention` is the DES-facing manager: it tracks active flows
as ``(volume, rate)`` fluid transfers, reallocates on every start/finish,
and reports which flows actually changed rate so the engine only
reschedules the timers it must — on a tree-degenerate graph no flow ever
shares a link, rates never change, and the event calendar stays
bit-identical to the tree engine's.  The manager holds its capacities
as :class:`~repro.sim.events.FastFraction` (a ``Fraction`` subclass
without the stdlib's ABC dispatch) and builds every solver result in
that type; rates, remaining volumes and the completion times derived
from them stay in it, since it is closed under its own arithmetic with
ints.

The manager is an **incremental, state-carrying kernel** (it used to
re-run the from-scratch solve on every event): a flow event costs what it
changes.  Persistent per-link flow sets and three tables sit in front of
the reference allocators, and all of it is bit-identical to them:

1. **The route table** maps each route to its deduped sorted links and
   its *lone-flow rate*, the least capacity on it: the rate a flow gets
   alone on its links under every allocator.  A route is deduplicated and
   validated once per capacity epoch, not on every ``start``.  A flow
   that starts on idle links (an *exclusive start*) and a settle whose
   dirty region is one flow both take their rate from it.
2. **The dirty region** of a settle is the set of flows whose rates the
   event can change, and it follows the allocator's coupling:

   * ``maxmin`` and ``selfish`` — the connected components of the
     flow/link sharing graph that touch the changed links.  Progressive
     filling decomposes over components (a bottleneck level in one never
     references capacities or counts of another), so flows outside keep
     their rates exactly.  From a flow the closure follows only links
     another flow also crosses, and a lone flow is recognised before it.
   * ``fairshare`` — only the flows crossing the changed links, since a
     flow's share reads nothing but its own links.  Their rates come
     from **the share table**, ``(link, crossing count) → share``, built
     with :func:`fair_share_rates`' own per-link share function.
3. **The memo** caches ``maxmin``/``selfish`` solves of regions of two
   or more flows under the *frozen flow-set signature*: the multiset of
   (priority class, deduped route) pairs.  Flows with identical routes
   are symmetric under every allocator, so steady-state runs that revisit
   the same flow configuration (the common case the warp engine exploits)
   skip the solve entirely.  A memo miss runs the mode's own allocator
   (:func:`max_min_rates` or :func:`selfish_rates`) on the region's
   deduped routes, so each policy has exactly one solver.

Link capacities are fixed within a *capacity epoch*; ``set_capacity``
opens a new one and flushes the route table, the share table and the
memo together, since all three derive from the old capacities.

``LinkContention(..., incremental=False)`` restores the from-scratch
reference behaviour (used by the benchmark speedup gate and the
equality property tests).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..errors import PlatformError
from ..sim.events import FastFraction

__all__ = ["max_min_rates", "fair_share_rates", "selfish_rates",
           "LinkContention"]

FlowId = Hashable

#: Memo entries kept before the cache is wholesale cleared (bounded
#: memory on adversarial churn; steady-state runs reuse a handful).
_MEMO_LIMIT = 4096

#: Shared zero rate for newly registered flows, starved levels and
#: exhausted remnants (every ``start`` needs one).
_ZERO = FastFraction(0)


def _exact(value) -> object:
    """Normalize an integral Fraction to int.

    Tree-degenerate runs must stay all-integer so their arithmetic — and
    therefore their fingerprints — matches the tree engine exactly.
    """
    cls = value.__class__
    if cls is FastFraction:
        return value._numerator if value._denominator == 1 else value
    if cls is not int and isinstance(value, Fraction) \
            and value.denominator == 1:
        return value.numerator
    return value


def _fast(value):
    """A Fraction capacity as a :class:`FastFraction`; ints and floats
    pass through unchanged."""
    if isinstance(value, Fraction) and value.__class__ is not FastFraction:
        return FastFraction(value)
    return value


def _rational(cap):
    """An int capacity as a :class:`FastFraction`, so shares of it stay
    exact (``3 / 2`` would be a float); other capacities pass through."""
    return FastFraction(cap) if type(cap) is int else cap


def max_min_rates(flows: Mapping[FlowId, Sequence[int]],
                  capacities: Mapping[int, Fraction],
                  ) -> Dict[FlowId, Fraction]:
    """Max-min fair rates via progressive filling.

    ``flows`` maps each flow id to the link ids its route crosses;
    ``capacities`` maps link id to bandwidth.  Each round computes every
    link's fair-share level ``(capacity - frozen usage) / unfrozen flow
    count``, saturates the bottleneck — the link minimizing ``(level,
    link id)`` — and freezes its flows at that level.  Repeats until all
    flows are frozen.  Link counts and remaining capacities are
    maintained incrementally as flows freeze, so a round costs only the
    links still carrying unfrozen flows; exact Fractions throughout.
    """
    rates: Dict[FlowId, Fraction] = {}
    if not flows:
        return rates
    # Flows on each link, in deterministic (insertion) order of `flows`.
    link_flows: Dict[int, List[FlowId]] = {}
    flow_links: Dict[FlowId, Tuple[int, ...]] = {}
    for fid, route in flows.items():
        if not route:
            raise PlatformError(f"flow {fid!r} has an empty route")
        links = tuple(sorted(set(route)))
        flow_links[fid] = links
        for link in links:
            link_flows.setdefault(link, []).append(fid)
    remaining: Dict[int, Fraction] = {}
    counts: Dict[int, int] = {}
    for link in sorted(link_flows):
        cap = capacities.get(link)
        if cap is None:
            raise PlatformError(f"flow crosses unknown link {link}")
        remaining[link] = _rational(cap)
        counts[link] = len(link_flows[link])
    unfrozen = len(flows)
    while unfrozen:
        bottleneck: Optional[int] = None
        level: Optional[Fraction] = None
        for link, count in counts.items():
            share = remaining[link] / count
            if (level is None or share < level
                    or (share == level and link < bottleneck)):
                level = share
                bottleneck = link
        if level < 0:
            level = _ZERO
        # Freeze every unfrozen flow crossing the bottleneck at `level`,
        # retiring its share from every link it crosses.
        for fid in link_flows[bottleneck]:
            if fid in rates:
                continue
            rates[fid] = level
            unfrozen -= 1
            for link in flow_links[fid]:
                remaining[link] -= level
                count = counts[link] - 1
                if count:
                    counts[link] = count
                else:
                    del counts[link]
    return rates


def _link_share(cap, count: int):
    """One link's fair share: its capacity split evenly over ``count``
    crossing flows."""
    return _rational(cap) / count


def fair_share_rates(flows: Mapping[FlowId, Sequence[int]],
                     capacities: Mapping[int, Fraction],
                     ) -> Dict[FlowId, Fraction]:
    """Per-link equal split: rate = min over the route of cap/n_flows."""
    counts: Dict[int, int] = {}
    for fid, route in flows.items():
        if not route:
            raise PlatformError(f"flow {fid!r} has an empty route")
        for link in set(route):
            counts[link] = counts.get(link, 0) + 1
    rates: Dict[FlowId, Fraction] = {}
    for fid, route in flows.items():
        share = None
        for link in set(route):
            cap = capacities.get(link)
            if cap is None:
                raise PlatformError(f"flow crosses unknown link {link}")
            s = _link_share(cap, counts[link])
            if share is None or s < share:
                share = s
        rates[fid] = share
    return rates


def selfish_rates(flows: Mapping[FlowId, Sequence[int]],
                  capacities: Mapping[int, Fraction],
                  priorities: Optional[Mapping[FlowId, object]] = None,
                  ) -> Dict[FlowId, Fraction]:
    """Strict-priority filling: higher-priority flows grab bandwidth first.

    Flows are grouped by priority tag (lower sorts first = more urgent,
    matching the protocol's bandwidth-centric ``(c, node id)`` keys) and
    each class is max-min filled against whatever capacity the classes
    before it left behind.  Untagged flows (priority ``None``) form the
    last class.  With a single class this degenerates to plain
    :func:`max_min_rates` — equal-priority apps therefore share fairly,
    which is the deterministic tie-break.
    """
    priorities = priorities or {}
    classes: Dict[object, Dict[FlowId, Sequence[int]]] = {}
    for fid, route in flows.items():
        classes.setdefault(priorities.get(fid), {})[fid] = route
    # None (untagged) last; tagged classes in ascending priority order.
    order = sorted((key for key in classes if key is not None)) \
        + ([None] if None in classes else [])
    remaining = dict(capacities)
    rates: Dict[FlowId, Fraction] = {}
    for key in order:
        class_rates = max_min_rates(classes[key], remaining)
        for fid, rate in class_rates.items():
            rates[fid] = rate
            for link in set(flows[fid]):
                left = remaining[link] - rate
                remaining[link] = left if left > 0 else _ZERO
    return rates


_ALLOCATORS = {"maxmin": max_min_rates, "fairshare": fair_share_rates,
               "selfish": selfish_rates}


class _Flow:
    __slots__ = ("route", "links", "lone", "volume", "rate", "since", "seq")

    def __init__(self, route: Tuple[int, ...], links: Tuple[int, ...], lone,
                 volume, rate, since, seq: int):
        self.route = route
        self.links = links      # deduped sorted route (from the route table)
        self.lone = lone        # rate alone on its links, this epoch
        self.volume = volume    # remaining volume in tasks
        self.rate = rate        # current allocated rate (tasks/step)
        self.since = since      # sim time of the last volume settlement
        self.seq = seq          # registration order (restores insertion
                                # order over a dirty region without
                                # scanning the whole flow table)


class LinkContention:
    """Fluid-flow manager for concurrent transfers over shared links.

    The engine registers a flow when a transfer starts and removes it when
    it finishes (or is preempted); each change triggers an incremental
    re-settle of the dirty region (see the module docstring for the
    kernel's tables and regions).  Remaining volumes are settled lazily —
    only flows whose rate actually changes get their volume updated
    (``volume -= rate × elapsed``) and are reported back so the engine
    reschedules exactly those timers.  Exact arithmetic keeps every
    settlement lossless.

    Solver statistics (``stats()``) feed telemetry's ``contention.*``
    counters: reallocation events, dirty-set sizes, memo hits, and how
    often the shortcut and the allocator resolved a settle.
    """

    __slots__ = ("capacities", "mode", "incremental", "_selfish",
                 "_fairshare", "_flows", "_priorities", "_link_flows",
                 "_routes", "_shares", "_memo", "_flow_seq",
                 "reallocations", "rate_changes", "settles_full",
                 "settles_incremental", "solves_trivial", "solves_fraction",
                 "memo_hits", "memo_evictions", "dirty_flows",
                 "dirty_links")

    def __init__(self, capacities: Mapping[int, Fraction],
                 mode: str = "maxmin", *, incremental: bool = True):
        if mode not in _ALLOCATORS:
            raise PlatformError(
                f"unknown contention mode {mode!r}; "
                f"choose from {tuple(_ALLOCATORS)}")
        self.mode = mode
        self.incremental = incremental
        self._selfish = mode == "selfish"
        self._fairshare = mode == "fairshare"
        self.capacities = {link: _fast(cap)
                           for link, cap in capacities.items()}
        self._flows: Dict[FlowId, _Flow] = {}
        self._priorities: Dict[FlowId, object] = {}
        #: link id → insertion-ordered set (dict keys) of crossing flows.
        self._link_flows: Dict[int, Dict[FlowId, None]] = {}
        # The three tables below hold answers for the current capacity
        # epoch; :meth:`set_capacity` clears them together.
        #: route → (deduped sorted links, lone-flow rate).
        self._routes: Dict[tuple, Tuple[Tuple[int, ...], object]] = {}
        #: (link, crossing-flow count) → that link's fair share.
        self._shares: Dict[Tuple[int, int], object] = {}
        #: frozen flow-set signature → {tag: rate}.
        self._memo: Dict[tuple, Dict[object, Fraction]] = {}
        self._flow_seq = 0
        self.reallocations = 0      # settle events (telemetry)
        self.rate_changes = 0       # flows whose rate changed mid-flight
        self.settles_full = 0       # dirty region spanned every flow
        self.settles_incremental = 0
        self.solves_trivial = 0     # lone flow: the route table's rate
        self.solves_fraction = 0    # allocator runs / share-table misses
        self.memo_hits = 0          # memo / share-table hits
        self.memo_evictions = 0
        self.dirty_flows = 0        # cumulative dirty-set sizes
        self.dirty_links = 0

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, fid: FlowId) -> bool:
        return fid in self._flows

    def rate_of(self, fid: FlowId):
        return self._flows[fid].rate

    def stats(self) -> Dict[str, int]:
        """Solver statistics snapshot (telemetry counters)."""
        return {
            "reallocations": self.reallocations,
            "rate_changes": self.rate_changes,
            "settles_full": self.settles_full,
            "settles_incremental": self.settles_incremental,
            "solves_trivial": self.solves_trivial,
            "solves_fraction": self.solves_fraction,
            "memo_hits": self.memo_hits,
            "memo_evictions": self.memo_evictions,
            "memo_size": len(self._memo),
            "dirty_flows": self.dirty_flows,
            "dirty_links": self.dirty_links,
        }

    def remaining_volume(self, fid: FlowId, now):
        """Remaining volume of a flow at sim time ``now`` (not settled)."""
        flow = self._flows[fid]
        if not flow.rate:  # starved/new flow: no progress to subtract
            return _exact(flow.volume)
        return _exact(flow.volume - flow.rate * (now - flow.since))

    def start(self, fid: FlowId, route: Sequence[int], volume,
              now, priority=None) -> List[Tuple[FlowId, object, object]]:
        """Register a flow; returns rate updates (see :meth:`_settle`).

        The new flow itself is always included in the updates with its
        initial rate and full volume.  ``priority`` tags the flow for the
        ``selfish`` allocator (lower sorts first); other modes ignore it.
        """
        flows = self._flows
        if fid in flows:
            raise PlatformError(f"flow {fid!r} already active")
        if route.__class__ is not tuple:
            route = tuple(route)
        entry = self._routes.get(route)
        if entry is None:
            if not route:
                raise PlatformError(f"flow {fid!r} has an empty route")
            entry = self._route(route)
        links, lone = entry
        seq = self._flow_seq + 1
        self._flow_seq = seq
        flow = flows[fid] = _Flow(route, links, lone, volume, _ZERO, now, seq)
        link_flows = self._link_flows
        shared = False
        for link in links:
            crossing = link_flows.get(link)
            if crossing is None:
                link_flows[link] = {fid: None}
            else:
                crossing[fid] = None
                shared = True
        if priority is not None:
            self._priorities[fid] = priority
        if self.incremental and not shared:
            # Exclusive links: the flow is alone in its component, so its
            # rate is the route's lone rate under every allocator and
            # nobody else moves.
            self.reallocations += 1
            self.settles_incremental += 1
            self.solves_trivial += 1
            self.dirty_flows += 1
            self.dirty_links += len(links)
            if lone:
                flow.rate = lone
            return [(fid, flow.rate, _exact(volume))]
        updates = self._settle(links, now)
        if flow.rate is _ZERO:
            # Starved from the start: no settle reported it, so report
            # its zero rate once here.
            updates.append((fid, _ZERO, _exact(volume)))
        return updates

    def finish(self, fid: FlowId, now) -> List[Tuple[FlowId, object, object]]:
        """Remove a completed/preempted flow; re-settle the survivors."""
        flow = self._flows.pop(fid, None)
        if flow is None:
            raise PlatformError(f"no active flow {fid!r}")
        self._priorities.pop(fid, None)
        if not self._unlink(fid, flow) and self.incremental:
            # The departed flow had its links to itself: the dirty region
            # is empty and nobody's rate can change.  Counter bookkeeping
            # matches what _settle would have recorded.
            self.reallocations += 1
            return []
        return self._settle(flow.links, now)

    def pause(self, fid: FlowId, now):
        """Remove a flow mid-flight; returns ``(remaining_volume,
        updates)`` so the engine can shelve the leftover volume."""
        remaining = self.remaining_volume(fid, now)
        updates = self.finish(fid, now)
        return remaining, updates

    def kill_crossing(self, links, now):
        """Drop every flow whose route crosses any of ``links`` (a failed
        link set), then re-settle the survivors once.

        Returns ``(killed, updates)``: the dropped flow ids in their
        deterministic insertion order (their in-flight volume is lost —
        the caller books the task loss), and the usual rate updates for
        the flows that remain.
        """
        link_flows = self._link_flows
        doomed = set()
        for link in links:
            doomed.update(link_flows.get(link, ()))
        if not doomed:
            return [], []
        killed = [fid for fid in self._flows if fid in doomed]
        seeds: set = set()
        for fid in killed:
            flow = self._flows.pop(fid)
            self._priorities.pop(fid, None)
            self._unlink(fid, flow)
            seeds.update(flow.links)
        return killed, self._settle(seeds, now)

    def set_capacity(self, link, cap,
                     now) -> List[Tuple[FlowId, object, object]]:
        """Change one link's capacity (degrade/restore) and re-settle the
        flows crossing it; returns the usual rate updates."""
        if link not in self.capacities:
            raise PlatformError(f"no link {link!r}")
        self.capacities[link] = _fast(cap)
        # Epoch boundary: lone rates, fair shares and memoized solutions
        # all derive from the old capacities, so the three tables are
        # dropped wholesale and rebuilt lazily.  Only the flows crossing
        # ``link`` can have a new lone rate.
        self._routes.clear()
        self._shares.clear()
        self._memo.clear()
        flows = self._flows
        routes = self._routes
        for fid in self._link_flows.get(link, ()):
            route = flows[fid].route
            flows[fid].lone = (routes.get(route) or self._route(route))[1]
        return self._settle((link,), now)

    # ----------------------------------------------------------- internals
    def _route(self, route: tuple) -> Tuple[Tuple[int, ...], object]:
        """Build and cache ``route``'s route-table entry: its sorted
        distinct links and its lone-flow rate, the least capacity on it
        (a flow alone on its links gets that under every allocator)."""
        links = route if len(route) == 1 else tuple(sorted(set(route)))
        capacities = self.capacities
        for link in links:
            if link not in capacities:
                raise PlatformError(f"flow crosses unknown link {link}")
        entry = (links, _exact(min(capacities[link] for link in links)))
        self._routes[route] = entry
        return entry

    def _unlink(self, fid: FlowId, flow: _Flow) -> bool:
        """Remove ``flow`` from its links' crossing sets; True when some
        other flow still crosses one of them."""
        link_flows = self._link_flows
        shared = False
        for link in flow.links:
            crossing = link_flows[link]
            del crossing[fid]
            if crossing:
                shared = True
            else:
                del link_flows[link]
        return shared

    def _region(self, seeds) -> List[FlowId]:
        """The ``maxmin``/``selfish`` dirty region of a settle seeded at
        ``seeds``, in registration order: the sharing components touching
        them.

        A lone flow (the only one on the seed links, with no other flow on
        any of its own links) is its own component and is found without
        the closure.
        """
        link_flows = self._link_flows
        lone = None
        for link in seeds:
            crossing = link_flows.get(link)
            if crossing is None:
                continue
            if len(crossing) > 1:
                break
            (fid,) = crossing
            if lone is None:
                lone = fid
            elif fid != lone:
                break
        else:
            if lone is None:
                return []
            links = self._flows[lone].links
            for link in links:
                if len(link_flows[link]) > 1:
                    break
            else:
                self.dirty_links += len(links)
                return [lone]
        region = self._closure(seeds)
        if len(region) == len(self._flows):
            return list(self._flows)  # the flow table is in seq order
        return sorted(region, key=region.__getitem__)

    def _closure(self, seeds) -> Dict[FlowId, int]:
        """Flows in the connected sharing components touching ``seeds``,
        mapped to their registration numbers.

        Links connect to the flows crossing them; flows connect to every
        link on their route.  The closure is a union of whole components,
        which is exactly the region whose allocation the triggering event
        can perturb (progressive filling never reads across components).
        From a flow it follows only links another flow also crosses.
        """
        link_flows = self._link_flows
        flows = self._flows
        stack = [link for link in seeds if link in link_flows]
        seen_links = set(stack)
        affected: Dict[FlowId, int] = {}
        while stack:
            for fid in link_flows[stack.pop()]:
                if fid not in affected:
                    flow = flows[fid]
                    affected[fid] = flow.seq
                    for link in flow.links:
                        # A link only this flow crosses leads nowhere.
                        if (link not in seen_links
                                and len(link_flows[link]) > 1):
                            seen_links.add(link)
                            stack.append(link)
        self.dirty_links += len(seen_links)
        return affected

    def _settle(self, seeds, now) -> List[Tuple[FlowId, object, object]]:
        """Recompute the dirty region; settle and report rate-changed
        flows.

        Returns ``[(flow id, new rate, remaining volume), ...]`` for every
        flow whose rate differs from before.  Untouched flows keep their
        timers — the bit-identity lever for tree-degenerate graphs — and
        flows outside the dirty region are never even compared.
        """
        self.reallocations += 1
        flows = self._flows
        if not flows:
            return []
        if not self.incremental:
            # Reference mode: from-scratch solve over everything, exactly
            # the pre-incremental kernel (benchmark twin / test oracle).
            self.settles_full += 1
            new_rates = self._allocate({fid: flow.route
                                        for fid, flow in flows.items()})
            ordered = list(flows)
            rates = [new_rates[fid] for fid in ordered]
        else:
            if self._fairshare:
                ordered = self._share_region(seeds)
            else:
                ordered = self._region(seeds)
            if not ordered:
                return []
            self.dirty_flows += len(ordered)
            if len(ordered) == len(flows):
                self.settles_full += 1
            else:
                self.settles_incremental += 1
            if self._fairshare:
                rates = self._shares_of(ordered)
            elif len(ordered) == 1:
                self.solves_trivial += 1
                rates = (flows[ordered[0]].lone,)
            else:
                rates = self._solve(ordered)
        updates: List[Tuple[FlowId, object, object]] = []
        for fid, new_rate in zip(ordered, rates):
            flow = flows[fid]
            # ``is`` first: the tables hand back the identical rate
            # objects every time, so an unchanged flow skips
            # Fraction.__eq__.
            if new_rate is flow.rate or new_rate == flow.rate:
                continue
            if flow.rate:  # settle progress made at the old rate
                flow.volume = _exact(flow.volume
                                     - flow.rate * (now - flow.since))
                self.rate_changes += 1
            flow.rate = new_rate
            flow.since = now
            updates.append((fid, new_rate, _exact(flow.volume)))
        return updates

    def _share_region(self, seeds):
        """The ``fairshare`` dirty region of a settle seeded at ``seeds``:
        only the flows crossing them, in registration order.  A flow's
        fair share reads nothing but its own links' capacities and
        crossing counts, and only the seed links' changed."""
        link_flows = self._link_flows
        region: Dict[FlowId, None] = {}
        links = 0
        for link in seeds:
            crossing = link_flows.get(link)
            if crossing is not None:
                links += 1
                region.update(crossing)
        self.dirty_links += links
        if links > 1:
            flows = self._flows
            return sorted(region, key=lambda fid: flows[fid].seq)
        # One link's crossing set is already in registration order.
        return list(region)

    def _shares_of(self, ordered: List[FlowId]) -> list:
        """Fair-share rates of ``ordered`` from the share table: each
        flow's least share over its links.  A settle that misses the
        table counts as a solve, one that hits it throughout as a memo
        hit."""
        flows = self._flows
        link_flows = self._link_flows
        shares = self._shares
        missed = False
        rates = []
        for fid in ordered:
            rate = None
            for link in flows[fid].links:
                count = len(link_flows[link])
                share = shares.get((link, count))
                if share is None:
                    share = shares[link, count] = _exact(_link_share(
                        self.capacities[link], count))
                    missed = True
                if rate is None or share < rate:
                    rate = share
            rates.append(rate)
        if missed:
            self.solves_fraction += 1
        else:
            self.memo_hits += 1
        return rates

    def _solve(self, ordered: List[FlowId]) -> List[Fraction]:
        """Exact rates for a region of two or more flows, in ``ordered``'s
        order (memo → allocator).

        Rates come back :func:`_exact`-normalized, and a given signature
        always hands back the *same* rate objects, so the settle loop's
        identity check short-circuits unchanged flows.
        """
        flows = self._flows
        # Frozen flow-set signature: flows are interchangeable within a
        # (priority class, deduped route) bucket under every allocator,
        # and link capacities are fixed within an epoch (set_capacity
        # clears the memo), so the multiset of buckets alone determines
        # the solution.
        if self._selfish:
            priorities = self._priorities
            tagged = [(priorities.get(fid), flows[fid].links)
                      for fid in ordered]
            groups: Dict[object, List[Tuple[int, ...]]] = {}
            for prio, links in tagged:
                groups.setdefault(prio, []).append(links)
            order = sorted(key for key in groups if key is not None)
            if None in groups:
                order.append(None)
            signature = tuple((prio, tuple(sorted(groups[prio])))
                              for prio in order)
        else:
            tagged = [flows[fid].links for fid in ordered]
            signature = tuple(sorted(tagged))
        cached = self._memo.get(signature)
        if cached is not None:
            self.memo_hits += 1
            return [cached[tag] for tag in tagged]

        rates = self._allocate({fid: flows[fid].links for fid in ordered})
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.clear()
            self.memo_evictions += 1
        self._memo[signature] = {tag: rates[fid]
                                 for fid, tag in zip(ordered, tagged)}
        return [rates[fid] for fid in ordered]

    def _allocate(self, routes) -> Dict[FlowId, Fraction]:
        """The mode's reference allocator on ``routes``, with the rates
        :func:`_exact`-normalized."""
        self.solves_fraction += 1
        if self._selfish:
            rates = selfish_rates(routes, self.capacities, self._priorities)
        else:
            rates = _ALLOCATORS[self.mode](routes, self.capacities)
        return {fid: _exact(rate) for fid, rate in rates.items()}
