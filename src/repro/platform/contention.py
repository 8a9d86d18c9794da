"""Shared-link bandwidth allocation for concurrent transfers.

Concurrent flows crossing the same physical link split its capacity.  Two
reference policies are provided, both computed in exact rational
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
re-run the from-scratch solve on every event).  Three layers, cheapest
first, all provably bit-identical to the reference allocators:

1. **Dirty-region settling** — persistent per-link flow sets let each
   event recompute only the connected component(s) of the flow/link
   sharing graph that the changed flow touches.  Progressive filling
   decomposes over components (a bottleneck level in one component never
   references capacities or counts of another), so flows outside the
   dirty region keep their cached rates exactly.  A lone flow on
   otherwise-idle links short-circuits to ``min(capacity)``.
2. **Memoization** — solve results are cached under the *frozen flow-set
   signature*: the multiset of (priority class, deduped route) pairs plus
   the region's link capacities.  Flows with identical routes are
   symmetric under every allocator, so steady-state runs that revisit the
   same flow configuration (the common case the warp engine exploits)
   skip the solve entirely.
3. **Integer-scaled arithmetic** — capacities are normalized to a common
   denominator once per epoch (re-derived when ``set_capacity`` changes a
   denominator), letting progressive filling run in machine ints with
   cross-multiplied bottleneck comparisons; rationals are reconstructed
   only at the settle boundary.  When degrade events push the common
   denominator past a fixed bound the kernel falls back to exact Fraction
   arithmetic — same results, just slower.

``LinkContention(..., incremental=False)`` restores the from-scratch
reference behaviour (used by the benchmark speedup gate and the
equality property tests).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..errors import PlatformError
from ..sim.events import FastFraction

__all__ = ["max_min_rates", "fair_share_rates", "selfish_rates",
           "LinkContention"]

FlowId = Hashable

#: Common-denominator bound for the integer fast path.  Progressive
#: filling multiplies the running denominator by each bottleneck's flow
#: count, so the starting scale must leave big-int headroom; past this
#: the kernel falls back to Fraction arithmetic (exactness either way).
_INT_SCALE_LIMIT = 1 << 63

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
            s = _rational(cap) / counts[link]
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


def _common_denominator(caps) -> Optional[int]:
    """lcm of the capacities' denominators, or ``None`` past the int
    bound (→ Fraction fallback)."""
    scale = 1
    for cap in caps:
        den = cap.denominator  # ints carry .denominator == 1
        if den != 1:
            scale = scale * den // gcd(scale, den)
            if scale > _INT_SCALE_LIMIT:
                return None
    return scale


def _scaled_caps(caps: Mapping[int, Fraction], scale: int) -> Dict[int, int]:
    """Capacities as exact machine ints at ``scale``× (``cap * scale``
    is integral by construction of the common denominator)."""
    return {link: int(cap * scale) for link, cap in caps.items()}


def _max_min_int(flows: Mapping[FlowId, Tuple[int, ...]],
                 int_caps: Mapping[int, int],
                 scale: int) -> Dict[FlowId, Fraction]:
    """Progressive filling in integer arithmetic (routes pre-deduped).

    Remaining capacities are ints over a running denominator ``level_den
    = scale``; saturating a bottleneck with ``n`` unfrozen flows
    multiplies every live remainder (and the denominator) by ``n`` so the
    fair-share level itself becomes an integer.  Bottleneck selection
    cross-multiplies instead of dividing.  Exactly mirrors
    :func:`max_min_rates` round for round; Fractions are built only for
    the final per-flow rates.
    """
    rates: Dict[FlowId, Fraction] = {}
    link_flows: Dict[int, List[FlowId]] = {}
    for fid, links in flows.items():
        for link in links:
            link_flows.setdefault(link, []).append(fid)
    remaining = {link: int_caps[link] for link in link_flows}
    counts = {link: len(fids) for link, fids in link_flows.items()}
    level_den = scale
    unfrozen = len(flows)
    while unfrozen:
        bottleneck = None
        best_num = best_count = 1
        for link, count in counts.items():
            num = remaining[link]
            if bottleneck is None:
                bottleneck, best_num, best_count = link, num, count
                continue
            lhs = num * best_count
            rhs = best_num * count
            if lhs < rhs or (lhs == rhs and link < bottleneck):
                bottleneck, best_num, best_count = link, num, count
        if best_num < 0:
            best_num = 0
        if best_count != 1:
            for link in counts:
                remaining[link] *= best_count
            level_den *= best_count
        level = best_num
        for fid in link_flows[bottleneck]:
            if fid in rates:
                continue
            rates[fid] = FastFraction(level, level_den)
            unfrozen -= 1
            for link in flows[fid]:
                remaining[link] -= level
                count = counts[link] - 1
                if count:
                    counts[link] = count
                else:
                    del counts[link]
    return rates


class _Flow:
    __slots__ = ("route", "links", "volume", "rate", "since", "seq")

    def __init__(self, route: Tuple[int, ...], links: Tuple[int, ...],
                 volume, rate, since, seq: int):
        self.route = route
        self.links = links      # deduped sorted route (cached once)
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
    kernel's three layers).  Remaining volumes are settled lazily — only
    flows whose rate actually changes get their volume updated
    (``volume -= rate × elapsed``) and are reported back so the engine
    reschedules exactly those timers.  Exact arithmetic keeps every
    settlement lossless.

    Solver statistics (``stats()``) feed the telemetry registry:
    reallocation events, dirty-set sizes, memo hits, and how often each
    arithmetic path ran.
    """

    __slots__ = ("capacities", "mode", "incremental", "_selfish", "_flows",
                 "_priorities", "_link_flows", "_memo", "_scales",
                 "_flow_seq", "reallocations",
                 "rate_changes", "settles_full", "settles_incremental",
                 "solves_trivial", "solves_int", "solves_fraction",
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
        self.capacities = {link: _fast(cap)
                           for link, cap in capacities.items()}
        self._flows: Dict[FlowId, _Flow] = {}
        self._priorities: Dict[FlowId, object] = {}
        #: link id → insertion-ordered set (dict keys) of crossing flows.
        self._link_flows: Dict[int, Dict[FlowId, None]] = {}
        #: frozen flow-set signature → {tag: rate} (valid for the current
        #: capacity epoch; cleared wholesale by :meth:`set_capacity`).
        self._memo: Dict[tuple, Dict[object, Fraction]] = {}
        #: region links tuple → (scale, int caps), cached per epoch.
        self._scales: Dict[tuple, tuple] = {}
        self._flow_seq = 0
        self.reallocations = 0      # settle events (telemetry)
        self.rate_changes = 0       # flows whose rate changed mid-flight
        self.settles_full = 0       # dirty region spanned every flow
        self.settles_incremental = 0
        self.solves_trivial = 0     # lone flow on idle links: min(cap)
        self.solves_int = 0         # integer-scaled progressive fillings
        self.solves_fraction = 0    # exact-Fraction fallbacks
        self.memo_hits = 0
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
            "solves_int": self.solves_int,
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
        if fid in self._flows:
            raise PlatformError(f"flow {fid!r} already active")
        if not route:
            raise PlatformError(f"flow {fid!r} has an empty route")
        route = tuple(route)
        links = route if len(route) == 1 else tuple(sorted(set(route)))
        for link in links:
            if link not in self.capacities:
                raise PlatformError(f"flow crosses unknown link {link}")
        seq = self._flow_seq + 1
        self._flow_seq = seq
        flow = _Flow(route, links, volume, _ZERO, now, seq)
        self._flows[fid] = flow
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
            # rate is min(cap) under every allocator and nobody else moves
            # — skip the closure/solve machinery entirely.
            self.reallocations += 1
            self.settles_incremental += 1
            self.solves_trivial += 1
            self.dirty_flows += 1
            self.dirty_links += len(links)
            capacities = self.capacities
            if len(links) == 1:
                rate = _exact(capacities[links[0]])
            else:
                rate = _exact(min(capacities[link] for link in links))
            if rate != flow.rate:
                flow.rate = rate
            return [(fid, flow.rate, _exact(flow.volume))]
        updates = self._settle(links, now)
        if all(u[0] != fid for u in updates):
            updates.append((fid, flow.rate, _exact(flow.volume)))
        return updates

    def finish(self, fid: FlowId, now) -> List[Tuple[FlowId, object, object]]:
        """Remove a completed/preempted flow; re-settle the survivors."""
        flow = self._flows.pop(fid, None)
        if flow is None:
            raise PlatformError(f"no active flow {fid!r}")
        self._priorities.pop(fid, None)
        self._unlink(fid, flow)
        links = flow.links
        if self.incremental:
            link_flows = self._link_flows
            for link in links:
                if link in link_flows:
                    break
            else:
                # The departed flow had its links to itself: the dirty
                # region is empty and nobody's rate can change.  Counter
                # bookkeeping matches what _settle would have recorded.
                self.reallocations += 1
                if self._flows:
                    self.dirty_links += len(links)
                return []
        return self._settle(links, now)

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
        # Epoch boundary: memoized solutions and integer scales are keyed
        # on flow signatures *within* one capacity configuration (the new
        # capacity may also carry a new denominator), so both caches are
        # dropped wholesale and rebuilt lazily by the next solves.
        self._memo.clear()
        self._scales.clear()
        return self._settle((link,), now)

    # ----------------------------------------------------------- internals
    def _unlink(self, fid: FlowId, flow: _Flow) -> None:
        link_flows = self._link_flows
        for link in flow.links:
            crossing = link_flows[link]
            del crossing[fid]
            if not crossing:
                del link_flows[link]

    def _closure(self, seeds) -> set:
        """Flows in the connected sharing components touching ``seeds``.

        Links connect to the flows crossing them; flows connect to every
        link on their route.  The closure is a union of whole components,
        which is exactly the region whose allocation the triggering event
        can perturb (progressive filling never reads across components).
        """
        link_flows = self._link_flows
        flows = self._flows
        seen_links = set()
        affected = set()
        stack = list(seeds)
        while stack:
            link = stack.pop()
            if link in seen_links:
                continue
            seen_links.add(link)
            for fid in link_flows.get(link, ()):
                if fid not in affected:
                    affected.add(fid)
                    for other in flows[fid].links:
                        if other not in seen_links:
                            stack.append(other)
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
            self.solves_fraction += 1
            routes = {fid: flow.route for fid, flow in flows.items()}
            if self._selfish:
                new_rates = selfish_rates(routes, self.capacities,
                                          self._priorities)
            else:
                new_rates = _ALLOCATORS[self.mode](routes, self.capacities)
            new_rates = {fid: _exact(rate)
                         for fid, rate in new_rates.items()}
            ordered = list(flows)
        else:
            affected = self._closure(seeds)
            if not affected:
                return []
            self.dirty_flows += len(affected)
            if len(affected) == len(flows):
                self.settles_full += 1
                ordered = list(flows)
            elif len(affected) == 1:
                self.settles_incremental += 1
                ordered = list(affected)
            else:
                self.settles_incremental += 1
                # Insertion order of the flow table, restricted to the
                # region: updates must fire in the same relative order as
                # a full reallocation would report them.
                ordered = sorted(affected,
                                 key=lambda f: flows[f].seq)
            new_rates = self._solve(ordered)
        updates: List[Tuple[FlowId, object, object]] = []
        for fid in ordered:
            flow = flows[fid]
            new_rate = new_rates[fid]
            # ``is`` first: memo hits hand back the identical rate objects
            # every time, so an unchanged flow skips Fraction.__eq__.
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

    def _solve(self, ordered: List[FlowId]) -> Dict[FlowId, Fraction]:
        """Exact rates for the region's flows (memo → trivial → solver).

        Rates come back :func:`_exact`-normalized, and a given signature
        always hands back the *same* rate objects, so the settle loop's
        identity check short-circuits unchanged flows.
        """
        flows = self._flows
        capacities = self.capacities
        if len(ordered) == 1:
            # A lone flow owns every link it crosses (anything sharing
            # one would be in its component): rate = min capacity under
            # every allocator.
            self.solves_trivial += 1
            fid = ordered[0]
            return {fid: _exact(min(capacities[link]
                                    for link in flows[fid].links))}

        selfish = self._selfish
        # Frozen flow-set signature: flows are interchangeable within a
        # (priority class, deduped route) bucket under every allocator,
        # and link capacities are fixed within an epoch (set_capacity
        # clears the memo), so the multiset of buckets alone determines
        # the solution.
        if selfish:
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
            return {fid: cached[tag] for fid, tag in zip(ordered, tagged)}

        region_links = sorted({link for fid in ordered
                               for link in flows[fid].links})
        routes = {fid: flows[fid].links for fid in ordered}
        if selfish:
            rates = self._solve_selfish(routes, region_links)
        elif self.mode == "fairshare":
            rates = self._solve_fairshare(routes, region_links)
        else:
            rates = self._solve_maxmin(routes, region_links)
        for fid in ordered:
            rates[fid] = _exact(rates[fid])

        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.clear()
            self.memo_evictions += 1
        self._memo[signature] = {tag: rates[fid]
                                 for fid, tag in zip(ordered, tagged)}
        return rates

    def _region_scale(self, region_links) -> tuple:
        """``(scale, int caps)`` for a region, cached per epoch.

        The scale is the lcm of the *region's* capacity denominators —
        derived per region rather than globally because one exotic
        denominator anywhere else in the fabric would otherwise push
        every solve onto the Fraction path.  ``(None, None)`` means the
        region itself is past the int bound (→ Fraction fallback).
        """
        key = tuple(region_links)
        cached = self._scales.get(key)
        if cached is None:
            caps = {link: self.capacities[link] for link in region_links}
            scale = _common_denominator(caps.values())
            cached = (scale,
                      None if scale is None else _scaled_caps(caps, scale))
            if len(self._scales) >= _MEMO_LIMIT:
                self._scales.clear()
            self._scales[key] = cached
        return cached

    def _solve_maxmin(self, routes, region_links) -> Dict[FlowId, Fraction]:
        scale, int_caps = self._region_scale(region_links)
        if scale is None:
            self.solves_fraction += 1
            return max_min_rates(routes,
                                 {link: self.capacities[link]
                                  for link in region_links})
        self.solves_int += 1
        return _max_min_int(routes, int_caps, scale)

    def _solve_fairshare(self, routes,
                         region_links) -> Dict[FlowId, Fraction]:
        scale, int_caps = self._region_scale(region_links)
        if scale is None:
            self.solves_fraction += 1
            return fair_share_rates(routes,
                                    {link: self.capacities[link]
                                     for link in region_links})
        self.solves_int += 1
        counts: Dict[int, int] = {}
        for links in routes.values():
            for link in links:
                counts[link] = counts.get(link, 0) + 1
        rates: Dict[FlowId, Fraction] = {}
        for fid, links in routes.items():
            best_num = best_count = None
            for link in links:
                num, count = int_caps[link], counts[link]
                if best_num is None or num * best_count < best_num * count:
                    best_num, best_count = num, count
            rates[fid] = FastFraction(best_num, best_count * scale)
        return rates

    def _solve_selfish(self, routes, region_links) -> Dict[FlowId, Fraction]:
        """Strict-priority filling, class by class, each class through the
        integer path when its remaining capacities allow it.

        The first class sees the epoch capacities; later classes see
        remnants whose denominators carry the earlier levels, so each
        class re-derives its own scale (classes are few — one per app).
        """
        priorities = self._priorities
        classes: Dict[object, Dict[FlowId, Tuple[int, ...]]] = {}
        for fid, links in routes.items():
            classes.setdefault(priorities.get(fid), {})[fid] = links
        order = sorted(key for key in classes if key is not None)
        if None in classes:
            order.append(None)
        remaining = {link: self.capacities[link] for link in region_links}
        rates: Dict[FlowId, Fraction] = {}
        for key in order:
            class_flows = classes[key]
            scale = _common_denominator(remaining.values())
            if scale is None:
                self.solves_fraction += 1
                class_rates = max_min_rates(class_flows, remaining)
            else:
                self.solves_int += 1
                class_rates = _max_min_int(class_flows,
                                           _scaled_caps(remaining, scale),
                                           scale)
            for fid, rate in class_rates.items():
                rates[fid] = rate
                for link in class_flows[fid]:
                    left = remaining[link] - rate
                    remaining[link] = left if left > 0 else _ZERO
        return rates
