"""Churn-equality property tests for the incremental contention kernel.

The incremental solver (persistent link ledgers, dirty-region
re-settling, integer-scaled arithmetic, memoized solves) must be
*observationally identical* to the from-scratch reference: same update
lists in the same order, same exact rates (as Fractions), same
remaining volumes — at every step of any operation sequence.  These
tests drive an incremental manager and an ``incremental=False`` twin
through identical randomized start/finish/pause/kill/degrade churn and
compare everything after every single operation, which is the property
the fingerprint bit-identity contract rests on.
"""

import random
from fractions import Fraction

import pytest

from repro.platform import LinkContention

F = Fraction

#: A small diamond fabric: two disjoint 2-hop paths (0-1 and 2-3) plus a
#: shared trunk link 4.  Small enough that churn constantly merges and
#: splits sharing components, which is the hard case for dirty-region
#: closure.
DIAMOND_CAPS = {0: F(3), 1: F(2), 2: F(5), 3: F(1), 4: F(4)}
DIAMOND_ROUTES = [(0,), (0, 1), (2, 3), (2,), (0, 4), (2, 4), (4,), (1, 4, 3)]

#: The diamond's capacities as plain ints (what a caller passes without
#: wrapping them in Fractions): the reference solver must split them
#: exactly, as the incremental kernel does, not into floats.
PLAIN_INT_CAPS = {link: int(cap) for link, cap in DIAMOND_CAPS.items()}

#: Coprime denominators (the leaf-spine regime): the common-denominator
#: LCM stays small per region but the caps are non-integral, so the
#: integer-scaled path must engage and reconstruct exact Fractions.
FRACTIONAL_CAPS = {0: F(3, 7), 1: F(2, 11), 2: F(5, 13), 3: F(1, 3),
                   4: F(4, 9)}

#: Capacities whose denominators are large coprime primes: the region
#: LCM blows past the machine-int scale limit, forcing the exact
#: Fraction fallback.  The two arithmetic paths must agree bit-for-bit.
HUGE_PRIME_CAPS = {0: F(3, 2**31 - 1), 1: F(2, 2305843009213693951),
                   2: F(5, 2**61 - 1), 3: F(1, 162259276829213363391578010288127),
                   4: F(4, 618970019642690137449562111)}


def _churn(mode, caps, seed, steps=160, degrade_every=0):
    """Drive twin managers through one churn sequence, comparing at every
    step; returns the incremental manager for stats assertions."""
    inc = LinkContention(caps, mode, incremental=True)
    ref = LinkContention(caps, mode, incremental=False)
    rng = random.Random(seed)
    links = sorted(caps)
    active = []
    fid = 0
    for now in range(1, steps + 1):
        op = rng.random()
        if degrade_every and now % degrade_every == 0:
            link = rng.choice(links)
            # Degrade to a fraction of nominal (new denominators arrive
            # mid-run, invalidating the memo/scale epoch), occasionally
            # restore.
            cap = caps[link] if rng.random() < 0.3 else (
                caps[link] * F(rng.randrange(1, 6), 7))
            u_inc = inc.set_capacity(link, cap, now)
            u_ref = ref.set_capacity(link, cap, now)
            _assert_updates_equal(u_inc, u_ref)
        elif active and op < 0.30:
            name = active.pop(rng.randrange(len(active)))
            _assert_updates_equal(inc.finish(name, now), ref.finish(name, now))
        elif active and op < 0.40:
            name = active.pop(rng.randrange(len(active)))
            rem_inc, u_inc = inc.pause(name, now)
            rem_ref, u_ref = ref.pause(name, now)
            assert rem_inc == rem_ref and type(rem_inc) is type(rem_ref)
            _assert_updates_equal(u_inc, u_ref)
        elif active and op < 0.45:
            kill = (rng.choice(links),)
            k_inc, u_inc = inc.kill_crossing(kill, now)
            k_ref, u_ref = ref.kill_crossing(kill, now)
            assert k_inc == k_ref
            for name in k_inc:
                active.remove(name)
            _assert_updates_equal(u_inc, u_ref)
        else:
            fid += 1
            name = f"f{fid}"
            route = rng.choice(DIAMOND_ROUTES)
            volume = rng.randrange(1, 50)
            priority = rng.randrange(3) if mode == "selfish" else None
            _assert_updates_equal(
                inc.start(name, route, volume, now, priority=priority),
                ref.start(name, route, volume, now, priority=priority))
            active.append(name)
        # Full-state probe after every op, not just the updates: a flow
        # whose rate silently drifted without an update entry would still
        # be caught here.
        assert len(inc) == len(ref)
        for name in active:
            assert inc.rate_of(name) == ref.rate_of(name)
            assert type(inc.rate_of(name)) is type(ref.rate_of(name))
            assert inc.remaining_volume(name, now) == \
                ref.remaining_volume(name, now)
    return inc


def _assert_updates_equal(got, expected):
    assert len(got) == len(expected)
    for (fid_g, rate_g, rem_g), (fid_e, rate_e, rem_e) in zip(got, expected):
        assert fid_g == fid_e
        assert rate_g == rate_e and type(rate_g) is type(rate_e)
        assert rem_g == rem_e and type(rem_g) is type(rem_e)


@pytest.mark.parametrize("mode", ["maxmin", "fairshare", "selfish"])
@pytest.mark.parametrize("seed", range(8))
def test_churn_integer_caps(mode, seed):
    """Integer capacities: the pure machine-int regime."""
    _churn(mode, DIAMOND_CAPS, seed)


@pytest.mark.parametrize("mode", ["maxmin", "fairshare", "selfish"])
@pytest.mark.parametrize("seed", range(8))
def test_churn_plain_int_caps(mode, seed):
    """Plain int capacities: both solvers give the same exact rates."""
    _churn(mode, PLAIN_INT_CAPS, seed)


@pytest.mark.parametrize("mode", ["maxmin", "fairshare", "selfish"])
@pytest.mark.parametrize("seed", range(8))
def test_churn_fractional_caps(mode, seed):
    """Coprime fractional capacities: the integer-scaled path must engage
    and still match the reference exactly."""
    manager = _churn(mode, FRACTIONAL_CAPS, seed)
    if mode != "selfish":
        # The non-selfish solvers route through the shared region scale;
        # with these caps the scaled path must actually have run.
        assert manager.solves_int > 0


@pytest.mark.parametrize("mode", ["maxmin", "fairshare"])
@pytest.mark.parametrize("seed", range(4))
def test_churn_huge_prime_caps_forces_fraction_fallback(mode, seed):
    """Overflowing region LCMs: the Fraction fallback path, same answers."""
    manager = _churn(mode, HUGE_PRIME_CAPS, seed)
    assert manager.solves_fraction > 0


@pytest.mark.parametrize("mode", ["maxmin", "fairshare", "selfish"])
@pytest.mark.parametrize("seed", range(8))
def test_churn_with_degrades(mode, seed):
    """DegradeEvent-style capacity churn: epoch boundaries mid-sequence
    exercise the int -> Fraction transition and the memo/scale flush."""
    _churn(mode, DIAMOND_CAPS, seed, degrade_every=13)


def test_memo_hits_and_solver_paths_account_for_every_settle():
    """The stats ledger is internally consistent over a long churn."""
    manager = _churn("maxmin", DIAMOND_CAPS, seed=99, steps=400)
    stats = manager.stats()
    # Empty-region settles (last flow on its links departing) count as
    # reallocations but as neither settle kind, so >= rather than ==.
    assert stats["reallocations"] >= \
        stats["settles_full"] + stats["settles_incremental"]
    # Every counted settle resolves through exactly one solver path
    # (trivial / integer-scaled / Fraction / memo) in maxmin mode.
    solves = (stats["solves_trivial"] + stats["solves_int"]
              + stats["solves_fraction"] + stats["memo_hits"])
    assert solves == stats["settles_full"] + stats["settles_incremental"]
    assert stats["memo_hits"] > 0  # steady churn revisits flow sets


def test_memo_flushes_on_capacity_epoch():
    """A memoized solution must not survive a capacity change."""
    caps = {0: F(2)}
    manager = LinkContention(caps, "maxmin", incremental=True)
    manager.start("a", (0,), 10, 0)
    manager.start("b", (0,), 10, 0)
    assert manager.rate_of("a") == F(1)
    manager.set_capacity(0, F(1), 1)
    assert manager.rate_of("a") == F(1, 2)
    # Rebuild the exact same flow signature: the old epoch's memo entry
    # (rate 1) must be gone.
    manager.finish("b", 2)
    manager.start("c", (0,), 10, 2)
    assert manager.rate_of("a") == F(1, 2)
    assert manager.rate_of("c") == F(1, 2)
