"""Tests for the greedy-then-oldest warp scheduler."""

from repro.sim.cta import CTASim
from repro.sim.scheduler import GTOScheduler
from repro.sim.warp import WarpSim


def make_warps(n, cta_id=0):
    warps = [WarpSim(i, cta_id * 10 + i, cta_id, [0, 1, 2, 3])
             for i in range(n)]
    cta = CTASim(cta_id, warps)
    for warp in warps:
        warp.cta = cta
    return warps


def always_issue(warp, now):
    warp.pos += 1
    return True


def never_issue(warp, now):
    warp.blocked_until = now + 100
    return False


class TestGreedy:
    def test_sticks_with_current_warp(self):
        sched = GTOScheduler(0)
        warps = make_warps(3)
        for warp in warps:
            sched.add_warp(warp)
        sched.issue(0, always_issue)
        current = sched._current
        sched.issue(1, always_issue)
        assert sched._current is current

    def test_oldest_selected_first(self):
        sched = GTOScheduler(0)
        warps = make_warps(3)
        for warp in warps:
            sched.add_warp(warp)
        assert sched.issue(0, always_issue)
        assert sched._current is warps[0]

    def test_falls_back_to_oldest_when_current_blocks(self):
        sched = GTOScheduler(0)
        warps = make_warps(3)
        for warp in warps:
            sched.add_warp(warp)
        sched.issue(0, always_issue)          # current = warps[0]
        warps[0].blocked_until = 1000
        assert sched.issue(1, always_issue)
        assert sched._current is warps[1]


class TestBlockedHandling:
    def test_all_blocked_yields_no_issue(self):
        sched = GTOScheduler(0)
        for warp in make_warps(2):
            warp.blocked_until = 50
            sched.add_warp(warp)
        assert not sched.issue(0, always_issue)
        assert sched.issue(50, always_issue)

    def test_failed_issue_tries_next_warp(self):
        sched = GTOScheduler(0)
        warps = make_warps(2)
        for warp in warps:
            sched.add_warp(warp)

        def first_fails(warp, now):
            if warp is warps[0]:
                warp.blocked_until = now + 10
                return False
            warp.pos += 1
            return True

        assert sched.issue(0, first_fails)
        assert sched._current is warps[1]


class TestMembership:
    def test_remove_warp_clears_current(self):
        sched = GTOScheduler(0)
        warps = make_warps(2)
        for warp in warps:
            sched.add_warp(warp)
        sched.issue(0, always_issue)
        sched.remove_warp(warps[0])
        assert sched._current is None
        assert sched.occupancy == 1

    def test_remove_cta_drops_all_its_warps(self):
        sched = GTOScheduler(0)
        cta0 = make_warps(2, cta_id=0)
        cta1 = make_warps(2, cta_id=1)
        for warp in cta0 + cta1:
            sched.add_warp(warp)
        sched.remove_cta(0)
        assert sched.occupancy == 2
        assert all(w.cta.cta_id == 1 for w in sched.warps)

    def test_finished_current_is_skipped(self):
        sched = GTOScheduler(0)
        warps = make_warps(2)
        for warp in warps:
            sched.add_warp(warp)
        sched.issue(0, always_issue)
        warps[0].finish()
        assert sched.issue(1, always_issue)
        assert sched._current is warps[1]
