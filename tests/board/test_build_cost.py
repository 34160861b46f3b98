"""Build cost: the objects a machine build leaves to the cyclic collector."""

import gc

from repro import SwallowSystem


def test_build_adds_few_tracked_objects_per_core():
    """A 2-slice build adds at most 120 GC-tracked objects per core.

    Each core makes its chanends, timers and locks on first use, and
    each core, link and switch publishes its series through one
    collector, so a build holds only what every run needs.  Built up
    front (32 chanends, 10 timers and 4 locks per core, and a closure
    per metric series) the build added 390 tracked objects per core;
    made on first use it adds about 80.
    """
    gc.collect()
    before = len(gc.get_objects())
    system = SwallowSystem(slices_x=2)
    added = len(gc.get_objects()) - before
    assert len(system.cores) == 32
    assert added / len(system.cores) <= 120, f"{added} objects"


def test_build_holds_no_waiter_queue():
    """A direction group makes a lane's waiter queue when a route first
    waits on the lane, so a fresh build, where none has, holds none."""
    system = SwallowSystem()
    groups = [group for switch in system.topology.fabric.switches.values()
              for group in switch.groups.values()]
    assert groups
    assert all(group.waiters == {} for group in groups)
