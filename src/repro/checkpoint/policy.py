"""Checkpoint cadence and retention.

:class:`CheckpointPolicy` says *when* to capture (every N kernel events
and/or every M microseconds of simulated time) and how many snapshots
to retain; :class:`CheckpointStore` is the bounded on-disk retained
set.  Neither perturbs the simulation: the run driver
(:class:`repro.checkpoint.ResumableRun`) peeks the event queue between
steps instead of advancing the clock to a boundary, so a checkpointed
run and an uninterrupted run execute the exact same event sequence.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

from repro.checkpoint.snapshot import CheckpointError, Snapshot

#: A well-formed bundle name: zero-padded event count, so lexicographic
#: order is capture order.  Anything else in the store directory is an
#: orphan (a torn temp file, a hand-renamed bundle) and never part of
#: the retained set.
BUNDLE_NAME = re.compile(r"^checkpoint-(\d{12})\.json$")

#: Snapshots kept when nothing says otherwise: the default of
#: :attr:`CheckpointPolicy.retain` and of a :class:`CheckpointStore`,
#: and what a run without a policy keeps.
DEFAULT_RETAIN = 3


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to capture and how many snapshots to keep."""

    #: Capture after every this-many kernel events (``None`` = off).
    every_events: int | None = None
    #: Capture at every this-many-microsecond boundary of simulated
    #: time (``None`` = off).  Boundaries between two event timestamps
    #: capture once, at the state of the earlier event.
    every_us: float | None = None
    #: Retained snapshots; older ones are pruned (rollback can only
    #: reach this far back).
    retain: int = DEFAULT_RETAIN

    def __post_init__(self) -> None:
        if self.every_events is None and self.every_us is None:
            raise ValueError(
                "policy needs every_events and/or every_us"
            )
        if self.every_events is not None and self.every_events < 1:
            raise ValueError("every_events must be >= 1")
        if self.every_us is not None and self.every_us <= 0:
            raise ValueError("every_us must be positive")
        if self.retain < 1:
            raise ValueError("retain must be >= 1")


class CheckpointStore:
    """A directory holding the bounded retained set of bundles.

    Bundles are named ``checkpoint-<events>.json`` (:data:`BUNDLE_NAME`)
    so lexicographic order is capture order; :meth:`add` writes
    atomically (temp file + ``os.replace``) and prunes beyond
    ``retain``.  Opening a store also prunes: orphans left by a killed
    writer and any surplus from a previously larger ``retain`` are
    removed, so the directory always honours the current bound —
    exactly what a farm worker resuming a migrated job relies on.
    """

    def __init__(self, directory, retain: int = DEFAULT_RETAIN):
        if retain < 1:
            raise ValueError("retain must be >= 1")
        self.directory = Path(directory)
        self.retain = retain
        self.directory.mkdir(parents=True, exist_ok=True)
        self.prune()

    def paths(self) -> list[Path]:
        """Retained bundle paths, oldest first (well-formed names only)."""
        return sorted(
            path for path in self.directory.iterdir()
            if BUNDLE_NAME.match(path.name)
        )

    def orphans(self) -> list[Path]:
        """Files in the store that are not well-formed bundles.

        Torn ``.tmp`` partials from a writer killed mid-replace and
        malformed ``checkpoint-*`` names (which would otherwise sort
        unpredictably against the zero-padded retained set) — never
        anything that does not look checkpoint-related, so a store can
        share a directory with unrelated files without losing them.
        """
        return sorted(
            path for path in self.directory.iterdir()
            if not BUNDLE_NAME.match(path.name)
            and (path.name.startswith("checkpoint-")
                 or path.name.endswith(".tmp"))
        )

    def prune(self) -> list[Path]:
        """Delete orphans and beyond-``retain`` bundles; returns them."""
        doomed = self.orphans() + self.paths()[:-self.retain]
        for path in doomed:
            os.remove(path)
        return doomed

    def add(self, snapshot: Snapshot) -> Path:
        """Atomically persist ``snapshot``; prune beyond ``retain``."""
        path = self.directory / (
            f"checkpoint-{snapshot.events_processed:012d}.json"
        )
        tmp = path.with_name(path.name + ".tmp")
        snapshot.save(tmp)
        os.replace(tmp, path)
        self.prune()
        return path

    def latest(self) -> Snapshot:
        """Load the most recent bundle (validates schema + digest)."""
        paths = self.paths()
        if not paths:
            raise CheckpointError(f"no checkpoint bundles in {self.directory}")
        return Snapshot.load(paths[-1])

    def __len__(self) -> int:
        return len(self.paths())

    def __repr__(self) -> str:
        return f"<CheckpointStore {self.directory} ({len(self)} bundles)>"
