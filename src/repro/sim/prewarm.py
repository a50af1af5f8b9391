"""Prewarm images: one walk and one memo, installed by both cores.

Before the measured window, a workload's prewarm lines (the resident
private data of a long-running application) are filled in E state,
hottest last, and the Supplier Predictors are trained on the fills,
including the Exact predictor's conflict downgrades (paper
Section 4.3.3).  This module performs that walk once, over plain
per-set dicts, and records its outcome as a :class:`PrewarmImage`.
The cores only install images:
:meth:`repro.sim.warmup.WarmupController.apply_prewarm` hands one's
per-set tuples to the caches, which build lines on first touch, and
:class:`repro.sim.soa.SoaRingMultiprocessor` adopts them as lazily
materialized sets.  ``test_prewarm_fast_path_matches_generic_fill``
and ``tests/property/test_prewarm_properties.py`` hold both installs
to filling every line through the generic ``Cache.fill`` path.

Images are memoized in one bounded, process-level store keyed on the
prewarm lines' *content* plus the cache geometry (``num_sets``,
``associativity``, ``cores_per_cmp``).  Equal lines share an image
whichever source, descriptor, core or predictor asks: a saved trace
replayed from file reuses the in-memory trace's image, and the
think-scale variants of one profile share theirs.  The walk takes no
predictor.  It records each core's fills, evictions and refills, and
the supplier conflicts between cores, so a stored image keeps the
predictor-free training stream plus trained snapshots per
:class:`~repro.config.PredictorConfig`.  An Exact predictor's
downgrades feed back into cache contents, so an Exact image is
*derived* from the stored one for each construction
(:meth:`PrewarmImage.exact`) and never stored.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import Counter, OrderedDict
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coherence.protocol import CoherenceError
from repro.config import MachineConfig, PredictorConfig
from repro.core.predictors import ExactPredictor, SupplierPredictor
from repro.workloads.source import WorkloadSource

__all__ = ["E", "SL", "PrewarmImage", "prewarm_image"]

#: Line-state codes in an image, in the soa core's integer coding.
#: Prewarm fills every line in E; only an Exact downgrade leaves one
#: in SL.  Prewarmed lines are clean and at version 0, so a prewarm
#: downgrade never writes back.
SL = 1
E = 3

#: One set's content: addresses in LRU order, and their state codes
#: (``None`` when every line is E).  Tuples share the address ints
#: with the index dicts, so an installed line costs no new int.
SetImage = Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]]

#: A core's refill or supplier conflict: ``(position, address,
#: earlier)``.  ``position`` is the index of the core's next op when it
#: happened.  ``earlier`` is ``None`` for a refill of a resident line,
#: and for a conflict it is the ``(cmp, core)`` that still held the
#: line when this core filled it.
Mark = Tuple[int, int, Optional[Tuple[int, int]]]

#: ``(content key, num_sets, associativity, cores_per_cmp)``.
ImageKey = Tuple[str, int, int, int]


class PrewarmImage:
    """Outcome of one prewarm walk.

    * ``sets``: per core, set index -> :data:`SetImage`, for the
      non-empty sets only;
    * ``fills`` / ``evictions``: per-core counts of the walk's fills
      and evictions;
    * ``supplier_of`` / ``holder_count``: the machine-wide supplier
      and holder indexes;
    * ``ops``: per-core predictor training stream (``address`` is a
      fill, ``insert(address)``; ``~address`` is an eviction,
      ``remove(address)``);
    * ``marks``: per core, its refills and supplier conflicts
      (:data:`Mark`) in walk order;
    * ``snapshots``: trained per-CMP predictor state per
      :class:`PredictorConfig`;
    * ``downgrades``: per CMP, the addresses of Exact's conflict
      downgrades in walk order (empty but in an Exact image).  The
      walk visits cores in order, and a CMP's predictor only
      downgrades its own cores' lines, so CMP 0's list, then CMP 1's,
      and so on is the walk's order.  Each charges one downgrade
      without a writeback.
    """

    __slots__ = (
        "cores_per_cmp",
        "sets",
        "fills",
        "evictions",
        "supplier_of",
        "holder_count",
        "ops",
        "marks",
        "snapshots",
        "downgrades",
    )

    def __init__(
        self,
        cores_per_cmp: int,
        sets: List[Dict[int, SetImage]],
        fills: List[int],
        evictions: List[int],
        supplier_of: Dict[int, Tuple[int, int]],
        holder_count: Dict[int, int],
        ops: List[List[int]],
        marks: List[List[Mark]],
        downgrades: List[List[int]],
    ) -> None:
        self.cores_per_cmp = cores_per_cmp
        self.sets = sets
        self.fills = fills
        self.evictions = evictions
        self.supplier_of = supplier_of
        self.holder_count = holder_count
        self.ops = ops
        self.marks = marks
        self.snapshots: Dict[PredictorConfig, List[object]] = {}
        self.downgrades = downgrades

    def train(
        self,
        predictors: Sequence[SupplierPredictor],
        config: PredictorConfig,
    ) -> None:
        """Bring fresh per-CMP ``predictors`` to their post-prewarm
        state.

        Restores ``config``'s snapshot when the image has one.
        Otherwise hands each predictor its CMP's training stream
        (:meth:`SupplierPredictor.prewarm_train`, which reproduces the
        update counters too) and snapshots the result for the next
        machine.
        """
        if config.kind in ("none", "perfect"):
            return
        snapshots = self.snapshots.get(config)
        if snapshots is not None:
            for predictor, snapshot in zip(predictors, snapshots):
                predictor.prewarm_restore(snapshot)
            return
        for cmp_id, predictor in enumerate(predictors):
            predictor.prewarm_train(self._cmp_ops(cmp_id))
        recorded: List[object] = []
        for predictor in predictors:
            snapshot = predictor.prewarm_snapshot()
            if snapshot is None:
                return
            recorded.append(snapshot)
        self.snapshots[config] = recorded

    def _cmp_ops(self, cmp_id: int) -> List[int]:
        """The training stream of one CMP's cores, in walk order."""
        cores = self.ops[
            cmp_id * self.cores_per_cmp : (cmp_id + 1) * self.cores_per_cmp
        ]
        return cores[0] if len(cores) == 1 else list(chain(*cores))

    def check_conflicts(self) -> None:
        """Raise the walk's first supplier conflict, as filling the
        lines through ``Cache.fill`` does with any predictor but
        Exact."""
        for core, marks in enumerate(self.marks):
            for _, address, earlier in marks:
                if earlier is not None:
                    raise _conflict(address, self._home(core), earlier)

    def _home(self, core: int) -> Tuple[int, int]:
        return divmod(core, self.cores_per_cmp)

    def exact(self, config: PredictorConfig) -> "PrewarmImage":
        """The image of the same walk with one Exact predictor per CMP
        (``config``) fed back into the caches.

        Replays each CMP's stream through its Exact table
        (:meth:`ExactPredictor.prewarm_train`).  A table victim is
        downgraded to SL in walk order; a downgraded line's later
        eviction books no remove, and its refill regains E and inserts
        it again.  While a core replays, a line it holds is in E
        exactly when its CMP's table tracks it, so the table answers
        every state question: a refill regains only an untracked line,
        and a conflict raises only if the earlier holder's CMP still
        tracks the line (a downgrade may have left that copy in SL).

        The result shares the walk's residency, counters and holder
        index.  Its sets mark the downgraded lines still resident as
        SL, and its supplier index drops them.
        """
        cores_per_cmp = self.cores_per_cmp
        num_cmps = len(self.ops) // cores_per_cmp
        predictors = [ExactPredictor(config) for _ in range(num_cmps)]
        downgrades: List[List[int]] = [[] for _ in range(num_cmps)]
        for core, core_ops in enumerate(self.ops):
            cmp_id = core // cores_per_cmp
            predictor = predictors[cmp_id]
            log = downgrades[cmp_id]
            start = 0
            for position, address, earlier in self.marks[core]:
                predictor.prewarm_train(core_ops[start:position], log)
                start = position
                if earlier is None:
                    if address not in predictor:
                        predictor.prewarm_train((address,), log)
                elif address in predictors[earlier[0]]:
                    raise _conflict(address, self._home(core), earlier)
            predictor.prewarm_train(
                core_ops[start:] if start else core_ops, log
            )
        sets = list(self.sets)
        supplier_of = self.supplier_of
        for cmp_id, predictor in enumerate(predictors):
            downgraded = set(downgrades[cmp_id])
            if not downgraded:
                continue
            # Lines a refill brought back to E.  Only the CMP's last
            # core holding such a line can hold it in E: a later core
            # fills a line only once the earlier copies are SL.
            regained = downgraded & predictor.tracked()
            base = cmp_id * cores_per_cmp
            for core in range(base + cores_per_cmp - 1, base - 1, -1):
                home = (cmp_id, core - base)
                core_sets: Optional[Dict[int, SetImage]] = None
                for index, (addresses, _) in self.sets[core].items():
                    if downgraded.isdisjoint(addresses):
                        continue
                    codes = []
                    for address in addresses:
                        if address not in downgraded:
                            codes.append(E)
                        elif address in regained:
                            regained.discard(address)
                            codes.append(E)
                        else:
                            codes.append(SL)
                            if supplier_of.get(address) == home:
                                if supplier_of is self.supplier_of:
                                    supplier_of = dict(supplier_of)
                                del supplier_of[address]
                    if core_sets is None:
                        core_sets = sets[core] = dict(self.sets[core])
                    core_sets[index] = (addresses, tuple(codes))
        image = PrewarmImage(
            cores_per_cmp,
            sets,
            self.fills,
            self.evictions,
            supplier_of,
            self.holder_count,
            self.ops,
            self.marks,
            downgrades,
        )
        image.snapshots[config] = [
            predictor.prewarm_snapshot() for predictor in predictors
        ]
        return image


#: The image store, least recently used first.  Four entries hold a
#: figure matrix's three workloads, or a saturation study's two
#: machine sizes.
_IMAGES: "OrderedDict[ImageKey, PrewarmImage]" = OrderedDict()
_IMAGE_LIMIT = 4

#: Content key per source object: hashing specjbb's 160k prewarm
#: lines takes ~7 ms (2.1 GHz Xeon), so a source is hashed once.
_CONTENT_KEYS: "weakref.WeakKeyDictionary[WorkloadSource, str]" = (
    weakref.WeakKeyDictionary()
)


def _hash_lines(lines: Sequence[Sequence[int]]) -> str:
    digest = hashlib.sha256()
    for core_lines in lines:
        digest.update(len(core_lines).to_bytes(8, "little"))
        digest.update(
            np.fromiter(
                core_lines, dtype=np.int64, count=len(core_lines)
            ).tobytes()
        )
    return digest.hexdigest()


def prewarm_image(
    source: WorkloadSource, config: MachineConfig
) -> Optional[PrewarmImage]:
    """The prewarm image of ``source`` on ``config``'s machine, or
    ``None`` when the source has no prewarm lines.

    Raises the walk's supplier conflict as ``Cache.fill`` would: the
    first one, or with an Exact predictor the first whose earlier copy
    no downgrade has left in SL.
    """
    lines = source.prewarm()
    if not lines:
        return None
    num_sets = config.cache.num_sets
    associativity = config.cache.associativity
    cores_per_cmp = config.cores_per_cmp
    content = _CONTENT_KEYS.get(source)
    if content is None:
        content = _CONTENT_KEYS[source] = _hash_lines(lines)
    key = (content, num_sets, associativity, cores_per_cmp)
    image = _IMAGES.get(key)
    if image is not None:
        _IMAGES.move_to_end(key)
    else:
        image = _IMAGES[key] = _walk(
            lines, num_sets, associativity, cores_per_cmp
        )
        while len(_IMAGES) > _IMAGE_LIMIT:
            _IMAGES.popitem(last=False)
    if config.predictor.kind == "exact":
        return image.exact(config.predictor)
    image.check_conflicts()
    return image


def _walk(
    lines: Sequence[Sequence[int]],
    num_sets: int,
    associativity: int,
    cores_per_cmp: int,
) -> PrewarmImage:
    """Fill every core's prewarm lines in reverse (the hottest, listed
    first, end up most recently used), with the callback effects of
    ``Cache.fill`` inlined and every line in E.

    Records the training stream instead of training a predictor, and a
    core's fill of a line another core still supplies as a conflict
    instead of raising it; the line's supplier becomes the new core.
    Which lines are resident, and in what LRU order, does not depend
    on the predictor: Exact's downgrades change states only.
    """
    supplier_of: Dict[int, Tuple[int, int]] = {}
    images: List[Dict[int, SetImage]] = []
    fills: List[int] = []
    evictions: List[int] = []
    ops: List[List[int]] = []
    marks: List[List[Mark]] = []
    for core, core_lines in enumerate(lines):
        home = divmod(core, cores_per_cmp)
        sets: List[Dict[int, None]] = [{} for _ in range(num_sets)]
        core_ops: List[int] = []
        core_marks: List[Mark] = []
        record = core_ops.append
        for address in reversed(core_lines):
            cache_set = sets[address % num_sets]
            if address in cache_set:
                # Refill in place: the line becomes most recently used.
                del cache_set[address]
                cache_set[address] = None
                core_marks.append((len(core_ops), address, None))
                continue
            if len(cache_set) >= associativity:
                victim = next(iter(cache_set))
                del cache_set[victim]
                record(~victim)
                # Only a later core's fill moves a line's supplier
                # entry, so this core's victim still owns its entry.
                del supplier_of[victim]
            cache_set[address] = None
            earlier = supplier_of.setdefault(address, home)
            if earlier is not home:
                core_marks.append((len(core_ops), address, earlier))
                supplier_of[address] = home
            record(address)
        core_fills = len(core_lines) - sum(
            1 for mark in core_marks if mark[2] is None
        )
        images.append(
            {
                index: (tuple(cache_set), None)
                for index, cache_set in enumerate(sets)
                if cache_set
            }
        )
        fills.append(core_fills)
        evictions.append(len(core_ops) - core_fills)
        ops.append(core_ops)
        marks.append(core_marks)
    # The holder index counts resident copies, so it is read off the
    # final sets rather than kept up during the walk.
    holder_count = Counter(
        chain.from_iterable(
            addresses
            for core_images in images
            for addresses, _ in core_images.values()
        )
    )
    return PrewarmImage(
        cores_per_cmp,
        images,
        fills,
        evictions,
        supplier_of,
        holder_count,
        ops,
        marks,
        [[] for _ in range(len(lines) // cores_per_cmp)],
    )


def _conflict(
    address: int, home: Tuple[int, int], earlier: Tuple[int, int]
) -> CoherenceError:
    return CoherenceError(
        "line %#x gained supplier at %s while %s still holds it"
        % (address, home, earlier)
    )
