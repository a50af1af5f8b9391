"""Prewarm images: one walk and one memo, installed by both cores.

Before the measured window, a workload's prewarm lines (the resident
private data of a long-running application) are filled in E state,
hottest last, and the Supplier Predictors are trained on the fills,
including the Exact predictor's conflict downgrades (paper
Section 4.3.3).  This module performs that walk once, over plain
per-set dicts ``{address: state}``, and records its outcome as a
:class:`PrewarmImage`.  The cores only install images:
:meth:`repro.sim.warmup.WarmupController.apply_prewarm` builds cache
lines from one, and :class:`repro.sim.soa.SoaRingMultiprocessor`
adopts its per-set tuples as lazily materialized sets.
``test_prewarm_fast_path_matches_generic_fill`` holds both installs
to filling every line through the generic ``Cache.fill`` path.

Images are memoized in one bounded, process-level store keyed on the
prewarm lines' *content* plus the cache geometry (``num_sets``,
``associativity``, ``cores_per_cmp``).  Equal lines share an image
whichever source, descriptor or core asks: a saved trace replayed
from file reuses the in-memory trace's image, and the think-scale
variants of one profile share theirs.  A stored image must not depend
on the predictor, so it keeps the predictor-free training stream plus
trained snapshots per :class:`~repro.config.PredictorConfig`.  An
Exact predictor's downgrades feed back into cache contents, so an
Exact image is walked with that predictor for each construction and
never stored.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    * ``ops``: per-core predictor training stream (``address`` is
      ``insert(address)``, ``~address`` is ``remove(address)``), or
      ``None`` for an Exact image;
    * ``snapshots``: trained per-CMP predictor state per
      :class:`PredictorConfig`;
    * ``downgrades``: per CMP, the addresses of Exact's conflict
      downgrades in walk order.  The walk visits cores in order, and a
      CMP's predictor only downgrades its own cores' lines, so CMP 0's
      list, then CMP 1's, and so on is the walk's order.  Each charges
      one downgrade without a writeback.
    """

    __slots__ = (
        "cores_per_cmp",
        "sets",
        "fills",
        "evictions",
        "supplier_of",
        "holder_count",
        "ops",
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
        ops: Optional[List[List[int]]],
        downgrades: List[List[int]],
    ) -> None:
        self.cores_per_cmp = cores_per_cmp
        self.sets = sets
        self.fills = fills
        self.evictions = evictions
        self.supplier_of = supplier_of
        self.holder_count = holder_count
        self.ops = ops
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
        Otherwise replays the training stream through the predictors'
        own ``insert``/``remove`` (which reproduces their update
        counters too) and snapshots the result for the next machine.
        """
        if config.kind in ("none", "perfect"):
            return
        snapshots = self.snapshots.get(config)
        if snapshots is not None:
            for predictor, snapshot in zip(predictors, snapshots):
                predictor.prewarm_restore(snapshot)
            return
        assert self.ops is not None
        for core, core_ops in enumerate(self.ops):
            predictor = predictors[core // self.cores_per_cmp]
            insert = predictor.insert
            remove = predictor.remove
            for op in core_ops:
                if op >= 0:
                    insert(op)
                else:
                    remove(~op)
        recorded: List[object] = []
        for predictor in predictors:
            snapshot = predictor.prewarm_snapshot()
            if snapshot is None:
                return
            recorded.append(snapshot)
        self.snapshots[config] = recorded


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
    ``None`` when the source has no prewarm lines."""
    lines = source.prewarm()
    if not lines:
        return None
    num_sets = config.cache.num_sets
    associativity = config.cache.associativity
    cores_per_cmp = config.cores_per_cmp
    if config.predictor.kind == "exact":
        return _walk(
            lines, num_sets, associativity, cores_per_cmp, config.predictor
        )
    content = _CONTENT_KEYS.get(source)
    if content is None:
        content = _CONTENT_KEYS[source] = _hash_lines(lines)
    key = (content, num_sets, associativity, cores_per_cmp)
    image = _IMAGES.get(key)
    if image is not None:
        _IMAGES.move_to_end(key)
        return image
    image = _IMAGES[key] = _walk(
        lines, num_sets, associativity, cores_per_cmp, None
    )
    while len(_IMAGES) > _IMAGE_LIMIT:
        _IMAGES.popitem(last=False)
    return image


def _walk(
    lines: Sequence[Sequence[int]],
    num_sets: int,
    associativity: int,
    cores_per_cmp: int,
    exact: Optional[PredictorConfig],
) -> PrewarmImage:
    """Fill every core's prewarm lines in reverse (the hottest, listed
    first, end up most recently used), with the callback effects of
    ``Cache.fill`` inlined.

    Without ``exact`` the walk records the training stream instead of
    training a predictor.  With it, the walk trains one Exact
    predictor per CMP, applies and logs their conflict downgrades,
    and snapshots the trained predictors.
    """
    num_cores = len(lines)
    num_cmps = num_cores // cores_per_cmp
    core_sets: List[List[Dict[int, int]]] = [
        [{} for _ in range(num_sets)] for _ in range(num_cores)
    ]
    supplier_of: Dict[int, Tuple[int, int]] = {}
    fills = [0] * num_cores
    evictions = [0] * num_cores
    downgrades: List[List[int]] = []
    predictors: List[ExactPredictor] = []
    # The conflict victim an Exact insert just reported.  It is
    # downgraded right after the insert returns: the object core's
    # callback is the insert's last step, so the effects are the same.
    victims: List[int] = []
    if exact is not None:
        downgrades = [[] for _ in range(num_cmps)]
        predictors = [ExactPredictor(exact) for _ in range(num_cmps)]
        for predictor in predictors:
            predictor.set_downgrade_callback(victims.append)

    def downgrade(cmp_id: int, address: int) -> None:
        """Exact's conflict downgrade (``DataPathModel``'s handler on a
        clean line): the CMP's first core holding the line in E keeps
        it in SL."""
        base = cmp_id * cores_per_cmp
        set_index = address % num_sets
        for local in range(cores_per_cmp):
            cache_set = core_sets[base + local][set_index]
            if cache_set.get(address) == E:
                break
        else:
            return
        cache_set[address] = SL
        predictors[cmp_id].remove(address)
        if supplier_of.get(address) == (cmp_id, local):
            del supplier_of[address]
        downgrades[cmp_id].append(address)

    ops: Optional[List[List[int]]] = None if predictors else []
    for core, core_lines in enumerate(lines):
        cmp_id = core // cores_per_cmp
        home = (cmp_id, core % cores_per_cmp)
        sets = core_sets[core]
        insert: Callable[[int], None]
        remove: Callable[[int], None]
        if ops is None:
            insert = predictors[cmp_id].insert
            remove = predictors[cmp_id].remove
        else:
            core_ops: List[int] = []
            ops.append(core_ops)
            insert = core_ops.append
            remove = lambda address: core_ops.append(~address)
        core_fills = core_evictions = 0
        for address in reversed(core_lines):
            cache_set = sets[address % num_sets]
            state = cache_set.pop(address, None)
            if state is not None:
                # Duplicate line: refill in place.  A line an Exact
                # downgrade left in SL regains supplier state.
                cache_set[address] = E
                if state != E:
                    _gain_supplier(supplier_of, address, home)
                    insert(address)
                    if victims:
                        downgrade(cmp_id, victims.pop())
                continue
            if len(cache_set) >= associativity:
                victim = next(iter(cache_set))
                if cache_set.pop(victim) == E:
                    # Supplier loss: the predictor first, then the index.
                    remove(victim)
                    if supplier_of.get(victim) == home:
                        del supplier_of[victim]
                core_evictions += 1
            cache_set[address] = E
            core_fills += 1
            # Register the supplier before training: an Exact downgrade
            # triggered by the insert must see a consistent index.
            _gain_supplier(supplier_of, address, home)
            insert(address)
            if victims:
                downgrade(cmp_id, victims.pop())
        fills[core] = core_fills
        evictions[core] = core_evictions
    # The holder index counts resident copies, so it is read off the
    # final sets (sized to fit) rather than kept up during the walk.
    holder_count: Dict[int, int] = {}
    for sets in core_sets:
        for cache_set in sets:
            for address in cache_set:
                holder_count[address] = holder_count.get(address, 0) + 1
    image = PrewarmImage(
        cores_per_cmp,
        [_set_images(sets, exact is not None) for sets in core_sets],
        fills,
        evictions,
        supplier_of,
        holder_count,
        ops,
        downgrades,
    )
    if exact is not None:
        image.snapshots[exact] = [
            predictor.prewarm_snapshot() for predictor in predictors
        ]
    return image


def _gain_supplier(
    supplier_of: Dict[int, Tuple[int, int]],
    address: int,
    home: Tuple[int, int],
) -> None:
    existing = supplier_of.get(address)
    if existing is not None and existing != home:
        raise CoherenceError(
            "line %#x gained supplier at %s while %s still holds it"
            % (address, home, existing)
        )
    supplier_of[address] = home


def _set_images(
    sets: List[Dict[int, int]], with_states: bool
) -> Dict[int, SetImage]:
    images: Dict[int, SetImage] = {}
    for index, cache_set in enumerate(sets):
        if cache_set:
            images[index] = (
                tuple(cache_set),
                tuple(cache_set.values()) if with_states else None,
            )
    return images
