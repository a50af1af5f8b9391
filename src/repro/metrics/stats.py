"""Counters collected during a simulation run.

The figures of the paper are all derived from these counters:

* Figure 6 - ``read_snoops / read_ring_transactions``.
* Figure 7 - ``read_ring_crossings`` (normalized to Lazy).
* Figure 8 - ``exec_time`` (normalized to Lazy).
* Figure 9 - the energy model's totals (normalized to Lazy).
* Figure 11 - :class:`PredictorAccuracy` fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.metrics.histogram import LatencyHistogram


@dataclass
class PredictorAccuracy:
    """TP/TN/FP/FN breakdown of Supplier Predictor lookups.

    ``true_positive`` etc. count individual predictions made by ring
    read snoop requests, classified against ground truth at lookup
    time (whether the CMP really held the line in a supplier state).
    """

    true_positive: int = 0
    true_negative: int = 0
    false_positive: int = 0
    false_negative: int = 0

    def record(self, prediction: bool, truth: bool) -> None:
        if prediction and truth:
            self.true_positive += 1
        elif prediction and not truth:
            self.false_positive += 1
        elif not prediction and truth:
            self.false_negative += 1
        else:
            self.true_negative += 1

    @property
    def total(self) -> int:
        return (
            self.true_positive
            + self.true_negative
            + self.false_positive
            + self.false_negative
        )

    def fractions(self) -> Dict[str, float]:
        """Fractions of each class, as plotted in Figure 11."""
        total = self.total
        if total == 0:
            return {
                "true_positive": 0.0,
                "true_negative": 0.0,
                "false_positive": 0.0,
                "false_negative": 0.0,
            }
        return {
            "true_positive": self.true_positive / total,
            "true_negative": self.true_negative / total,
            "false_positive": self.false_positive / total,
            "false_negative": self.false_negative / total,
        }

    @property
    def false_positive_rate(self) -> float:
        """FP / (FP + TN): probability a non-supplier node predicts
        positive."""
        denom = self.false_positive + self.true_negative
        return self.false_positive / denom if denom else 0.0

    @property
    def false_negative_rate(self) -> float:
        """FN / (FN + TP): probability a supplier node predicts
        negative."""
        denom = self.false_negative + self.true_positive
        return self.false_negative / denom if denom else 0.0


@dataclass
class RunStats:
    """All counters of one simulation run."""

    # --- core-visible accesses -------------------------------------
    reads: int = 0
    writes: int = 0
    read_hits_local_cache: int = 0
    read_hits_local_master: int = 0
    write_hits_exclusive: int = 0

    # --- ring read transactions -------------------------------------
    read_ring_transactions: int = 0
    read_snoops: int = 0
    read_ring_crossings: int = 0
    reads_supplied_by_cache: int = 0
    reads_supplied_by_memory: int = 0
    reads_prefetched: int = 0

    # --- ring write transactions ------------------------------------
    write_ring_transactions: int = 0
    write_snoops: int = 0
    write_ring_crossings: int = 0
    writes_supplied_by_cache: int = 0
    writes_supplied_by_memory: int = 0

    # --- collisions ---------------------------------------------------
    squashes: int = 0
    retries: int = 0
    mshr_queued: int = 0

    # --- predictor -----------------------------------------------------
    accuracy: PredictorAccuracy = field(default_factory=PredictorAccuracy)
    perfect_accuracy: PredictorAccuracy = field(
        default_factory=PredictorAccuracy
    )

    # --- caches / memory -------------------------------------------------
    writebacks: int = 0
    dirty_evictions: int = 0
    downgrades: int = 0
    downgrade_writebacks: int = 0
    downgrade_rereads: int = 0

    # --- latency bookkeeping ----------------------------------------------
    read_miss_latency_sum: int = 0
    read_miss_count: int = 0
    supplier_latency_sum: int = 0
    supplier_latency_count: int = 0
    read_miss_histogram: LatencyHistogram = field(
        default_factory=LatencyHistogram
    )

    # --- completion -----------------------------------------------------
    exec_time: int = 0
    core_finish_times: List[int] = field(default_factory=list)
    version_violations: int = 0

    # --- engine perf counters --------------------------------------------
    # Populated once, at the end of RingMultiprocessor.run(), with
    # whole-run values (they are diagnostics of simulator efficiency,
    # not of the simulated machine, so they ignore the warmup reset and
    # are deliberately NOT part of summary()).
    events_scheduled: int = 0
    events_fired: int = 0

    @property
    def snoops_per_read_request(self) -> float:
        """Figure 6 metric: CMP snoop operations per read snoop
        request that went on the ring."""
        if self.read_ring_transactions == 0:
            return 0.0
        return self.read_snoops / self.read_ring_transactions

    @property
    def supplier_found_fraction(self) -> float:
        """Fraction of ring reads answered cache-to-cache."""
        total = self.reads_supplied_by_cache + self.reads_supplied_by_memory
        return self.reads_supplied_by_cache / total if total else 0.0

    @property
    def mean_read_miss_latency(self) -> float:
        if self.read_miss_count == 0:
            return 0.0
        return self.read_miss_latency_sum / self.read_miss_count

    @property
    def mean_supplier_latency(self) -> float:
        """Mean unloaded time from ring issue to supplier snoop
        completion, over cache-supplied reads."""
        if self.supplier_latency_count == 0:
            return 0.0
        return self.supplier_latency_sum / self.supplier_latency_count

    def summary(self) -> Dict[str, float]:
        """Flat summary used by the harness and the examples."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "read_ring_transactions": self.read_ring_transactions,
            "snoops_per_read_request": self.snoops_per_read_request,
            "read_ring_crossings": self.read_ring_crossings,
            "write_ring_crossings": self.write_ring_crossings,
            "supplier_found_fraction": self.supplier_found_fraction,
            "mean_read_miss_latency": self.mean_read_miss_latency,
            "exec_time": self.exec_time,
            "squashes": self.squashes,
            "downgrades": self.downgrades,
            "memory_reads": self.reads_supplied_by_memory,
        }
