"""Persistent on-disk cache of simulation results.

The paper derives every figure (6-11) and both analytical tables from
*one* matrix of simulations.  This module gives the harness the same
economics: a completed :class:`~repro.sim.system.SimulationResult` is
written to disk keyed by a stable fingerprint of everything that
determines it - the full :class:`~repro.config.MachineConfig`, the
algorithm, the workload, the predictor override, the trace scale and
seed, the warmup fraction, and the code version.  Re-running
``flexsnoop figure 8`` after a figure-6 run then costs zero
simulations.

Layout::

    <root>/v<schema>/<key[:2]>/<key>.pkl

where ``key`` is a SHA-256 over the canonical JSON fingerprint.  Each
entry is an independent pickle file, so concurrent writers (parallel
workers, multiple harness processes) never contend on shared state;
writes go through a temp file plus :func:`os.replace`, so readers
never observe a torn entry.

The cache root defaults to ``$FLEXSNOOP_CACHE_DIR`` when set, else
``~/.cache/flexsnoop``.  Corrupt or unreadable entries are treated as
misses and deleted.  Bumping :data:`CACHE_SCHEMA_VERSION` (or the
package version) invalidates every old entry, since both are folded
into the key.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

from repro import __version__
from repro.sim.system import SimulationResult

#: Bump when the semantics of cached results change (new counters,
#: changed simulator behaviour that is not reflected in the package
#: version, ...).  Folded into every cache key.
#: v2: MachineConfig grew the ``tracing`` field, which changes every
#: config fingerprint.
#: v3: RunSpec fingerprints are keyed on the workload source
#: descriptor (content hash for file replays, parameter snapshot for
#: synthetic profiles) instead of the literal spec fields.
#: v4: results record the core that ran (``SimulationResult.core``),
#: and every key spells out the requested core, the topology and the
#: think scale (the default core became ``soa``).
CACHE_SCHEMA_VERSION = 4

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "FLEXSNOOP_CACHE_DIR"


def default_cache_root() -> Path:
    """Resolve the cache directory: env override, else XDG-ish home."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "flexsnoop"


def fingerprint_key(payload: Dict[str, Any]) -> str:
    """Stable SHA-256 hex digest of a fingerprint payload.

    The payload is extended with the code version and cache schema so
    results computed by different code never collide.
    """
    versioned = dict(payload)
    versioned["__code_version__"] = __version__
    versioned["__cache_schema__"] = CACHE_SCHEMA_VERSION
    canonical = json.dumps(versioned, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Disk-backed result store with hit/miss/store accounting.

    Args:
        root: cache directory (default: :func:`default_cache_root`).
        enabled: when False, every lookup misses and nothing is
            written - callers can thread one object through
            unconditionally and flip this off for ``--no-cache``.
    """

    def __init__(
        self, root: Optional[Path] = None, enabled: bool = True
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    # Key/path plumbing

    @property
    def _bucket_root(self) -> Path:
        return self.root / ("v%d" % CACHE_SCHEMA_VERSION)

    def _path_for(self, key: str) -> Path:
        return self._bucket_root / key[:2] / (key + ".pkl")

    # ------------------------------------------------------------------
    # Lookup / store

    def get(self, key: str) -> Optional[SimulationResult]:
        """Return the cached result for ``key``, or None on a miss."""
        if not self.enabled:
            self.misses += 1
            return None
        path = self._path_for(key)
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Unpickling untrusted bytes can raise nearly anything
            # (UnpicklingError, EOFError, ValueError, stale class
            # layouts...).  Torn write or plain corruption either way:
            # drop the entry and treat it as a miss.
            try:
                os.remove(path)
            except OSError:
                pass
            self.misses += 1
            return None
        if not isinstance(result, SimulationResult):
            self.misses += 1
            return None
        # Refresh the access time so :meth:`prune`'s LRU ordering sees
        # recently-served entries as live.  Best-effort: a read-only
        # cache still serves hits.
        try:
            os.utime(path)
        except OSError:
            pass
        self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Persist ``result`` under ``key`` (atomic replace)."""
        if not self.enabled:
            return
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            path.name + ".tmp.%d" % os.getpid()
        )
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            # A full or read-only disk must not kill the simulation
            # that produced the result; the cache is best-effort.
            try:
                os.remove(tmp)
            except OSError:
                pass
            return
        self.stores += 1

    # ------------------------------------------------------------------
    # Maintenance

    def _entry_paths(self) -> Iterator[Path]:
        """Entries of the *current* schema only.

        Accounting (``entry_count``/``size_bytes``/``info``) must not
        count entries written under older schema versions as live -
        they can never be returned by :meth:`get`.
        """
        bucket = self._bucket_root
        if not bucket.is_dir():
            return
        for path in sorted(bucket.rglob("*.pkl")):
            yield path

    def _all_entry_paths(self) -> Iterator[Path]:
        """Entries across every schema version (maintenance)."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.rglob("*.pkl")):
            yield path

    def _tmp_paths(self) -> Iterator[Path]:
        """Temp files from in-flight or crashed :meth:`put` calls."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.rglob("*.pkl.tmp.*")):
            yield path

    def entry_count(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def size_bytes(self) -> int:
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def stale_entry_count(self) -> int:
        """Entries under older schema versions (never served)."""
        return sum(1 for _ in self._all_entry_paths()) - self.entry_count()

    def prune_tmp(self, max_age_seconds: float = 3600.0) -> int:
        """Remove orphaned ``.pkl.tmp.<pid>`` files.

        A writer that dies between creating its temp file and the
        ``os.replace`` leaves the temp behind forever - no later call
        ever reuses the name (pids differ) or cleans it up.  Only
        temps older than ``max_age_seconds`` are removed, so an
        in-flight writer's file is never yanked out from under it.
        Returns the number removed.
        """
        now = time.time()
        removed = 0
        for path in list(self._tmp_paths()):
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age >= max_age_seconds:
                try:
                    os.remove(path)
                    removed += 1
                except OSError:
                    pass
        return removed

    def _remove_empty_dirs(self) -> None:
        """Drop emptied shard/version directories (deepest first)."""
        if not self.root.is_dir():
            return
        subdirs = sorted(
            (path for path in self.root.rglob("*") if path.is_dir()),
            key=lambda path: len(path.parts),
            reverse=True,
        )
        for path in subdirs:
            try:
                path.rmdir()  # fails (and is kept) unless empty
            except OSError:
                pass

    def prune(self, max_size_bytes: int) -> Dict[str, int]:
        """Shrink the current-schema cache under a size budget.

        Evicts least-recently-used entries first, where "used" is the
        file mtime - :meth:`get` refreshes it on every hit, so entries
        a recent run served survive entries nobody has touched.  Only
        current-schema entries count toward (and are evicted against)
        the budget; stale-schema entries are dead weight handled by
        :meth:`clear`.  Returns ``{"removed", "freed_bytes",
        "size_bytes"}`` with the post-prune size.
        """
        if max_size_bytes < 0:
            raise ValueError("max_size_bytes must be >= 0")
        entries = []
        total = 0
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        entries.sort(key=lambda item: item[0])
        removed = 0
        freed = 0
        for _mtime, size, path in entries:
            if total <= max_size_bytes:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            freed += size
            removed += 1
        if removed:
            self._remove_empty_dirs()
        return {
            "removed": removed,
            "freed_bytes": freed,
            "size_bytes": total,
        }

    def clear(self) -> int:
        """Delete every cached entry - current *and* stale schemas -
        plus orphaned temp files and the directories they emptied.
        Returns the number of entries removed (temps not counted).
        """
        removed = 0
        for path in list(self._all_entry_paths()):
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        self.prune_tmp(max_age_seconds=0.0)
        self._remove_empty_dirs()
        return removed

    def info(self) -> Dict[str, Any]:
        """Summary used by ``flexsnoop cache info`` and tests."""
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "entries": self.entry_count(),
            "size_bytes": self.size_bytes(),
            "stale_entries": self.stale_entry_count(),
            "tmp_files": sum(1 for _ in self._tmp_paths()),
            "schema": CACHE_SCHEMA_VERSION,
            "code_version": __version__,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def __repr__(self) -> str:
        return "ResultCache(root=%r, enabled=%r)" % (
            str(self.root),
            self.enabled,
        )
