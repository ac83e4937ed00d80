"""Content-addressed on-disk store of generated traces (the cross-job trace
cache).

A policy sweep touches each benchmark's trace many times: every policy of an
8-policy ladder simulates the *same* (profile, length, seed, slicing) trace,
and a parallel sweep used to re-derive it in every worker process.  The
store gives trace reuse the same shape as the result cache
(:mod:`repro.sim.cache`): a SHA-256 key over everything that determines the
uop stream, one digest-checked binary file per trace
(:func:`repro.trace.serialization.save_trace_binary`), atomic writes, and
corruption detected on load and treated as a miss.

The engine (:mod:`repro.sim.engine`) layers a per-process memo on top and
seeds pool workers with the store's location through the pool initializer,
so an entire sweep — serial, parallel or resumed from a warm directory —
performs exactly one generation per distinct trace.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.trace.serialization import (
    BINARY_FORMAT_VERSION,
    load_trace_binary,
    save_trace_binary,
)
from repro.trace.trace import Trace


def canonical_text(value: object) -> str:
    """Canonical JSON form of a key dictionary (sorted keys, no whitespace).

    Config objects contribute to trace keys and result-cache keys
    (:func:`repro.sim.cache.result_key`) through their ``to_key_dict()``
    serialised with this function, so a key depends on every field's
    *value* — not on repr formatting, field order, or object identity — and
    any field change (including nested cluster/scheduler/memory fields)
    changes the key.  REP002 statically checks that every field reaches
    ``to_key_dict``.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def trace_key(profile: object, trace_uops: int, seed: int,
              use_slicing: bool) -> str:
    """Stable content hash of everything that determines a generated trace.

    The profile contributes through ``canonical_text(to_key_dict())``, so
    a caller-supplied profile that shadows a registered name cannot collide
    with it.
    """
    hasher = hashlib.sha256()
    hasher.update(str(BINARY_FORMAT_VERSION).encode("utf-8"))
    for part in (canonical_text(profile.to_key_dict()), trace_uops, seed,
                 use_slicing):
        hasher.update(b"\x00")
        hasher.update(repr(part).encode("utf-8"))
    return hasher.hexdigest()


class TraceStore:
    """Content-addressed store of :class:`~repro.trace.trace.Trace` files."""

    def __init__(self, store_dir: os.PathLike | str, enabled: bool = True) -> None:
        self.store_dir = Path(store_dir)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: entries dropped because the digest or format did not verify
        self.corrupt_drops = 0
        #: corrupt-dropped slots that were subsequently rewritten with a
        #: freshly generated trace (same heal contract as the result cache)
        self.healed = 0
        #: keys whose on-disk entry was dropped as corrupt and not yet
        #: rewritten (drives the ``healed`` accounting)
        self._corrupt_keys: set = set()
        #: memo keys (engine-side tuples) known to be persisted in this
        #: store — lets `trace_for_job` skip the key hash + path probe after
        #: the first job of a distinct trace
        self.seen: set = set()

    # ------------------------------------------------------------------ paths
    def path_for(self, key: str) -> Path:
        """Location of the entry for ``key`` (two-level sharding)."""
        return self.store_dir / key[:2] / f"{key}.trace"

    # ------------------------------------------------------------------- load
    def load(self, key: str) -> Optional[Trace]:
        """Return the stored trace for ``key``, or None on miss/corruption."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            trace = load_trace_binary(path)
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            # Corrupt or stale: remove so the slot is rewritten cleanly.
            self.corrupt_drops += 1
            self._corrupt_keys.add(key)
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return trace

    # ------------------------------------------------------------------ store
    def store(self, key: str, trace: Trace) -> None:
        """Persist ``trace`` under ``key`` (atomic rename, best effort)."""
        if not self.enabled:
            return
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except OSError:
            # Unusable store location: trace caching degrades to a no-op
            # rather than failing the sweep.
            return
        os.close(fd)
        # Unlike ResultCache.store, the payload is serialised *inside* this
        # window (save_trace_binary pickles straight to the temp file), so a
        # non-OSError failure mid-dump would otherwise strand the .tmp file
        # next to the entry forever.  try/finally guarantees the temp file is
        # gone on every path: renamed into place on success, unlinked on any
        # failure — I/O errors are swallowed (best-effort store), anything
        # else propagates after the cleanup.
        replaced = False
        try:
            save_trace_binary(trace, tmp_name)
            os.replace(tmp_name, path)
            replaced = True
        except OSError:
            return
        finally:
            if not replaced:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        self.stores += 1
        if key in self._corrupt_keys:
            self._corrupt_keys.discard(key)
            self.healed += 1

    # -------------------------------------------------------------- reporting
    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_drops": self.corrupt_drops,
            "healed": self.healed,
        }
