"""On-disk result cache for experiment jobs.

Re-running ``pmnet-repro run all`` after editing one experiment should
only re-simulate what changed.  The cache key of a job is therefore a
hash over

* the canonical JSON of the :class:`~repro.experiments.jobs.JobSpec`
  (experiment id, point parameters, seed, quick/full profile, and the
  full ``SystemConfig`` — so any config edit is a new key),
* a fingerprint of the experiment's own source module (editing
  ``fig15_payload_latency.py`` invalidates fig15 entries and nothing
  else), and
* :data:`CACHE_VERSION`, bumped when the payload layout changes.

The fingerprint covers only the experiment module, not the simulator
underneath it; after editing core simulator code, clear the cache
(``rm -rf .pmnet-cache``) or pass ``--no-cache``.

Entries are pickle files under ``<root>/<experiment>/<key>.pkl``; the
root defaults to ``.pmnet-cache`` in the working directory and can be
moved with ``PMNET_CACHE_DIR`` or the CLI's ``--cache-dir``.  Any
unreadable entry is treated as a miss and rewritten.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Any, Optional, Tuple

from repro.experiments.jobs import JobSpec, spec_key

#: Bump to orphan every existing entry (payload layout changes).
CACHE_VERSION = "1"

#: Environment override for the cache root directory.
CACHE_DIR_ENV = "PMNET_CACHE_DIR"

#: Default root, relative to the working directory.
DEFAULT_CACHE_DIR = ".pmnet-cache"


def default_cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


class ResultCache:
    """Pickle-file store of per-job payloads, keyed by spec hash."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = Path(root if root is not None else default_cache_dir())
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(self, spec: JobSpec) -> str:
        # Looked up on each call, so a patched fingerprint takes effect.
        from repro.experiments.registry import experiment_fingerprint
        salt = f"{CACHE_VERSION}:{experiment_fingerprint(spec.experiment)}"
        return spec_key(spec, salt)

    def path(self, spec: JobSpec) -> Path:
        return self.root / spec.experiment / f"{self.key(spec)}.pkl"

    def get(self, spec: JobSpec) -> Tuple[bool, Any]:
        """``(hit, value)`` — any unreadable entry counts as a miss."""
        path = self.path(spec)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, spec: JobSpec, value: Any) -> None:
        path = self.path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename so a crashed run never leaves a torn entry
        # that a later run would half-read.
        scratch = path.with_suffix(f".tmp{os.getpid()}")
        with open(scratch, "wb") as handle:
            pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(scratch, path)
        self.stores += 1
