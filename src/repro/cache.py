"""Content-addressed on-disk cache for simulated process runs.

Campaigns re-simulate the same (G-code, machine, noise model, DAQ, seed)
tuples over and over: every benchmark file regenerates its campaign, every
CLI invocation starts from scratch.  Simulation is deterministic, so a run
is fully described by its inputs — which makes it cacheable by content
address: a stable hash of everything that influences the simulated signals.

Key properties:

* **Content-addressed** — the key is a SHA-256 over a canonical JSON
  description of the G-code program text, the machine configuration
  (including kinematics), the time-noise model, the DAQ sensor configs, the
  acquired channels, and the seed.  Any change to any of those fields (for
  example a different ``rate_walk_std``) produces a different key, so stale
  hits are structurally impossible.
* **Versioned** — ``CACHE_VERSION`` is folded into every key.  Bump it when
  the simulator's semantics change so old payloads are ignored, not
  misread.
* **Plain ``.npz`` payloads** — each entry is one compressed archive written
  through :mod:`repro.io`, holding the per-channel signals plus the run's
  layer-change times and duration.  Labels are *not* stored: the same
  simulated physics is reusable under any label.

The cache location resolves, in order: an explicit ``directory`` argument,
the ``REPRO_CACHE_DIR`` environment variable, and (only if asked via
:func:`default_cache_dir`) a per-user default under ``~/.cache``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import zipfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "CACHE_VERSION",
    "CACHE_ENV_VAR",
    "RunCache",
    "RunPayload",
    "describe",
    "digest_cache_key",
    "program_digest",
    "run_cache_key",
    "default_cache_dir",
    "resolve_cache",
]

#: Bump whenever the firmware/sensor simulation changes behaviour in a way
#: that invalidates previously cached signals.
CACHE_VERSION = 1

#: Environment variable naming the default cache directory.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Canonical descriptions and keys
# ---------------------------------------------------------------------------
def describe(obj) -> object:
    """Canonical JSON-able description of a configuration object.

    Dataclasses become ``{"__class__": name, **fields}`` (recursively), so
    two configurations hash equal iff they are the same type with the same
    field values.  Arrays are digested; unknown objects fall back to their
    class name plus ``__dict__``.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__class__": type(obj).__qualname__}
        for f in dataclasses.fields(obj):
            out[f.name] = describe(getattr(obj, f.name))
        return out
    if isinstance(obj, np.ndarray):
        return {
            "__ndarray__": hashlib.sha256(
                np.ascontiguousarray(obj).tobytes()
            ).hexdigest(),
            "shape": list(obj.shape),
            "dtype": str(obj.dtype),
        }
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): describe(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [describe(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "__dict__"):
        return {
            "__class__": type(obj).__qualname__,
            **{k: describe(v) for k, v in sorted(vars(obj).items())},
        }
    return repr(obj)


def _describe_daq(daq) -> object:
    """Describe a :class:`~repro.sensors.daq.DataAcquisition` stably.

    Sensor identity is (class name, config fields); the sensor objects
    themselves may not be dataclasses.
    """
    out = {}
    for cid, sensor in sorted(daq.sensors.items()):
        out[cid] = {
            "__class__": type(sensor).__qualname__,
            "config": describe(getattr(sensor, "config", None)),
        }
    return out


def program_digest(program) -> str:
    """SHA-256 of a program's G-code text serialization.

    Programs that serialize identically (regardless of how they were
    produced — sliced, parsed, or attacked) share cache entries.
    """
    return hashlib.sha256(program.to_text().encode("utf-8")).hexdigest()


def run_cache_key(
    program,
    machine,
    noise,
    daq,
    channels: Optional[Sequence[str]],
    seed: int,
) -> str:
    """Stable content address of one simulated process run.

    ``program`` is hashed through :func:`program_digest`.
    """
    return digest_cache_key(
        program_digest(program), machine, noise, daq, channels, seed
    )


def digest_cache_key(
    program_sha256: str,
    machine,
    noise,
    daq,
    channels: Optional[Sequence[str]],
    seed: int,
) -> str:
    """:func:`run_cache_key` of a program already hashed by
    :func:`program_digest`; the same bytes for the same run."""
    wanted = tuple(channels) if channels is not None else tuple(daq.sensors)
    document = {
        "version": CACHE_VERSION,
        "program": program_sha256,
        "machine": describe(machine),
        "noise": describe(noise),
        "daq": _describe_daq(daq),
        "channels": list(wanted),
        "seed": int(seed),
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-nsync``."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-nsync"


#: (signals, layer_times, duration) as stored per cache entry.
RunPayload = Tuple[Dict[str, "object"], Tuple[float, ...], float]

#: Exceptions that mean "this entry is unreadable" rather than a bug:
#: truncated/garbage archives (``BadZipFile`` is *not* an ``OSError``),
#: missing members, and malformed npy headers all behave like a miss.
_CORRUPT_ENTRY_ERRORS = (OSError, KeyError, ValueError, zipfile.BadZipFile)

#: Per-process counter giving every ``put`` a distinct tmp name.  Combined
#: with the pid, two writers publishing the same key can never share a tmp
#: file, so neither can replace a half-written archive into place.
_TMP_COUNTER = itertools.count()


class RunCache:
    """On-disk, content-addressed store of simulated run payloads.

    Entries live under ``<directory>/<key[:2]>/<key>.npz`` (two-level
    fan-out keeps directory listings manageable for large campaigns).  The
    cache counts ``hits``/``misses`` for observability and exposes
    :meth:`clear` plus an :meth:`evict` API bounding entry count or bytes.
    """

    def __init__(self, directory: Optional[PathLike] = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_cache_dir()
        )
        if self.directory.exists() and not self.directory.is_dir():
            # Fail here, not after the first (expensive) simulated run.
            raise ValueError(
                f"cache directory {self.directory} exists and is not "
                "a directory"
            )
        self.hits = 0
        self.misses = 0

    # -- key/path plumbing -------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.npz"

    def _entries(self) -> Iterable[Path]:
        if not self.directory.exists():
            return []
        return sorted(
            p
            for p in self.directory.glob("*/*.npz")
            if not p.name.endswith(".tmp.npz")
        )

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def total_bytes(self) -> int:
        # A concurrent writer/evictor may unlink an entry between the scan
        # and the stat; a vanished entry simply contributes nothing.
        total = 0
        for p in self._entries():
            try:
                total += p.stat().st_size
            except FileNotFoundError:
                continue
        return total

    # -- payload IO --------------------------------------------------------
    def _load(self, key: str, loader):
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            payload = loader(path)
        except _CORRUPT_ENTRY_ERRORS:
            # A truncated/corrupt entry behaves like a miss and is removed
            # so the slot repopulates cleanly.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def get(self, key: str) -> Optional[RunPayload]:
        """Load a payload eagerly, or ``None`` (a miss) if absent."""
        from .io import load_run_payload

        return self._load(key, load_run_payload)

    def get_lazy(self, key: str):
        """A :class:`~repro.io.LazyRunPayload` handle, or ``None`` (a miss).

        The handle reads only the archive metadata up front; channel arrays
        are memory-mapped on first access.  Corrupt entries are removed and
        miss, exactly like :meth:`get` — though corruption *past* the
        metadata (a torn sample array with an intact zip directory) can
        only surface later, when the bad pages are actually touched.
        """
        from .io import LazyRunPayload

        return self._load(key, LazyRunPayload)

    def put(self, key: str, signals, layer_times, duration) -> Path:
        """Store one simulated run under its content address.

        The payload is staged under a per-writer unique tmp name (pid +
        in-process counter) and published with an atomic ``os.replace``, so
        any number of concurrent writers of the *same* key race safely:
        each publishes only its own fully-written archive, and readers see
        either nothing or a complete entry.
        """
        from .io import save_run_payload

        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (
            f"{key}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp.npz"
        )
        try:
            save_run_payload(tmp, signals, layer_times, duration)
            os.replace(tmp, path)  # atomic publish
        finally:
            tmp.unlink(missing_ok=True)  # no-op unless the publish failed
        return path

    # -- maintenance -------------------------------------------------------
    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for path in self._entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def evict(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Drop least-recently-modified entries until under the bounds.

        Entries unlinked mid-scan by a concurrent writer or evictor are
        skipped: they no longer occupy space, so they neither count against
        the bounds nor count as removed here.
        """
        stated: List[Tuple[Path, os.stat_result]] = []
        for path in self._entries():
            try:
                stated.append((path, path.stat()))
            except FileNotFoundError:
                continue
        stated.sort(key=lambda item: item[1].st_mtime, reverse=True)
        removed = 0
        kept_bytes = 0
        for i, (path, stat) in enumerate(stated):
            size = stat.st_size
            over_count = max_entries is not None and i >= max_entries
            over_bytes = max_bytes is not None and kept_bytes + size > max_bytes
            if over_count or over_bytes:
                path.unlink(missing_ok=True)
                removed += 1
            else:
                kept_bytes += size
        return removed

    @property
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


def resolve_cache(
    cache: Union["RunCache", PathLike, None]
) -> Optional[RunCache]:
    """Accept a :class:`RunCache`, a directory path, or ``None``."""
    if cache is None or isinstance(cache, RunCache):
        return cache
    return RunCache(cache)
