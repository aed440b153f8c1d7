"""Persistence: signals, thresholds, DWM parameters, and bench histories.

A deployed IDS records its reference signals once, learns its thresholds
once, and then reloads both on every print.  Signals go to ``.npz`` (data +
rate + channel names); the small configuration objects go to JSON so they
stay human-auditable — an operator should be able to read the thresholds
that will stop their printer.
"""

from __future__ import annotations

import json
import struct
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .core.discriminator import Thresholds
from .signals.signal import Signal
from .sync.dwm import DwmParams

__all__ = [
    "save_signal",
    "load_signal",
    "save_signals",
    "load_signals",
    "save_run_payload",
    "load_run_payload",
    "LazyRunPayload",
    "save_thresholds",
    "load_thresholds",
    "save_dwm_params",
    "load_dwm_params",
    "append_bench_record",
]

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Signals
# ---------------------------------------------------------------------------
def save_signal(signal: Signal, path: PathLike) -> None:
    """Write one signal to a ``.npz`` file."""
    path = Path(path)
    payload = {
        "data": signal.data,
        "sample_rate": np.asarray(signal.sample_rate),
    }
    if signal.channel_names is not None:
        payload["channel_names"] = np.asarray(signal.channel_names)
    np.savez_compressed(path, **payload)


def load_signal(path: PathLike) -> Signal:
    """Read a signal written by :func:`save_signal`."""
    with np.load(Path(path), allow_pickle=False) as archive:
        names = None
        if "channel_names" in archive:
            names = [str(n) for n in archive["channel_names"]]
        return Signal(
            archive["data"],
            float(archive["sample_rate"]),
            channel_names=names,
        )


def save_signals(signals: Dict[str, Signal], directory: PathLike) -> None:
    """Write one ``<channel>.npz`` per channel into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for channel_id, signal in signals.items():
        save_signal(signal, directory / f"{channel_id}.npz")


def load_signals(directory: PathLike) -> Dict[str, Signal]:
    """Read every ``*.npz`` in ``directory`` as a channel."""
    directory = Path(directory)
    out: Dict[str, Signal] = {}
    for path in sorted(directory.glob("*.npz")):
        out[path.stem] = load_signal(path)
    if not out:
        raise FileNotFoundError(f"no .npz signals under {directory}")
    return out


# ---------------------------------------------------------------------------
# Whole-run payloads (one .npz per simulated process; the cache's format)
# ---------------------------------------------------------------------------
def save_run_payload(
    path: PathLike,
    signals: Dict[str, Signal],
    layer_times,
    duration: float,
) -> None:
    """Write one simulated run (all channels + timing metadata) to ``.npz``.

    Channel arrays are namespaced as ``<channel>::data`` / ``::rate`` /
    ``::names`` so the whole run stays a single archive — the storage unit
    of :class:`repro.cache.RunCache`.  Stored uncompressed: the sensor
    tracks are near-incompressible noise, and zlib would dominate warm-hit
    latency.
    """
    payload = {
        "__channels": np.asarray(list(signals), dtype=str),
        "__layer_times": np.asarray(list(layer_times), dtype=np.float64),
        "__duration": np.asarray(float(duration)),
    }
    for channel_id, signal in signals.items():
        payload[f"{channel_id}::data"] = signal.data
        payload[f"{channel_id}::rate"] = np.asarray(signal.sample_rate)
        if signal.channel_names is not None:
            payload[f"{channel_id}::names"] = np.asarray(signal.channel_names)
    np.savez(Path(path), **payload)


def load_run_payload(path: PathLike):
    """Read a run written by :func:`save_run_payload`, eagerly.

    Returns ``(signals, layer_times, duration)`` with ``signals`` a
    ``{channel_id: Signal}`` dict in the order it was saved.  This is the
    materializing wrapper around :class:`LazyRunPayload`: every channel is
    decoded into plain in-memory arrays, so the returned payload holds no
    file handles.
    """
    with LazyRunPayload(path) as payload:
        return payload.materialize()


@dataclass(frozen=True)
class _NpyMember:
    """Location of one uncompressed ``.npy`` member inside the archive."""

    offset: int  # absolute file offset of the raw array bytes
    shape: Tuple[int, ...]
    dtype: np.dtype
    fortran_order: bool


def _read_npy_header(f) -> Tuple[Tuple[int, ...], bool, np.dtype]:
    """Parse an npy header at the current file position.

    Returns ``(shape, fortran_order, dtype)`` and leaves the file
    positioned at the first array byte.
    """
    version = np.lib.format.read_magic(f)
    if version == (1, 0):
        return np.lib.format.read_array_header_1_0(f)
    if version == (2, 0):
        return np.lib.format.read_array_header_2_0(f)
    reader = getattr(np.lib.format, "_read_array_header", None)
    if reader is None:
        raise ValueError(f"unsupported npy format version {version}")
    return reader(f, version)


class LazyRunPayload:
    """On-demand view of a run archive written by :func:`save_run_payload`.

    Opening the payload reads only the small metadata members (channel
    list, per-channel sample rates and names, layer times, duration) and
    indexes where each channel's sample array lives inside the zip.
    Channel data is then loaded on first access — and, because
    :func:`save_run_payload` stores members uncompressed, loaded as a
    read-only ``np.memmap`` over the archive file, so "loading" a channel
    costs an fd + page table entries, not a decode of the whole array.
    The OS pages samples in as the analysis actually touches them and can
    evict them under pressure: run-resident memory stays O(working set),
    not O(campaign).

    Compressed or exotic members (a payload produced by some future writer)
    transparently fall back to an eager in-memory read, so the handle is
    correct for any archive the eager loader accepts.

    Context-managed; :meth:`close` drops the handle's internal caches.
    ``Signal`` objects already handed out stay valid — each memmap owns
    its mapping.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._signals: Dict[str, Signal] = {}
        self._members: Dict[str, Optional[_NpyMember]] = {}
        self._rates: Dict[str, float] = {}
        self._names: Dict[str, Optional[Tuple[str, ...]]] = {}
        with zipfile.ZipFile(self.path) as archive:
            self._index_members(archive)
        with np.load(self.path, allow_pickle=False) as archive:
            self.channels: Tuple[str, ...] = tuple(
                str(c) for c in archive["__channels"]
            )
            self.layer_times: Tuple[float, ...] = tuple(
                float(t) for t in archive["__layer_times"]
            )
            self.duration: float = float(archive["__duration"])
            for channel_id in self.channels:
                self._rates[channel_id] = float(
                    archive[f"{channel_id}::rate"]
                )
                names = None
                if f"{channel_id}::names" in archive:
                    names = tuple(
                        str(n) for n in archive[f"{channel_id}::names"]
                    )
                self._names[channel_id] = names

    # -- archive indexing --------------------------------------------------
    def _index_members(self, archive: zipfile.ZipFile) -> None:
        """Map ``<member>.npy`` names to their raw data offsets.

        Only uncompressed (``ZIP_STORED``) members are indexed; anything
        else stays un-indexed and falls back to an eager read.  The local
        file header is re-read from disk because its extra-field length may
        legally differ from the central directory's.
        """
        with open(self.path, "rb") as f:
            for info in archive.infolist():
                member = info.filename
                if member.endswith(".npy"):
                    member = member[: -len(".npy")]
                self._members[member] = None
                if info.compress_type != zipfile.ZIP_STORED:
                    continue
                f.seek(info.header_offset)
                header = f.read(30)
                if len(header) != 30 or header[:4] != b"PK\x03\x04":
                    continue
                name_len, extra_len = struct.unpack("<HH", header[26:30])
                f.seek(info.header_offset + 30 + name_len + extra_len)
                try:
                    shape, fortran_order, dtype = _read_npy_header(f)
                except (ValueError, OSError):
                    continue
                if dtype.hasobject:
                    continue  # would need pickle; let np.load reject it
                self._members[member] = _NpyMember(
                    offset=f.tell(),
                    shape=tuple(int(n) for n in shape),
                    dtype=dtype,
                    fortran_order=bool(fortran_order),
                )

    def _load_member(self, member: str) -> np.ndarray:
        """The raw array of one member: memmap if possible, else eager."""
        entry = self._members.get(member)
        if entry is not None:
            if 0 in entry.shape:
                # mmap cannot map zero bytes; an empty array is free anyway.
                return np.zeros(entry.shape, dtype=entry.dtype)
            return np.memmap(
                self.path,
                mode="r",
                dtype=entry.dtype,
                shape=entry.shape,
                offset=entry.offset,
                order="F" if entry.fortran_order else "C",
            )
        with np.load(self.path, allow_pickle=False) as archive:
            return archive[member]

    # -- payload access ----------------------------------------------------
    def rate(self, channel_id: str) -> float:
        """Sample rate of one channel (read at open; no data touched)."""
        return self._rates[channel_id]

    def signal(self, channel_id: str) -> Signal:
        """One channel as a (memmap-backed where possible) ``Signal``."""
        if channel_id not in self._rates:
            raise KeyError(
                f"channel {channel_id!r} not in payload "
                f"{self.path} (has {list(self.channels)})"
            )
        cached = self._signals.get(channel_id)
        if cached is None:
            cached = Signal(
                self._load_member(f"{channel_id}::data"),
                self._rates[channel_id],
                channel_names=self._names[channel_id],
            )
            self._signals[channel_id] = cached
        return cached

    def signals(
        self, channels: Optional[Sequence[str]] = None
    ) -> Dict[str, Signal]:
        """Channel dict in saved order (all channels by default)."""
        wanted = tuple(channels) if channels is not None else self.channels
        return {channel_id: self.signal(channel_id) for channel_id in wanted}

    def materialize(self):
        """Decode everything into plain arrays: the eager ``RunPayload``."""
        signals: Dict[str, Signal] = {}
        for channel_id in self.channels:
            lazy = self.signal(channel_id)
            signals[channel_id] = Signal(
                np.array(lazy.data, dtype=np.float64),
                lazy.sample_rate,
                channel_names=lazy.channel_names,
            )
        return signals, self.layer_times, self.duration

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Drop the handle's signal cache (idempotent).

        Signals already handed out remain usable: each memmap keeps its
        own mapping alive until the array itself is collected.
        """
        self._signals.clear()

    def __enter__(self) -> "LazyRunPayload":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"LazyRunPayload({str(self.path)!r}, "
            f"channels={list(self.channels)})"
        )


# ---------------------------------------------------------------------------
# Thresholds and parameters (JSON)
# ---------------------------------------------------------------------------
def save_thresholds(thresholds: Thresholds, path: PathLike) -> None:
    """Write learned critical values as human-readable JSON."""
    payload = {
        "c_c": thresholds.c_c,
        "h_c": thresholds.h_c,
        "v_c": thresholds.v_c,
        "d_c": thresholds.d_c,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_thresholds(path: PathLike) -> Thresholds:
    payload = json.loads(Path(path).read_text())
    return Thresholds(
        c_c=float(payload["c_c"]),
        h_c=float(payload["h_c"]),
        v_c=float(payload["v_c"]),
        d_c=float(payload.get("d_c", float("inf"))),
    )


def save_dwm_params(params: DwmParams, path: PathLike) -> None:
    """Write DWM parameters (Table IV style) as JSON."""
    payload = {
        "t_win": params.t_win,
        "t_hop": params.t_hop,
        "t_ext": params.t_ext,
        "t_sigma": params.t_sigma,
        "eta": params.eta,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_dwm_params(path: PathLike) -> DwmParams:
    payload = json.loads(Path(path).read_text())
    return DwmParams(
        t_win=float(payload["t_win"]),
        t_hop=float(payload["t_hop"]),
        t_ext=float(payload["t_ext"]),
        t_sigma=float(payload["t_sigma"]),
        eta=float(payload.get("eta", 0.1)),
    )


# ---------------------------------------------------------------------------
# Benchmark histories
# ---------------------------------------------------------------------------
def append_bench_record(path: PathLike, record: Dict[str, object]) -> None:
    """Append one record to a ``BENCH_*.json`` history (a JSON list).

    A missing file starts a new history.  A file that is not a JSON list
    is refused with a :class:`ValueError` naming it and left untouched:
    its first records are the committed baseline the regression gate
    (``scripts/check_bench_regression.py``) compares against.
    """
    path = Path(path)
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except ValueError as exc:
            raise ValueError(
                f"{path} is not valid JSON ({exc}); not appending to it"
            ) from exc
        if not isinstance(history, list):
            raise ValueError(f"{path} is not a JSON list; not appending to it")
    history.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(history, indent=2) + "\n")
