"""Atomic on-disk persistence of live ``DetectorState`` snapshots.

One JSON file per stream under the store directory, written tmp +
``os.replace`` so a reader (or a restarted service) never observes a
torn checkpoint; a writer SIGKILLed mid-write leaves only a ``.tmp``
sibling, which loading ignores and the next successful save overwrites.
File names are a readable encoding of the stream id, or a digest of it
when that encoding would not fit in one file name; either way the
envelope inside records the raw id.

Loading is fail-soft by design: *any* malformed checkpoint — truncated
JSON, wrong schema, a missing field — is "checkpoint unusable, restart
the stream from scratch", reported via :class:`CheckpointWarning`, never
a crash.  The validation itself lives in ``DetectorState.from_dict``
(raises ``ValueError`` naming the offending field); this store only
decides what a failure means.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.engine import STATE_VERSION, DetectorState

__all__ = ["CHECKPOINT_SUFFIX", "CheckpointStore", "CheckpointWarning"]

#: Suffix of live checkpoint files (``<encoded stream id>.ckpt.json``).
CHECKPOINT_SUFFIX = ".ckpt.json"

#: Suffix of the in-flight sibling a save writes before ``os.replace``.
_TMP_SUFFIX = ".tmp"

#: Longest file name, in bytes, common filesystems accept (NAME_MAX).
_NAME_MAX = 255


class CheckpointWarning(UserWarning):
    """A checkpoint was unusable and the stream restarts from scratch."""


def _encode_stream_id(stream_id: str) -> str:
    """Filesystem-safe, collision-free encoding of a stream id.

    Alphanumerics plus ``._-`` pass through; every other rune becomes
    ``%XX`` (and ``%`` itself is escaped), so distinct ids never map to
    the same file and the common ``printer-07`` case stays readable.
    """
    out = []
    for ch in stream_id:
        if (ch.isalnum() and ch.isascii()) or ch in "._-":
            out.append(ch)
        else:
            out.extend(f"%{b:02x}" for b in ch.encode("utf-8"))
    return "".join(out)


def _file_stem(stream_id: str) -> str:
    """File-name stem of a stream's checkpoint, always short enough.

    The readable encoding when its longest file (the ``.tmp`` sibling)
    fits in :data:`_NAME_MAX` bytes; otherwise ``%sha256-<hex digest>``.
    A readable encoding only ever emits ``%`` followed by two hex digits,
    so the ``%s`` prefix cannot collide with any of them.
    """
    encoded = _encode_stream_id(stream_id)
    if len(encoded) + len(CHECKPOINT_SUFFIX) + len(_TMP_SUFFIX) <= _NAME_MAX:
        return encoded
    digest = hashlib.sha256(stream_id.encode("utf-8")).hexdigest()
    return f"%sha256-{digest}"


class CheckpointStore:
    """Directory of per-stream ``DetectorState`` checkpoints."""

    def __init__(self, directory: Union[str, os.PathLike]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, stream_id: str) -> Path:
        return self.directory / (_file_stem(stream_id) + CHECKPOINT_SUFFIX)

    # ------------------------------------------------------------------
    def save(self, stream_id: str, state_doc: Dict[str, object]) -> Path:
        """Atomically persist one stream's ``DetectorState.to_dict()``.

        The envelope records the raw ``stream_id`` (the filename is an
        encoding of it) and the state's ``samples_seen`` so operators can
        inspect resume cursors with ``jq`` without parsing engine state.
        """
        progress = state_doc.get("progress")
        samples_seen = (
            progress.get("samples_seen") if isinstance(progress, dict) else None
        )
        envelope = {
            "v": STATE_VERSION,
            "stream_id": stream_id,
            "samples_seen": samples_seen,
            "state": state_doc,
        }
        path = self.path(stream_id)
        tmp = path.with_name(path.name + _TMP_SUFFIX)
        tmp.write_text(json.dumps(envelope, separators=(",", ":")) + "\n")
        os.replace(tmp, path)
        return path

    def load(self, stream_id: str) -> Optional[Dict[str, object]]:
        """The stream's validated state doc, or ``None`` if unusable.

        ``None`` covers "no checkpoint" and every flavour of corruption;
        corruption additionally emits a :class:`CheckpointWarning` naming
        the problem so crash forensics can tell the two apart.
        """
        path = self.path(stream_id)
        try:
            raw = path.read_text()
        except OSError:
            return None
        try:
            envelope = json.loads(raw)
            if not isinstance(envelope, dict):
                raise ValueError("checkpoint envelope must be a JSON object")
            state_doc = envelope.get("state")
            if not isinstance(state_doc, dict):
                raise ValueError("checkpoint envelope missing 'state' object")
            # Full structural validation; raises ValueError naming the field.
            DetectorState.from_dict(state_doc)
        except ValueError as exc:
            warnings.warn(
                f"unusable checkpoint {path}: {exc}; stream "
                f"{stream_id!r} restarts from scratch",
                CheckpointWarning,
                stacklevel=2,
            )
            return None
        return state_doc

    def samples_seen(self, stream_id: str) -> int:
        """The checkpointed resume cursor (0 when no usable checkpoint)."""
        doc = self.load(stream_id)
        if doc is None:
            return 0
        progress = doc["progress"]
        assert isinstance(progress, dict)
        return int(progress["samples_seen"])

    def delete(self, stream_id: str) -> bool:
        """Drop a finished stream's checkpoint; returns whether one existed."""
        path = self.path(stream_id)
        try:
            path.unlink()
            return True
        except OSError:
            return False

    def stream_ids(self) -> List[str]:
        """Raw stream ids with a (possibly unusable) checkpoint on disk."""
        ids = []
        for path in sorted(self.directory.glob("*" + CHECKPOINT_SUFFIX)):
            try:
                envelope = json.loads(path.read_text())
                stream_id = envelope.get("stream_id")
            except (OSError, ValueError):
                continue
            if isinstance(stream_id, str):
                ids.append(stream_id)
        return ids
