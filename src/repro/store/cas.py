"""On-disk content-addressed store for sweep-point results.

Layout::

    <root>/meta.json                  {"format": 1, "version": <salt>}
    <root>/objects/<k[:2]>/<k>.bin    one object per point key

Each object file is a one-line JSON header (payload sha256 + size)
followed by the pickled capture payload.  Writes are atomic — temp file
in the same directory, flush + fsync, then ``os.replace`` — so a
crashed writer can never leave a half-object under a valid name, and
concurrent writers of the same key race benignly (identical content).
Reads verify the header digest; a corrupt object is quarantined to
``<k>.corrupt`` and reported as a miss, so the point simply re-executes
and overwrites it.

The store is deliberately dumb about *what* it holds: the executor
stores ``(result, obs payload, sanitizer diagnostics, fault tally)``
capture tuples, and ``--checkpoint DIR`` resumes from those same
objects, but the blob layer only sees bytes.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Any, Iterator, List, Optional, Tuple

from repro.store.keys import STORE_VERSION

__all__ = ["ResultStore", "StoreStats"]

_HEADER_VERSION = 1


@dataclass(frozen=True)
class StoreStats:
    """One `stats`/`gc` snapshot of a store directory."""

    root: str
    objects: int
    total_bytes: int
    corrupt: int

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "objects": self.objects,
            "total_bytes": self.total_bytes,
            "corrupt": self.corrupt,
        }


class ResultStore:
    """Content-addressed result store rooted at a directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._write_meta()

    def _write_meta(self) -> None:
        meta = self.root / "meta.json"
        if meta.exists():
            return
        tmp = meta.with_name(f"meta.json.tmp{os.getpid()}")
        tmp.write_text(
            json.dumps({"format": _HEADER_VERSION, "version": STORE_VERSION}) + "\n"
        )
        os.replace(tmp, meta)

    def _path(self, key: str) -> Path:
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed store key {key!r}")
        return self._objects / key[:2] / f"{key}.bin"

    # -- blob layer -----------------------------------------------------
    def put_blob(self, key: str, payload: bytes) -> bool:
        """Store *payload* under *key*; returns False if already present."""
        path = self._path(key)
        if path.exists():
            return False
        path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps(
            {
                "v": _HEADER_VERSION,
                "sha256": sha256(payload).hexdigest(),
                "size": len(payload),
            },
            sort_keys=True,
        ).encode("ascii")
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                fh.write(header + b"\n" + payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # a failed write leaves no debris
                tmp.unlink()
        return True

    def get_blob(self, key: str) -> Optional[bytes]:
        """Fetch *key*'s payload, or None on miss/corruption.

        Integrity is checked on every read; a payload whose digest does
        not match its header is quarantined (renamed ``.corrupt``) so
        the next writer can replace it cleanly.
        """
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except (FileNotFoundError, OSError):
            return None
        header, sep, payload = raw.partition(b"\n")
        if sep:
            try:
                meta = json.loads(header)
                if (
                    meta.get("v") == _HEADER_VERSION
                    and meta.get("size") == len(payload)
                    and meta.get("sha256") == sha256(payload).hexdigest()
                ):
                    return payload
            except ValueError:
                pass
        self._quarantine(path)
        return None

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:  # pragma: no cover - racing quarantines
            return
        # Late import: repro.store imports this module at package init.
        from repro import store as _store

        _store.record("quarantined", key=path.stem, status="quarantined")

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    # -- capture layer (what the executor stores) -----------------------
    def put_capture(self, key: str, capture: Any) -> bool:
        """Pickle one worker capture tuple under *key*."""
        return self.put_blob(
            key, pickle.dumps(capture, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def get_capture(self, key: str) -> Optional[Any]:
        """Unpickle *key*'s capture, or None on miss/corruption."""
        blob = self.get_blob(key)
        if blob is None:
            return None
        try:
            return pickle.loads(blob)
        except Exception:  # unpicklable despite intact digest: quarantine
            self._quarantine(self._path(key))
            return None

    # -- maintenance ----------------------------------------------------
    def _scan(self) -> Iterator[Tuple[Path, os.stat_result]]:
        for shard in sorted(self._objects.iterdir()) if self._objects.exists() else []:
            if not shard.is_dir():
                continue
            for path in sorted(shard.iterdir()):
                try:
                    yield path, path.stat()
                except OSError:  # pragma: no cover - racing gc
                    continue

    def keys(self) -> List[str]:
        return [
            p.name[: -len(".bin")]
            for p, _ in self._scan()
            if p.name.endswith(".bin")
        ]

    def stats(self) -> StoreStats:
        objects = total = corrupt = 0
        for path, st in self._scan():
            if path.name.endswith(".corrupt"):
                corrupt += 1
            elif path.name.endswith(".bin"):
                objects += 1
                total += st.st_size
        return StoreStats(
            root=str(self.root), objects=objects, total_bytes=total, corrupt=corrupt
        )

    def verify(self) -> Tuple[int, int]:
        """Integrity-check every object; returns (ok, quarantined)."""
        ok = bad = 0
        for key in sorted(self.keys()):
            if self.get_blob(key) is None:
                bad += 1
            else:
                ok += 1
        return ok, bad

    #: gc never touches a ``.tmp*`` file younger than this: a concurrent
    #: writer may be between its write and the atomic ``os.replace``,
    #: and unlinking the temp mid-rename would fail that write.
    TMP_GRACE_SECONDS = 60.0

    def gc(
        self,
        max_age_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> int:
        """Remove corrupt quarantines, stale temp files, objects older
        than *max_age_seconds*, then oldest-first until the store fits
        in *max_bytes*.  Returns the number of files removed.

        Safe under a concurrent writer: fresh ``.tmp*`` files (younger
        than :data:`TMP_GRACE_SECONDS`) are in-flight atomic writes and
        are left alone; only abandoned ones are swept.
        """
        now = time.time() if now is None else now
        removed = 0
        live: List[Tuple[float, int, Path]] = []
        for path, st in self._scan():
            if not path.name.endswith(".bin"):
                if ".tmp" in path.name and now - st.st_mtime < self.TMP_GRACE_SECONDS:
                    continue  # a concurrent writer's in-flight temp file
                path.unlink(missing_ok=True)
                removed += 1
                continue
            if max_age_seconds is not None and now - st.st_mtime > max_age_seconds:
                path.unlink(missing_ok=True)
                removed += 1
                continue
            live.append((st.st_mtime, st.st_size, path))
        if max_bytes is not None:
            total = sum(size for _, size, _ in live)
            for _, size, path in sorted(live, key=lambda t: t[0]):
                if total <= max_bytes:
                    break
                path.unlink(missing_ok=True)
                total -= size
                removed += 1
        return removed
