"""Crash-safe checkpoints: append-only job logs and atomic search state.

Two complementary shapes:

:class:`JobCheckpoint`
    An append-only JSONL log of completed :class:`~repro.jobs.spec.JobResult`
    records, one line per finished job, flushed (``fsync``) per write so
    a SIGKILL loses at most the in-flight job.  The first line is a
    header naming the format version and a **fingerprint** — the SHA-256
    of the canonical JSON of the caller's ``meta`` (circuit hashes,
    config, suite name) — so ``--resume`` refuses to splice results from
    a different configuration into this run.  Values must be
    JSON-serializable (the benchmark drivers' row dicts are).

:class:`SearchCheckpoint`
    A single-document JSON snapshot written atomically (temp file +
    ``os.replace``) for iterative searches (greedy descent, decomposed
    outer loops, Pareto sweeps) that persist a small "current state" rather than a
    stream of results.

Both raise :class:`~repro.errors.CheckpointError` on mismatched
fingerprints instead of silently mixing incompatible runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import IO, Dict, Iterable, Mapping

from repro.errors import CheckpointError
from repro.jobs.spec import JobResult, JobSpec

__all__ = ["JobCheckpoint", "SearchCheckpoint", "CHECKPOINT_FORMAT"]

CHECKPOINT_FORMAT = "repro-jobs-checkpoint-v1"


def _fingerprint(meta: Mapping) -> str:
    """Stable digest of the run configuration a checkpoint belongs to."""
    text = json.dumps(meta, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class JobCheckpoint:
    """Append-only JSONL log of completed job results.

    Parameters
    ----------
    path:
        Checkpoint file location; created (with parents) on first write.
    meta:
        JSON-serializable description of the run configuration.  Its
        fingerprint is stamped into the header; resuming against a file
        with a different fingerprint raises :class:`CheckpointError`.
    resume:
        With ``True`` an existing file is loaded and appended to; with
        ``False`` (a fresh run) any existing file is truncated.
    """

    def __init__(
        self, path: str | os.PathLike, meta: Mapping | None = None, resume: bool = False
    ) -> None:
        self.path = Path(path)
        self.meta = dict(meta or {})
        self.resume = bool(resume)
        self.fingerprint = _fingerprint(self.meta)
        self._handle: IO[str] | None = None

    # ------------------------------------------------------------------ #
    def begin(self, specs: Iterable[JobSpec]) -> Dict[str, JobResult]:
        """Open the log and return results already on disk, keyed by job.

        Only successful records matching a submitted key are resumed —
        failures and stale keys are recomputed.  Resumed results carry
        ``resumed=True`` so callers can count skipped work.
        """
        spec_keys = {spec.key for spec in specs}
        records: Dict[str, dict] = {}
        if self.resume and self.path.exists():
            records = self._load_records()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not (self.resume and self.path.exists())
        self._handle = self.path.open("w" if fresh else "a", encoding="utf-8")
        if fresh:
            header = {
                "format": CHECKPOINT_FORMAT,
                "fingerprint": self.fingerprint,
                "meta": self.meta,
            }
            self._write_line(header)
        resumed: Dict[str, JobResult] = {}
        for key, record in records.items():
            if key not in spec_keys or not record.get("ok"):
                continue
            resumed[key] = JobResult(
                key=key,
                ok=True,
                value=record.get("value"),
                wall_s=float(record.get("wall_s", 0.0)),
                cpu_s=float(record.get("cpu_s", 0.0)),
                seed=record.get("seed"),
                attempts=int(record.get("attempts", 1)),
                timeouts=int(record.get("timeouts", 0)),
                resumed=True,
            )
        return resumed

    def _load_records(self) -> Dict[str, dict]:
        lines = self.path.read_text(encoding="utf-8").splitlines()
        records: Dict[str, dict] = {}
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                document = json.loads(line)
            except json.JSONDecodeError:
                # A SIGKILL mid-write leaves at most one torn trailing
                # line; anything undecodable earlier is equally unusable.
                continue
            if index == 0:
                if (
                    document.get("format") != CHECKPOINT_FORMAT
                    or document.get("fingerprint") != self.fingerprint
                ):
                    raise CheckpointError(
                        f"checkpoint {self.path} was written by a different run "
                        f"configuration (fingerprint {document.get('fingerprint')!r} != "
                        f"{self.fingerprint!r}); refusing to resume — delete the file "
                        "or rerun without --resume"
                    )
                continue
            if isinstance(document, dict) and "key" in document:
                records[str(document["key"])] = document
        if not records and lines and json.loads(lines[0]).get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"{self.path} is not a repro job checkpoint")
        return records

    # ------------------------------------------------------------------ #
    def record(self, result: JobResult) -> None:
        """Append one finished job and flush it to stable storage."""
        if self._handle is None:
            raise CheckpointError("checkpoint is not open; call begin() first")
        document = {
            "key": result.key,
            "ok": result.ok,
            "error": result.error,
            "wall_s": result.wall_s,
            "cpu_s": result.cpu_s,
            "seed": result.seed,
            "attempts": result.attempts,
            "timeouts": result.timeouts,
        }
        if result.ok:
            document["value"] = result.value
        try:
            line = json.dumps(document, sort_keys=True, default=_reject_non_json)
        except TypeError as exc:
            raise CheckpointError(
                f"job {result.key!r} returned a value that is not JSON-serializable "
                f"and cannot be checkpointed: {exc}"
            ) from exc
        self._handle.write(line + "\n")
        self._write_flush()

    def _write_line(self, document: dict) -> None:
        assert self._handle is not None
        self._handle.write(json.dumps(document, sort_keys=True) + "\n")
        self._write_flush()

    def _write_flush(self) -> None:
        assert self._handle is not None
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Flush and close the log (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JobCheckpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _reject_non_json(obj: object) -> object:
    raise TypeError(f"object of type {type(obj).__name__} is not JSON serializable")


class SearchCheckpoint:
    """Atomic JSON snapshot of an iterative search's current state.

    ``save`` writes the whole state document to a temp file and
    ``os.replace``s it over the target, so the file on disk is always a
    complete, parseable snapshot — a crash never leaves a torn state.
    """

    def __init__(self, path: str | os.PathLike, meta: Mapping | None = None) -> None:
        self.path = Path(path)
        self.meta = dict(meta or {})
        self.fingerprint = _fingerprint(self.meta)

    def save(self, state: Mapping) -> None:
        """Atomically persist ``state`` (a JSON-serializable mapping)."""
        document = {
            "format": CHECKPOINT_FORMAT,
            "fingerprint": self.fingerprint,
            "meta": self.meta,
            "state": dict(state),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    def load(self) -> dict | None:
        """The last saved state, or ``None`` when no snapshot exists."""
        if not self.path.exists():
            return None
        try:
            document = json.loads(self.path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"search checkpoint {self.path} is not valid JSON: {exc}"
            ) from exc
        if (
            document.get("format") != CHECKPOINT_FORMAT
            or document.get("fingerprint") != self.fingerprint
        ):
            raise CheckpointError(
                f"search checkpoint {self.path} belongs to a different run configuration; "
                "delete it or rerun without --resume"
            )
        return dict(document.get("state") or {})

    def clear(self) -> None:
        """Remove the snapshot (after the search completes cleanly)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
