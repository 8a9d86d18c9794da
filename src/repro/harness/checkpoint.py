"""Append-only JSONL checkpoint journals for seed-ensemble sweeps.

One journal file per ``(experiment, config digest)`` pair.  The first line is
a header record describing the run; every subsequent line records the final
outcome of one seed: either a pickled-and-base64'd payload (success) or a
structured failure.  Records carry a SHA-256 of the payload so corruption is
detected on replay rather than silently merged into results.

Durability model:

* the journal file is *created* atomically — header written to a temp file
  in the same directory, fsynced, then ``os.replace``\\ d into place — so a
  crash during creation can never leave a half-written header;
* appends are flushed and fsynced per record, so at most the final record
  can be lost to a crash;
* replay tolerates a truncated or garbled trailing line (the one a SIGKILL
  can produce mid-append) by skipping records that do not parse or whose
  digest does not match; every earlier record is still recovered.

Per-seed results depend only on ``(seed, per-seed configuration)``, never on
the ensemble size, so the digest deliberately excludes ``trees`` and
``base_seed``: resuming with a *larger* ensemble reuses every overlapping
seed already journaled.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import tempfile
from typing import Any, Dict, IO, Optional, Tuple

from .._digest import sha256
from ..errors import ExperimentError

__all__ = ["CheckpointStore", "SeedJournal", "config_digest",
           "atomic_write_text"]

SCHEMA_VERSION = 1


def config_digest(*parts: Any) -> str:
    """Stable hex digest of an experiment configuration.

    ``parts`` may be any values with deterministic ``repr`` (dataclasses,
    tuples, primitives).  Two runs share a journal iff their digests match.

    Workload/Application reprs fold their arrival-process and admission
    specs in (only when set — the stable-repr contract), so an open-loop
    sweep can never resume into a closed-bag journal or vice versa, and
    pre-service-mode journals keep their digests.
    """
    blob = "\x1f".join(repr(part) for part in parts)
    return sha256(blob.encode("utf-8")).hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically: tmp file + fsync + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory,
                                    prefix=os.path.basename(path) + ".",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    # Make the rename itself durable.
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _payload_encode(value: Any) -> Tuple[str, str]:
    """Pickle → (base64 text, sha256 of the pickle)."""
    blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return (base64.b64encode(blob).decode("ascii"),
            sha256(blob).hexdigest())


def _payload_decode(text: str, expected_sha: str) -> Any:
    blob = base64.b64decode(text.encode("ascii"))
    if sha256(blob).hexdigest() != expected_sha:
        raise ValueError("payload digest mismatch")
    return pickle.loads(blob)


class SeedJournal:
    """One experiment's append-only per-seed result journal."""

    def __init__(self, path: str, experiment: str, digest: str,
                 meta: Optional[Dict[str, Any]] = None, *,
                 resume: bool = False):
        self.path = path
        self.experiment = experiment
        self.digest = digest
        #: seed → replayed payload (successes found on disk at open time).
        self.replayed: Dict[int, Any] = {}
        #: seed → (attempts, kind, error) for failures found on disk.
        self.replayed_failures: Dict[int, Tuple[int, str, str]] = {}
        self._handle: Optional[IO[str]] = None

        if resume and os.path.exists(path):
            self._replay()
        else:
            header = {
                "kind": "header",
                "schema": SCHEMA_VERSION,
                "experiment": experiment,
                "config_digest": digest,
                "meta": meta or {},
            }
            atomic_write_text(path, json.dumps(header, sort_keys=True) + "\n")
        self._handle = open(path, "a", encoding="utf-8")

    # ------------------------------------------------------------- replay
    def _replay(self) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            raise ExperimentError(
                f"checkpoint journal {self.path} is empty; delete it or run "
                "without --resume")
        try:
            header = json.loads(lines[0])
        except ValueError:
            raise ExperimentError(
                f"checkpoint journal {self.path} has a corrupt header; "
                "delete it or run without --resume") from None
        if header.get("kind") != "header":
            raise ExperimentError(
                f"checkpoint journal {self.path} does not start with a "
                "header record")
        if header.get("schema") != SCHEMA_VERSION:
            raise ExperimentError(
                f"checkpoint journal {self.path} uses schema "
                f"{header.get('schema')}, expected {SCHEMA_VERSION}")
        if header.get("config_digest") != self.digest:
            raise ExperimentError(
                f"checkpoint journal {self.path} was written by a different "
                f"configuration (digest {header.get('config_digest')!r} != "
                f"{self.digest!r}); use a fresh --checkpoint-dir or drop "
                "--resume")
        for line in lines[1:]:
            # Tolerate the torn trailing record a SIGKILL mid-append leaves.
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict) or "seed" not in record:
                continue
            seed = record["seed"]
            status = record.get("status")
            if status == "ok":
                try:
                    value = _payload_decode(record["payload"], record["sha"])
                except (KeyError, ValueError, pickle.UnpicklingError):
                    continue
                self.replayed[seed] = value
                self.replayed_failures.pop(seed, None)
            elif status == "failed":
                self.replayed_failures[seed] = (
                    record.get("attempts", 1),
                    record.get("failure_kind", "exception"),
                    record.get("error", ""))

    # ------------------------------------------------------------ appends
    def _append(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            raise ExperimentError("journal is closed")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record_success(self, seed: int, value: Any, attempts: int) -> None:
        payload, sha = _payload_encode(value)
        self._append({"seed": seed, "status": "ok", "attempts": attempts,
                      "payload": payload, "sha": sha})

    def record_failure(self, seed: int, attempts: int, kind: str,
                       error: str) -> None:
        self._append({"seed": seed, "status": "failed", "attempts": attempts,
                      "failure_kind": kind, "error": error})

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SeedJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CheckpointStore:
    """Directory of :class:`SeedJournal` files, one per experiment+config."""

    def __init__(self, directory: str):
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)

    def journal_path(self, experiment: str, digest: str) -> str:
        # One file per experiment (the digest lives in the header, not the
        # name): resuming after a config change then fails loudly with
        # "written by a different configuration" instead of silently
        # starting a fresh, empty journal beside the old one.
        del digest
        return os.path.join(self.directory, f"{experiment}.jsonl")

    def open_journal(self, experiment: str, digest: str, *,
                     resume: bool = False,
                     meta: Optional[Dict[str, Any]] = None) -> SeedJournal:
        """Open (resuming) or atomically create (fresh) a journal."""
        return SeedJournal(self.journal_path(experiment, digest),
                           experiment, digest, meta, resume=resume)
