"""The persistent tuning database: best known configurations per program.

A database is one JSON document with the same envelope discipline as the
disk cache and the bench reports — a ``kind`` marker plus a
``schema_version`` guarding every reader:

.. code-block:: json

    {
      "schema_version": 1,
      "kind": "hexcc-tuning-db",
      "entries": {
        "<digest>/<device>/<strategy>/<objective>": {
          "program": "heat_3d", "sizes": [384, 384, 384], "steps": 128,
          "digest": "<sha256 of the program content>",
          "device": "GTX 470", "strategy": "random",
          "objective": "model", "seed": 0, "budget": 32,
          "evaluations": 33, "failures": 0, "space_size": 1065,
          "best": {"height": 0, "widths": [6, 7, 64],
                   "score": 0.9094933150459805},
          "baseline": {"height": 3, "widths": [5, 12, 32],
                       "score": 1.260777649049541}
        }
      }
    }

Entries are keyed by **(program content digest, device, strategy,
objective)**.  The tuner writes only ``model`` entries, scored by the
analysis pass's roofline time; ``--tuned`` applies nothing else, so an
entry of a retired objective (``simulate``, ``counters``) in an older user
database is listed by ``tune-table`` but never applied.  The score is
deterministic and entries contain no timestamps or environment data, so an
identical ``(seed, budget)`` sweep reproduces a byte-identical entry on any
machine — the property the committed baseline's regeneration test pins.
Writes are atomic (temp file + ``os.replace``); a corrupt or foreign file
reads as empty, never fatal.

Database resolution for ``--tuned`` (first hit wins):

1. an explicit path (``--tuning-db`` / the ``db`` argument);
2. ``$HEXCC_TUNING_DB``;
3. the user database ``<cache dir>/tuning.json`` (if present);
4. the committed baseline shipped with the package
   (``repro/tuning/TUNING_baseline.json``).
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from collections.abc import Iterator, Mapping
from typing import Any

from repro.cache.disk import default_cache_dir

SCHEMA_VERSION = 1
DB_KIND = "hexcc-tuning-db"

#: Environment variable overriding the database location.
TUNING_DB_ENV = "HEXCC_TUNING_DB"

#: The objective the tuner records and ``--tuned`` applies; entries of any
#: other objective are listed by ``tune-table`` but never applied.
OBJECTIVE = "model"


def default_db_path() -> Path:
    """The user's writable tuning database (next to the artefact cache)."""
    override = os.environ.get(TUNING_DB_ENV)
    if override:
        return Path(override)
    return default_cache_dir() / "tuning.json"


def baseline_db_path() -> Path:
    """The committed baseline database shipped inside the package."""
    return Path(__file__).resolve().parent / "TUNING_baseline.json"


def resolve_db_path(explicit: str | Path | None = None) -> Path:
    """The database ``--tuned`` should read (see the module docstring)."""
    if explicit is not None:
        return Path(explicit)
    override = os.environ.get(TUNING_DB_ENV)
    if override:
        return Path(override)
    user_db = default_cache_dir() / "tuning.json"
    if user_db.is_file():
        return user_db
    return baseline_db_path()


def entry_key(digest: str, device: str, strategy: str, objective: str) -> str:
    """The entries-map key of one (program, device, strategy, objective)."""
    return f"{digest}/{device}/{strategy}/{objective}"


def _entry_is_usable(entry: Any) -> bool:
    """Whether a loaded entry has everything ``--tuned`` resolution touches.

    The database is advisory: a hand-edited or foreign entry must be dropped
    at load time, never crash ``Session.run(tuned=True)`` later.  So is an
    entry whose best carries a thread-block shape: its score was computed
    for a launch the pipeline no longer emits.
    """
    if not isinstance(entry, Mapping):
        return False
    for field in ("digest", "device", "strategy", "objective"):
        if not isinstance(entry.get(field), str):
            return False
    best = entry.get("best")
    if not isinstance(best, Mapping) or best.get("threads") is not None:
        return False
    try:
        float(best.get("score", float("inf")))
        int(best["height"])
        widths = [int(w) for w in best["widths"]]
    except (KeyError, TypeError, ValueError):
        return False
    return bool(widths)


class TuningDatabase:
    """An in-memory view of one tuning database file.

    ``load`` tolerates a missing, corrupt or foreign file (the database is
    advisory — worst case the model-selected sizes are used); ``save`` always
    writes a valid, sorted, schema-versioned document atomically.
    """

    def __init__(self, entries: dict[str, dict[str, Any]] | None = None) -> None:
        self.entries: dict[str, dict[str, Any]] = dict(entries or {})

    # -- IO -----------------------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path | None = None) -> "TuningDatabase":
        """Read a database; missing/corrupt/stale files read as empty."""
        location = resolve_db_path(path)
        try:
            raw = json.loads(Path(location).read_text())
        except (OSError, ValueError):
            return cls()
        if (
            not isinstance(raw, Mapping)
            or raw.get("kind") != DB_KIND
            or raw.get("schema_version") != SCHEMA_VERSION
            or not isinstance(raw.get("entries"), Mapping)
        ):
            return cls()
        entries = {
            str(key): dict(value)
            for key, value in raw["entries"].items()
            if _entry_is_usable(value)
        }
        return cls(entries)

    def save(self, path: str | Path) -> Path:
        """Atomically write the database (sorted keys, trailing newline)."""
        destination = Path(path)
        destination.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "schema_version": SCHEMA_VERSION,
            "kind": DB_KIND,
            "entries": self.entries,
        }
        blob = json.dumps(document, indent=2, sort_keys=True) + "\n"
        descriptor, temp_name = tempfile.mkstemp(
            dir=destination.parent, prefix=".tuning-", suffix=".json"
        )
        try:
            with os.fdopen(descriptor, "w") as handle:
                handle.write(blob)
            os.replace(temp_name, destination)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp_name)
            raise
        return destination

    # -- entries ------------------------------------------------------------------

    def record(self, entry: Mapping[str, Any]) -> str:
        """Insert (or overwrite) one entry; returns its key."""
        for field in ("digest", "device", "strategy", "objective", "best"):
            if field not in entry:
                raise ValueError(f"tuning entry lacks the {field!r} field")
        key = entry_key(
            entry["digest"], entry["device"], entry["strategy"], entry["objective"]
        )
        self.entries[key] = dict(entry)
        return key

    def get(
        self, digest: str, device: str, strategy: str, objective: str
    ) -> dict[str, Any] | None:
        """The entry of one exact (digest, device, strategy, objective) key."""
        return self.entries.get(entry_key(digest, device, strategy, objective))

    def entries_for(self, digest: str, device: str) -> list[dict[str, Any]]:
        """Every entry of one (program, device) pair, in key order."""
        prefix = f"{digest}/{device}/"
        return [
            self.entries[key] for key in sorted(self.entries) if key.startswith(prefix)
        ]

    def best_for(self, digest: str, device: str) -> dict[str, Any] | None:
        """The entry ``--tuned`` should apply for one (program, device).

        Only :data:`OBJECTIVE` entries apply: the lowest best score wins,
        and ties break on the strategy name.  ``None`` when there is none.
        """
        group = [
            entry
            for entry in self.entries_for(digest, device)
            if entry.get("objective") == OBJECTIVE
        ]
        if not group:
            return None
        return min(
            group,
            key=lambda e: (
                float(e["best"].get("score", float("inf"))),
                str(e.get("strategy", "")),
            ),
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.entries.values())

    def __repr__(self) -> str:
        return f"TuningDatabase({len(self.entries)} entries)"
