"""Content-addressed on-disk cache for NetPIPE sweep results.

Entries live at ``<root>/<aa>/<fingerprint>.json`` and hold the JSON
documents :mod:`repro.core.io` writes for baselines, so ordinary tooling
can inspect them or diff them against a live run.  They are written
compact (no indent, no spaces): ``json.dumps`` with ``indent`` runs the
pure-Python encoder, which costs more than computing an analytic curve.
Reads accept any JSON layout, so indented entries written earlier stay
hits.  The semantics are :mod:`repro.store`'s; the fingerprint already
folds in the code salt, so there is no generation directory.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.io import result_from_dict, result_to_dict
from repro.core.results import NetPipeResult
from repro.store import ContentStore

#: Environment variable naming a default cache directory.  When set,
#: the experiment harness caches sweeps there without code changes.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE"


class SweepCache(ContentStore):
    """A directory of fingerprint-addressed NetPIPE curves."""

    #: Environment variable :meth:`from_env` reads the root from.
    env_var = CACHE_DIR_ENV

    @classmethod
    def from_env(cls) -> "SweepCache | None":
        """A store at ``$<env_var>``, or None when unset or empty."""
        # repro: allow[det-env] picks where entries live, never what
        # they hold: content addressing keeps them location-independent.
        root = os.environ.get(cls.env_var, "").strip()
        return cls(root) if root else None

    @staticmethod
    def _decode(payload: bytes) -> NetPipeResult:
        return result_from_dict(json.loads(payload))

    def get(self, fingerprint: str) -> NetPipeResult | None:
        return self.read(fingerprint, self._decode)

    def put(self, fingerprint: str, result: NetPipeResult) -> Path | None:
        payload = json.dumps(result_to_dict(result), separators=(",", ":"))
        return self.write(fingerprint, payload.encode())
