"""Content-digest cache for explored verification verdicts.

Verifying the full REGISTRY+VARIANTS universe re-explores identical
models on every run; a warm `repro verify` should be near-instant
(CI enforces <2s in ``benchmarks/test_bench_verify.py``).  The cache is
a :class:`repro.store.ContentStore` whose *generation* directory is
salted by a content digest over every package whose source determines
the verdict (``mplib`` models, ``verify`` itself, the shared ``check``
extraction layer, ``faults`` wire semantics, the ``net``/``sim``
replay substrate).  Inside a generation, entries are keyed by a SHA-256
over the canonicalized exploration request (library name, spec
contents, sizes, hop bound, fault sweep flag).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.store import ContentStore


def entry_key(
    library: str,
    spec: object,
    sizes: tuple[int, ...],
    hop_bound: int,
    check_faults: bool,
    *,
    with_replay: bool = True,
) -> str:
    """Content key of one exploration request.

    ``with_replay`` is part of the key because it shapes the stored
    verdict: counterexamples found with replay confirmation carry
    engine traces that a replay-less exploration does not, and a
    cached replay-less verdict must never satisfy a caller asking for
    confirmed ones.
    """
    from repro.exec.fingerprint import canonicalize

    blob = canonicalize({
        "library": library,
        "spec": spec,
        "sizes": list(sizes),
        "hop_bound": hop_bound,
        "check_faults": check_faults,
        "with_replay": with_replay,
    })
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class VerdictCache(ContentStore):
    """On-disk JSON store of per-(library, spec, sizes) verdicts."""

    version = "repro-verify-v1"
    #: Source packages whose content invalidates cached verdicts.
    salt_packages = ("mplib", "verify", "check", "faults", "net", "sim")

    @staticmethod
    def _decode(payload: bytes) -> dict:
        data = json.loads(payload)
        if not isinstance(data, dict):
            raise ValueError("a verdict entry must be a JSON object")
        return data

    def get(self, key: str) -> dict | None:
        return self.read(key, self._decode)

    def put(self, key: str, verdict: dict) -> Path | None:
        payload = json.dumps(verdict, separators=(",", ":"))
        return self.write(key, payload.encode())
