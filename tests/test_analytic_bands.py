"""Analytic-tier validation: every servable pair is engine-certified.

The closed-form tier may only answer for (library × config) pairs whose
agreement with the event engine has been measured and pinned as a
:class:`~repro.analytic.bands.ToleranceBand` in the packaged
``src/repro/analytic/bands.json``.  This module is that certification,
over the figure 1-5 pairs and every pair ``repro serve`` can be asked
about in its own vocabulary (:func:`servable_pairs`):

* every such pair must hold a pinned band under the *current* model
  code (the band fingerprint folds in the derived code salt, so any
  timing-model edit un-pins every band), and
* re-measuring each pair — engine as oracle, analytic as candidate —
  must stay within its pinned tolerance at every schedule size and at
  the protocol-boundary sizes.

After an intentional model change, re-pin with:

    PYTHONPATH=src python tests/test_analytic_bands.py --regen

and review the bands.json diff alongside the golden-curve diff.  See
docs/TESTING.md.
"""

from collections import deque

import pytest

from repro.analytic import (
    BandStore,
    band_fingerprint,
    default_band_store,
    measure_band,
    mint_bands,
    supports,
)
from repro.analytic.bands import DEFAULT_BANDS_PATH, TOLERANCE_FLOOR
from repro.experiments import ALL_FIGURES

pytestmark = pytest.mark.analytic

REGEN_HINT = (
    "If the model change is intentional, re-pin with:\n"
    "    PYTHONPATH=src python tests/test_analytic_bands.py --regen\n"
    "and include the bands.json diff in the review."
)


def figure_pairs() -> list[tuple[str, object, object]]:
    """Every unique (library, config) pair of figures 1-5.

    Deduplicated by band fingerprint: figures share entries (fig1's raw
    TCP on the GA620 is fig4's), and one band certifies the pair no
    matter how many curves draw on it.
    """
    pairs = []
    seen: set[str] = set()
    for fig in ALL_FIGURES:
        for entry in fig.entries:
            fp = band_fingerprint(entry.library, entry.config)
            if fp not in seen:
                seen.add(fp)
                pairs.append(
                    (f"{fig.id}:{entry.label}", entry.library, entry.config)
                )
    return pairs


def servable_pairs() -> list[tuple[str, object, object]]:
    """Every (library, config) pair serve's own vocabulary produces.

    The keys are every registry or variant library × every config
    factory × ``tuned`` None/False/True at the config's default MTU.
    Each key adds the neighbours speculation warms after answering it
    (:func:`repro.serve.speculate.neighbor_queries`, default depth), and
    theirs in turn: a warmed answer speculates too, and its neighbours
    include pairs no key names (an explicit MTU 1500 is a different
    config from the factory's default MTU).  A pair the library cannot
    build (GM on Ethernet, M-VIA on Myrinet) is left out.  Deduplicated
    by band fingerprint, first name wins.
    """
    from repro.experiments.names import config_names
    from repro.mplib.registry import REGISTRY, VARIANTS
    from repro.serve.api import BadRequestError, ServeQuery
    from repro.serve.speculate import neighbor_queries
    from repro.sim import Engine

    pairs = []
    seen: set[str] = set()
    asked: set = set()
    for library in sorted({**REGISTRY, **VARIANTS}):
        for config in config_names():
            queue = deque(
                ServeQuery(library=library, config=config, tuned=tuned)
                for tuned in (None, False, True)
            )
            while queue:
                query = queue.popleft()
                if query in asked:
                    continue
                asked.add(query)
                try:
                    request = query.resolve()
                    request.library.build(Engine(), request.config)
                except (BadRequestError, ValueError):
                    continue
                queue.extend(neighbor_queries(query, 3))
                fp = band_fingerprint(request.library, request.config)
                if fp not in seen:
                    seen.add(fp)
                    pairs.append((_query_name(query), request.library,
                                  request.config))
    return pairs


def _query_name(query) -> str:
    tunables = "".join(
        f" {name}={getattr(query, name)}" for name in ("tuned", "mtu")
        if getattr(query, name) is not None
    )
    return f"{query.library}@{query.config}{tunables}"


def certified_pairs() -> list[tuple[str, object, object]]:
    """The figure pairs, then every further servable pair: what
    ``--regen`` pins, deduplicated by band fingerprint."""
    pairs = figure_pairs()
    seen = {band_fingerprint(lib, cfg) for _, lib, cfg in pairs}
    for name, lib, cfg in servable_pairs():
        fp = band_fingerprint(lib, cfg)
        if fp not in seen:
            seen.add(fp)
            pairs.append((name, lib, cfg))
    return pairs


PAIRS = figure_pairs()


def test_every_figure_pair_is_supported():
    # The analytic tier must cover the full paper surface: a figure
    # entry the closed form cannot express would silently demote every
    # tier="auto" run of that figure to simulation.
    unsupported = [name for name, lib, _ in PAIRS if not supports(lib)]
    assert not unsupported, f"no closed-form model for: {unsupported}"


def test_every_figure_pair_has_a_pinned_band():
    store = default_band_store()
    missing = [
        name
        for name, lib, cfg in PAIRS
        if store.lookup(lib, cfg) is None
    ]
    assert not missing, (
        "bands.json holds no band (under the current code salt) for:\n  "
        + "\n  ".join(missing)
        + "\n"
        + REGEN_HINT
    )


def test_every_servable_pair_holds_a_band_at_the_floor():
    # One pass over everything bands.json pins: every certified pair
    # holds a band at the float-noise floor, re-measured over the
    # default schedule and the protocol-boundary sizes, and the file
    # pins nothing else.  Every offender is listed, not just the first.
    from repro.core.sizes import netpipe_sizes
    from tests.test_analytic import BOUNDARY_SIZES

    store = default_band_store()
    sizes = sorted(set(netpipe_sizes()) | set(BOUNDARY_SIZES))
    offenders = []
    certified = set()
    for name, lib, cfg in certified_pairs():
        certified.add(band_fingerprint(lib, cfg))
        band = store.lookup(lib, cfg)
        if band is None:
            offenders.append(f"{name}: no pinned band")
            continue
        if band.rel_tol > TOLERANCE_FLOOR:
            offenders.append(f"{name}: pinned at {band.rel_tol:.3e}")
        fresh = measure_band(lib, cfg, sizes=sizes)
        if fresh.max_rel_err > band.rel_tol:
            offenders.append(
                f"{name}: worst relative error {fresh.max_rel_err:.3e} "
                f"exceeds {band.rel_tol:.3e}"
            )
    orphans = sorted(
        f"{band.library} / {band.config}"
        for fp, band in store.bands.items() if fp not in certified
    )
    offenders.extend(f"{name}: pinned but not certified" for name in orphans)
    assert not offenders, (
        "bands.json disagrees with the servable universe:\n  "
        + "\n  ".join(offenders) + "\n" + REGEN_HINT
    )


@pytest.mark.parametrize(
    "name,library,config", PAIRS, ids=[name for name, _, _ in PAIRS]
)
def test_analytic_agrees_with_engine_within_pinned_band(
    name, library, config
):
    # The acceptance check itself: engine as oracle, closed form as
    # candidate, every point of the default schedule within tolerance.
    store = default_band_store()
    pinned = store.lookup(library, config)
    if pinned is None:
        pytest.fail(f"{name} has no pinned band.\n{REGEN_HINT}")
    fresh = measure_band(library, config)
    assert fresh.max_rel_err <= pinned.rel_tol, (
        f"{name}: worst relative error {fresh.max_rel_err:.3e} exceeds the "
        f"pinned tolerance {pinned.rel_tol:.3e}.\n{REGEN_HINT}"
    )


def test_pinned_tolerances_are_tight():
    # The two tiers sum identical terms in different association
    # orders, so every band should sit at the epsilon floor.  A band
    # pinned wider means the closed form genuinely diverged when it
    # was minted — which is a model bug, not a tolerance choice.
    store = default_band_store()
    loose = {
        f"{band.library} / {band.config}": band.rel_tol
        for band in store.bands.values()
        if band.rel_tol > TOLERANCE_FLOOR
    }
    assert not loose, f"bands wider than the float-noise floor: {loose}"


def test_band_store_roundtrips(tmp_path):
    sub = BandStore(
        {
            band_fingerprint(lib, cfg): default_band_store().lookup(lib, cfg)
            for _, lib, cfg in PAIRS[:3]
        }
    )
    path = tmp_path / "bands.json"
    sub.save(path)
    again = BandStore.load(path)
    assert again.bands == sub.bands


def test_spec_memos_never_alias_equal_but_distinct_configs():
    """MTU 9000 and 9000.0 give configs that compare (and hash) equal
    but canonicalize apart.  On one library object, each memoized band
    fingerprint and compiled predictor must be the one a fresh
    computation gives for *that* config, whatever was asked first."""
    import gc

    from repro.analytic import bands as bands_module
    from repro.analytic import model as model_module
    from repro.experiments.configs import pc_syskonnect
    from repro.mplib.registry import REGISTRY

    library = REGISTRY["mpich"]()
    as_int = pc_syskonnect().with_mtu(9000)
    as_float = pc_syskonnect().with_mtu(9000.0)
    assert as_int == as_float and hash(as_int) == hash(as_float)

    memoed = [band_fingerprint(library, cfg) for cfg in (as_int, as_float)]
    compiled = [model_module._predictor(library, cfg)
                for cfg in (as_int, as_float)]
    bands_module._FP_MEMO.clear()
    model_module._PREDICTORS.clear()
    fresh = [band_fingerprint(library, cfg) for cfg in (as_float, as_int)]
    assert memoed == fresh[::-1]
    assert memoed[0] != memoed[1]
    assert compiled[0] is not compiled[1]

    # Entries die with their objects: a recycled id cannot alias.
    before = len(bands_module._FP_MEMO)
    del as_int, as_float
    gc.collect()
    assert len(bands_module._FP_MEMO) == before - 2


def _regen() -> None:
    """Re-measure every certified pair and rewrite the packaged bands."""
    import time

    t0 = time.perf_counter()
    store = mint_bands((lib, cfg) for _, lib, cfg in certified_pairs())
    store.save(DEFAULT_BANDS_PATH)
    worst = max(b.max_rel_err for b in store.bands.values())
    print(
        f"pinned {len(store)} bands into {DEFAULT_BANDS_PATH} "
        f"({DEFAULT_BANDS_PATH.stat().st_size} bytes, worst observed rel "
        f"err {worst:.3e}) in {time.perf_counter() - t0:.1f} s"
    )


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
        sys.exit(2)
