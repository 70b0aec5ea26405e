"""The analytic fast tier: closed-form NetPIPE curves, engine-validated.

Two halves:

* :mod:`repro.analytic.model` — vectorized closed-form one-way-time
  prediction for every shipped library family, built from the same
  HW/protocol specs the event engine consumes
  (:func:`predict_oneway_times`, :func:`predict_sweep`);
* :mod:`repro.analytic.bands` — per-(library × config) tolerance bands
  minted by running both tiers and pinning their worst disagreement
  (:class:`BandStore`, :func:`measure_band`), which is what
  ``execute_sweeps(tier="auto")`` consults before trusting the
  closed form.

The speedup (three orders of magnitude per sweep; measured table in
docs/PERFORMANCE.md) comes from replacing thousands of scheduled events
with a handful of numpy array operations over the whole size schedule.
"""

from repro.analytic.bands import (
    ANALYTIC_CACHE_SALT,
    BANDS_ENV,
    BandStore,
    ToleranceBand,
    analytic_cache_salt,
    band_fingerprint,
    default_band_store,
    measure_band,
    mint_bands,
)
from repro.analytic.model import (
    AnalyticUnsupported,
    predict_oneway_times,
    predict_sweep,
    supports,
)

__all__ = [
    "ANALYTIC_CACHE_SALT",
    "AnalyticUnsupported",
    "BANDS_ENV",
    "BandStore",
    "ToleranceBand",
    "analytic_cache_salt",
    "band_fingerprint",
    "default_band_store",
    "measure_band",
    "mint_bands",
    "predict_oneway_times",
    "predict_sweep",
    "supports",
]
