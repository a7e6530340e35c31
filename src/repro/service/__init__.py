"""Resident analysis service: long-lived sessions and the
``repro serve`` front end.

The one-shot pipeline (:func:`repro.api.analyze`) returns its results
and keeps nothing.  This package keeps the analysis *resident*:

* :class:`repro.service.session.AnalysisSession` — function texts,
  module, points-to sets, VFG, Γ and plan held between requests;
  :meth:`~repro.service.session.AnalysisSession.update` replaces one
  function body, re-analyzes the module cold and commits the new
  generation only if every step succeeds, so results are bit-identical
  to a cold :func:`~repro.api.analyze` and a rejected edit changes
  nothing.
* :func:`repro.service.server.serve` — the localhost HTTP/JSON server
  behind ``repro serve`` (``open`` / ``update`` / ``query_sites`` /
  ``explain`` / ``stats``), with sessions cached per source digest.
"""

from repro.service.session import AnalysisSession, UpdateStats, plan_signature
from repro.service.server import ServiceClient, serve

__all__ = [
    "AnalysisSession",
    "ServiceClient",
    "UpdateStats",
    "plan_signature",
    "serve",
]
