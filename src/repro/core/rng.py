"""The one shared RNG-normalisation helper.

Almost every randomised component of the library accepts the same loose
``rng`` argument — an integer seed, an existing :class:`numpy.random.Generator`
to be used as-is, or ``None`` for OS entropy — and historically each module
carried its own private ``_as_rng`` copy of the normalisation.  This module
owns the single canonical version; everything (simulators, engines, graph
generators, adversaries, schedules, statistics) imports it from here.

It lives in :mod:`repro.core` because the core package only depends on
:mod:`repro.errors`, so any other package can import it without creating an
import cycle.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

#: What callers may pass wherever a generator is needed: an integer seed, a
#: prebuilt generator (used as-is), or ``None`` (OS entropy).
RngLike = Union[int, np.random.Generator, None]


def as_rng(rng: RngLike) -> np.random.Generator:
    """Normalise a seed / generator / ``None`` into a :class:`numpy.random.Generator`.

    An existing generator is returned unchanged (its stream keeps advancing
    in place); anything else is handed to :func:`numpy.random.default_rng`.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def seed_provenance(rng: object) -> Optional[int]:
    """The integer seed a run records as provenance, or ``None``.

    Python and numpy integers both count as seeds (``np.int64(5)`` records
    ``5``); generators, ``None`` and anything else record ``None``.  Every
    engine, single-seed or batched, records ``seed`` through this helper, so
    the same argument yields the same provenance on every path.
    """
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return None
