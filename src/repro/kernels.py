"""Hot-path kernel switches: LUT densities and the constraint-field cache.

Two science kernels are worth a switch, because they are where the
Bayes update spends its time and each changes *how* a result is computed:

- ``lut_pdf`` (:class:`~repro.core.pdf_table.PdfTable`) quantizes the
  distance axis, so it is *tolerance-identical*: per-figure metrics stay
  within 0.1 % relative of the exact path (pinned by a test).  Runs that
  need byte-equality against historical results disable it.
- ``constraint_cache``
  (:class:`~repro.core.constraint_cache.ConstraintFieldCache`) shares
  per-beacon constraint fields between robots with identical grids.  It
  is **bit-identical** to recomputing them: same float operations,
  byte-equal results.

Everything else on the hot path (the event queue, coalesced frame
delivery, the structure-of-arrays world state) has one implementation and
no switch.  Pinned golden digests of the science payload
(``tests/data/golden_digests.json``) prove the byte-exact selections
against historical results.

The kernel selection deliberately lives **outside**
:class:`~repro.core.config.CoCoAConfig`: like telemetry, kernels never
change what a scenario *is*, so they must not change orchestrator cache
fingerprints.  Resolution order for a run's kernels:

1. an explicit ``kernels=`` argument to :class:`~repro.core.team.CoCoATeam`,
2. a process-local override installed with :func:`use_kernels` /
   :func:`set_default_kernels` (tests, benchmarks),
3. the ``REPRO_KERNELS`` environment variable (``on`` / ``off`` /
   ``bitexact``), which also reaches process-pool workers because
   children inherit the environment,
4. :data:`KERNELS_ON` (the default: everything enabled).

``off`` selects :data:`KERNELS_OFF` (LUT and cache off); ``bitexact``
selects :data:`KERNELS_BITEXACT` — the bit-identical cache on, the
tolerance-identical LUT off — for runs that want the speed but must stay
byte-equal to the exact path.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "KernelConfig",
    "KERNELS_ON",
    "KERNELS_OFF",
    "KERNELS_BITEXACT",
    "default_kernels",
    "resolve_kernels",
    "set_default_kernels",
    "use_kernels",
]

#: Environment variable consulted when no explicit/process-local override
#: is installed.  ``off`` selects :data:`KERNELS_OFF`, ``bitexact``
#: selects :data:`KERNELS_BITEXACT`; anything else (or unset) selects
#: :data:`KERNELS_ON`.
KERNELS_ENV_VAR = "REPRO_KERNELS"


@dataclass(frozen=True)
class KernelConfig:
    """Which hot-path kernels a run uses.

    Attributes:
        lut_pdf: evaluate RSSI-bin densities through a precomputed
            distance lookup table (tolerance-identical; < 0.1 % on
            figure metrics).
        lut_entries: LUT resolution (nodes over twice the table support).
        constraint_cache: share per-beacon constraint fields between
            robots with identical grids (bit-identical).
        cache_capacity: LRU capacity, in constraint fields, of the
            shared cache.
    """

    lut_pdf: bool = True
    lut_entries: int = 16384
    constraint_cache: bool = True
    cache_capacity: int = 128

    def __post_init__(self) -> None:
        if self.lut_entries < 2:
            raise ValueError(
                "lut_entries must be >= 2, got %r" % self.lut_entries
            )
        if self.cache_capacity < 1:
            raise ValueError(
                "cache_capacity must be >= 1, got %r" % self.cache_capacity
            )


#: Every kernel enabled — the default for new runs.
KERNELS_ON = KernelConfig()
#: Every kernel disabled: exact densities, no constraint-field sharing.
KERNELS_OFF = KernelConfig(lut_pdf=False, constraint_cache=False)
#: The bit-identical cache on, the tolerance-identical LUT off: runs
#: under this selection are byte-equal to :data:`KERNELS_OFF` runs.
KERNELS_BITEXACT = KernelConfig(lut_pdf=False)

_process_override: Optional[KernelConfig] = None


def default_kernels() -> KernelConfig:
    """The kernels a run gets when none are passed explicitly."""
    if _process_override is not None:
        return _process_override
    value = os.environ.get(KERNELS_ENV_VAR, "on").strip().lower()
    if value == "off":
        return KERNELS_OFF
    if value == "bitexact":
        return KERNELS_BITEXACT
    return KERNELS_ON


def resolve_kernels(kernels: Optional[KernelConfig]) -> KernelConfig:
    """Resolve an optional explicit selection against the defaults."""
    return kernels if kernels is not None else default_kernels()


def set_default_kernels(kernels: Optional[KernelConfig]) -> None:
    """Install (or with ``None`` clear) the process-local default."""
    global _process_override
    _process_override = kernels


@contextmanager
def use_kernels(kernels: Optional[KernelConfig]) -> Iterator[None]:
    """Temporarily override the process-local kernel default.

    Note: the override is process-local; sweeps fanned out over a
    process pool follow the ``REPRO_KERNELS`` environment variable
    instead.
    """
    global _process_override
    previous = _process_override
    _process_override = kernels
    try:
        yield
    finally:
        _process_override = previous
