"""Machine parameter bundles for BSP and LogP.

The classes validate the structural constraints the paper derives in
Section 2; in particular LogP's ``max{2, o} <= G <= L`` (each inequality is
individually motivated in the paper and individually reproduced in
``tests/logp/test_parameter_constraints.py``).

**One spelling per quantity** (see docs/ARCHITECTURE.md): both bundles
are plain frozen dataclasses whose keywords are the paper's one-letter
names.  The casing is the paper's and carries meaning — lower-case
``g``/``l`` are BSP's, upper-case ``G``/``L`` are LogP's — so
``BSPParams(G=...)`` or ``LogPParams(g=...)`` is a ``TypeError``, not a
synonym.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.errors import ParameterError
from repro.util.intmath import ceil_div

__all__ = ["BSPParams", "LogPParams"]


def _coerce_int_fields(obj, fields: tuple[str, ...]) -> None:
    """Coerce each named field to a plain ``int`` (accepting numpy ints
    and other ``__index__`` types), raising :class:`ParameterError` for
    floats, strings and anything else non-integral.

    Without this, a float or string parameter sails past the sign checks
    (``4.0 < 1`` is a fine comparison) and only explodes much later as an
    opaque ``TypeError`` deep inside the engine's ``range``/heap code.
    """
    for name in fields:
        value = getattr(obj, name)
        if isinstance(value, bool):
            raise ParameterError(f"{name} must be an integer, got bool {value!r}")
        try:
            coerced = operator.index(value)
        except TypeError:
            raise ParameterError(
                f"{name} must be an integer, got {type(value).__name__} {value!r}"
            ) from None
        # frozen dataclass: bypass the frozen __setattr__
        object.__setattr__(obj, name, int(coerced))


@dataclass(frozen=True)
class BSPParams:
    """BSP machine parameters (Section 2.1).

    A superstep with max local work ``w`` and an ``h``-relation costs
    ``w + g*h + l`` time units; the unit is the duration of one local
    operation.

    Attributes
    ----------
    p:
        Number of processors.
    g:
        Reciprocal per-processor bandwidth: for large message sets the
        medium delivers ``p`` messages every ``g`` units.
    l:
        Upper bound on barrier-synchronization time; ``g + l`` bounds the
        latency of a lone message.
    """

    p: int
    g: int
    l: int

    def __post_init__(self) -> None:
        _coerce_int_fields(self, ("p", "g", "l"))
        if self.p < 1:
            raise ParameterError(f"BSP requires p >= 1, got p={self.p}")
        if self.g < 1:
            raise ParameterError(f"BSP requires g >= 1, got g={self.g}")
        if self.l < 0:
            raise ParameterError(f"BSP requires l >= 0, got l={self.l}")

    def superstep_cost(self, w: int, h: int) -> int:
        """Cost ``w + g*h + l`` of one superstep (paper eq. (1))."""
        if w < 0 or h < 0:
            raise ParameterError(f"superstep_cost requires w,h >= 0, got w={w}, h={h}")
        return w + self.g * h + self.l


@dataclass(frozen=True)
class LogPParams:
    """LogP machine parameters (Section 2.2).

    Attributes
    ----------
    p:
        Number of processors.
    L:
        Latency: a message is delivered at most ``L`` steps after its
        acceptance by the communication medium.
    o:
        Overhead: processor time to prepare a submission or acquire a
        delivered message.
    G:
        Gap: minimum spacing between consecutive submissions, and between
        consecutive acquisitions, by the same processor.  (Upper-case to
        match the paper, which reserves lower-case ``g`` for BSP.)

    The *capacity constraint* permits at most ``ceil(L/G)`` messages in
    transit to any single destination; :attr:`capacity` exposes that bound.

    The constructor enforces the paper's constraints ``max{2, o} <= G <= L``
    unless ``unchecked=True`` is passed, which exists solely so that tests
    and the buffer-growth experiment can *exhibit* the anomalies the paper
    uses to justify the constraints.

    **LogGP extension** (Alexandrov et al., cited as [18] by the paper):
    ``Gb > 0`` enables *long messages* — a ``Send`` of ``size = n`` words
    occupies its endpoint for ``o + (n - 1) * Gb`` steps instead of ``o``,
    modeling per-word bandwidth much cheaper than per-message gap
    (``Gb <= G``).  ``Gb = 0`` is classic LogP (message size ignored).
    """

    p: int
    L: int
    o: int
    G: int
    unchecked: bool = False
    Gb: int = 0

    def __post_init__(self) -> None:
        _coerce_int_fields(self, ("p", "L", "o", "G", "Gb"))
        if self.p < 1:
            raise ParameterError(f"LogP requires p >= 1, got p={self.p}")
        if self.o < 0:
            raise ParameterError(f"LogP requires o >= 0, got o={self.o}")
        if self.L < 1 or self.G < 1:
            raise ParameterError(f"LogP requires L, G >= 1, got L={self.L}, G={self.G}")
        if self.Gb < 0:
            raise ParameterError(f"LogGP requires Gb >= 0, got Gb={self.Gb}")
        if self.unchecked:
            return
        if self.Gb > self.G:
            raise ParameterError(
                f"LogGP requires Gb <= G (per-word bandwidth is cheaper than "
                f"the per-message gap), got Gb={self.Gb} > G={self.G}"
            )
        if self.G < 2:
            raise ParameterError(
                f"LogP requires G >= 2 (with G=1 the model forces one-step delivery "
                f"to hot destinations; see Section 2.2), got G={self.G}"
            )
        if self.G < self.o:
            raise ParameterError(
                f"LogP requires G >= o (a processor spends o per message anyway), "
                f"got G={self.G} < o={self.o}"
            )
        if self.G > self.L:
            raise ParameterError(
                f"LogP requires G <= L (G > L forces unbounded input buffers; "
                f"see Section 2.2), got G={self.G} > L={self.L}"
            )

    @property
    def capacity(self) -> int:
        """Per-destination in-transit bound ``ceil(L/G)``."""
        return ceil_div(self.L, self.G)

    def matching_bsp(self, *, g: int | None = None, l: int | None = None) -> BSPParams:
        """The BSP parameter bundle with ``g = G`` and ``l = L``.

        The cross-simulation theorems are stated under ``g = Theta(G)`` and
        ``l = Theta(L)``; this helper builds the exact-match instance and
        lets callers scale either parameter to explore the general case.
        """
        return BSPParams(p=self.p, g=self.G if g is None else g, l=self.L if l is None else l)
