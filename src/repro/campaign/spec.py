"""Declarative experiment sweeps: :class:`CampaignSpec` and point keys.

The paper's claims are *sweeps* — Theorems 1–3 and Observation 1 are
bounds whose shape only emerges across grids of ``(P, g, ℓ, L, o, G)``
and topologies — so a campaign is declared, not scripted: a **target**
(a named runner from :mod:`repro.campaign.targets`), a **parameter
grid** (ordered axes, cartesian product), **seeds**, and base parameters
shared by every point.

Each grid point gets a deterministic **content-addressed key**: the
SHA-256 of the canonical JSON of ``(target, point, fingerprint)`` where
``fingerprint`` hashes the package's source tree (see
:mod:`repro.campaign.fingerprint`).  Keys are what the on-disk
:class:`~repro.campaign.store.ResultStore` indexes by, so

* rerunning an identical campaign skips every cached point,
* changing one point's parameters re-runs exactly that point, and
* changing the simulator code re-runs everything (the fingerprint is
  folded into every key).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

from repro.errors import ParameterError

__all__ = ["CampaignSpec", "canonical_json", "point_key"]


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, no whitespace, tuples as lists."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=list)


def point_key(target: str, point: dict, fingerprint: str) -> str:
    """Content-addressed identity of one grid point's computation."""
    payload = canonical_json(
        {"target": target, "point": point, "fingerprint": fingerprint}
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def _freeze(pairs) -> tuple:
    """Normalize a dict / iterable of pairs to an ordered tuple of pairs,
    with list values made tuples (specs are frozen and hashable)."""
    if isinstance(pairs, dict):
        pairs = pairs.items()
    out = []
    for name, value in pairs:
        if isinstance(value, (list, tuple)):
            value = tuple(value)
        out.append((str(name), value))
    return tuple(out)


@dataclass(frozen=True)
class CampaignSpec:
    """One declared sweep: target + grid + seeds (+ fixed base params).

    Parameters
    ----------
    name:
        Campaign identity; also the default store directory name.
    target:
        A runner id from :data:`repro.campaign.targets.TARGETS`
        (``"request"`` runs each point as a
        :class:`~repro.engine.request.RunRequest` document).
    grid:
        Ordered axes, each ``(axis_name, (value, value, ...))``; points
        are the cartesian product in axis order (later axes vary
        fastest).  A dict is accepted and frozen in insertion order.
    base:
        Fixed parameters merged under every point (a point axis with the
        same name wins).
    seeds:
        Per-point seeds; every grid combination is run once per seed
        (seed varies fastest).
    timeout_s:
        Default per-point timeout enforced by the worker pool.
    """

    name: str
    target: str
    grid: tuple[tuple[str, tuple], ...] = ()
    base: tuple[tuple[str, object], ...] = ()
    seeds: tuple[int, ...] = (0,)
    timeout_s: float | None = None
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", _freeze(self.grid))
        object.__setattr__(self, "base", _freeze(self.base))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.name:
            raise ParameterError("CampaignSpec needs a non-empty name")
        if not self.target:
            raise ParameterError("CampaignSpec needs a target")
        for axis, values in self.grid:
            if not isinstance(values, tuple) or not values:
                raise ParameterError(
                    f"CampaignSpec grid axis {axis!r} needs a non-empty "
                    f"sequence of values"
                )
        if not self.seeds:
            raise ParameterError("CampaignSpec needs at least one seed")

    # -- expansion -----------------------------------------------------

    def points(self) -> list[dict]:
        """Expand the grid: one dict per (combination, seed), in a
        deterministic order (axis order, later axes and seed fastest)."""
        axes = [values for _name, values in self.grid]
        names = [name for name, _values in self.grid]
        out = []
        for combo in itertools.product(*axes) if axes else [()]:
            for seed in self.seeds:
                point = dict(self.base)
                point.update(zip(names, combo))
                point["seed"] = seed
                out.append(point)
        return out

    def items(self, fingerprint: str) -> list[dict]:
        """The store/pool work list: ``{index, key, point}`` per point."""
        return [
            {"index": i, "key": point_key(self.target, pt, fingerprint), "point": pt}
            for i, pt in enumerate(self.points())
        ]

    def __len__(self) -> int:
        n = len(self.seeds)
        for _name, values in self.grid:
            n *= len(values)
        return n

    # -- persistence ---------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "grid": [[name, list(values)] for name, values in self.grid],
            "base": [[name, value] for name, value in self.base],
            "seeds": list(self.seeds),
            "timeout_s": self.timeout_s,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CampaignSpec":
        return cls(
            name=doc["name"],
            target=doc["target"],
            grid=tuple((name, tuple(values)) for name, values in doc.get("grid", [])),
            base=tuple((name, value) for name, value in doc.get("base", [])),
            seeds=tuple(doc.get("seeds", (0,))),
            timeout_s=doc.get("timeout_s"),
            description=doc.get("description", ""),
        )

    def describe(self) -> str:
        axes = " x ".join(f"{name}[{len(values)}]" for name, values in self.grid)
        seeds = f" x seeds[{len(self.seeds)}]" if len(self.seeds) > 1 else ""
        return f"{self.name}: {self.target} over {axes or '1 point'}{seeds} = {len(self)} points"
