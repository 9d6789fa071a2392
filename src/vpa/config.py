"""Run configuration: tolerances, radius schedule, seeds, and budgets.

A single frozen dataclass flows through every operation so that reports can
echo the exact numeric environment they were computed under; the evidence
stages take `(prob, ybar, cfg)` alone, so that config reproduces them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class RunConfig:
    # tolerances
    tol_feas: float = 1e-8          # feasibility: max |g|, max(0, -h)
    tol_active: float = 1e-6        # |h_j| below this counts as active
    tol_membership: float = 1e-7    # tangency residual (scaled by gradient size)
    tol_stationary: float = 1e-6    # Rabier residual accepted as stationary
    tol_limit: float = 1e-4         # "-> 0" trend threshold at the largest radius
    tol_cluster: float = 1e-3       # relative f-spread for a convergent tail
    tol_rank: float = 1e-10         # singular-value cutoff relative to the largest
    tol_margin: float = 1e-9        # Euclidean margin certifying an MFCQ direction
    # radius schedule r_k = radius_base * radius_factor**k
    radius_base: float = 10.0
    radius_factor: float = 2.0
    radius_count: int = 14
    # randomness
    seed: int = 0
    # budgets
    weights_per_radius: int = 8
    weight_grid: int = 5
    starts_per_weight: int = 4
    section_budget: int = 32
    projection_max_iter: int = 200
    projection_restarts: int = 8
    divergence_cap: float = 1e6

    def __post_init__(self):
        # the counts and the seed are the fields whose default is an int
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            integral = type(f.default) is int
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if integral else numbers.Real):
                raise ValueError(f"{f.name} must be {'an integer' if integral else 'a number'}"
                                 f", got {value!r}")
        # every comparison is written so that NaN fails it
        for name in (
            "tol_feas", "tol_active", "tol_membership", "tol_stationary",
            "tol_limit", "tol_cluster", "tol_rank", "tol_margin",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.radius_count < 4:
            raise ValueError("radius schedule needs at least 4 entries")
        if not (self.radius_base > 0 and self.radius_factor > 1):
            raise ValueError("radius schedule must be positive and increasing")
        if not self.divergence_cap > 0:
            raise ValueError("divergence_cap must be positive")
        if min(self.seed, self.projection_restarts) < 0:
            raise ValueError("seed and projection_restarts must be nonnegative")
        if min(self.weights_per_radius, self.weight_grid, self.starts_per_weight,
               self.section_budget, self.projection_max_iter) < 1:
            raise ValueError("budgets must be at least 1")
        # last, so NaN keeps the messages above; nor is a huge integer finite
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if type(f.default) is float and not abs(value) <= sys.float_info.max:
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        try:   # in floats, so an integer factor and a huge count fail at once
            top = float(self.radius_base) * float(self.radius_factor) ** (self.radius_count - 1)
        except OverflowError:
            top = math.inf
        if not top <= sys.float_info.max:
            raise ValueError("radius schedule overflows: its largest radius, radius_base"
                             " * radius_factor ** (radius_count - 1), is not finite")

    def radii(self) -> list[float]:
        return [self.radius_base * self.radius_factor ** k
                for k in range(self.radius_count)]

    def replace(self, **kwargs) -> "RunConfig":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError("a config holds one JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


DEFAULT_CONFIG = RunConfig()
