"""Run configuration: the radius schedule, the seed, and the budgets.

A single frozen dataclass flows through the evidence stages, which take
`(prob, ybar, cfg)` alone, so the config a report echoes reproduces them.
The tolerances that decide a certificate or a condition are constants of
the module that decides with them, the same for every run, and so is the
schedule's first radius, RADIUS_BASE.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import sys
from dataclasses import dataclass

# Every chain does work at each radius, and each `radii()` call builds the
# whole list: a count in the millions, whose top radius a factor just above 1
# keeps finite, would run a command for hours. The schedules the
# tests, scripts and benchmarks use have at most 14 radii.
_MAX_RADII = 100
RADIUS_BASE = 10.0


@dataclass(frozen=True)
class RunConfig:
    # radius schedule r_k = RADIUS_BASE * radius_factor**k
    radius_factor: float = 2.0
    radius_count: int = 14
    # randomness
    seed: int = 0
    # budgets
    weights_per_radius: int = 8
    weight_grid: int = 5
    starts_per_weight: int = 4
    section_budget: int = 32

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
        if self.radius_count < 4:
            raise ValueError("radius schedule needs at least 4 entries")
        if not self.radius_factor > 1:
            raise ValueError("radius schedule must be increasing")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if min(self.weights_per_radius, self.weight_grid, self.starts_per_weight,
               self.section_budget) < 1:
            raise ValueError("budgets must be at least 1")
        # last, so NaN keeps the messages above; nor is a huge integer finite
        if not abs(self.radius_factor) <= sys.float_info.max:
            raise ValueError(f"radius_factor must be finite, got {self.radius_factor!r}")
        try:   # in floats, so an integer factor and a huge count fail at once
            top = RADIUS_BASE * float(self.radius_factor) ** (self.radius_count - 1)
        except OverflowError:
            top = math.inf
        # the sphere rows divide by r^2, so the largest r^2 must be finite
        if not top * top <= sys.float_info.max:
            raise ValueError("radius schedule overflows: the square of its largest radius,"
                             " RADIUS_BASE * radius_factor ** (radius_count - 1), is not finite")
        if self.radius_count > _MAX_RADII:
            raise ValueError(f"radius schedule has more than {_MAX_RADII} radii")

    def radii(self) -> list[float]:
        return [RADIUS_BASE * self.radius_factor ** k
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
