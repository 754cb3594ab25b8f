"""Synthetic trace generation following the gradual-increase protocol.

A run starts at a configurable competition level and raises it by a fixed
step, holding each level for a dwell period while sampling at a fixed
interval, until the level would push total CPU usage past 100% given the
observed process's own load q.  The whole staircase repeats for a number of
cycles with continuously increasing timestamps.  Sample powers come from a
known ground-truth profile plus optional Gaussian noise clamped at zero.

Noise is drawn from a counter-based generator keyed on (seed, cycle), so a
trace is bit-reproducible for a given seed and individual cycles could be
generated independently without changing the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fitting import TraceSamples
from .profiles import PowerProfile, _store, evaluate
from .traceio import TraceFile

_U64 = 0xFFFFFFFFFFFFFFFF
_MAX_SAMPLES = int(np.iinfo(np.intp).max)  # the largest array index


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of one simulated measurement campaign.

    baseline_load_q is the CPU percentage the observed process itself uses;
    competition never exceeds 100 - q.  noise_sigma is the per-sample
    Gaussian standard deviation in watts (0 for noiseless traces).
    """

    baseline_load_q: float
    noise_sigma: float = 0.0
    seed: int = 0
    start_pct: float = 0.0
    step_pct: float = 5.0
    dwell_seconds: float = 360.0
    sample_interval_seconds: float = 5.0
    cycles: int = 8

    def __post_init__(self):
        def check(name, *bounds, **rule):
            return _store(self, name, *bounds, error=ConfigError, **rule)

        q = check("baseline_load_q", 0, 100, open_lo=True, open_hi=True)
        check("noise_sigma", 0)
        check("seed", integer=True)
        check("start_pct", 0, 100 - q)
        check("step_pct", 0, open_lo=True)
        check("dwell_seconds")
        check("sample_interval_seconds", 0, open_lo=True)
        check("cycles", 1, integer=True)
        if self.dwell_seconds < self.sample_interval_seconds:
            raise ConfigError(
                "dwell_seconds must be >= sample_interval_seconds, got "
                f"{self.dwell_seconds} < {self.sample_interval_seconds}"
            )
        # an upper bound on the sample count, checked before anything is allocated
        per_cycle = ((100.0 - q - self.start_pct) / self.step_pct + 1.0) * (
            self.dwell_seconds / self.sample_interval_seconds
        )
        if self.cycles > _MAX_SAMPLES or self.cycles * per_cycle > _MAX_SAMPLES:
            raise ConfigError(f"the protocol asks for more than {_MAX_SAMPLES} samples")


def competition_levels(config: ProtocolConfig) -> np.ndarray:
    """The arithmetic staircase of levels one cycle walks through."""
    top = 100.0 - config.baseline_load_q
    # epsilon guards against float junk in the division; the trim below keeps
    # the domain bound exact either way
    count = int(math.floor((top - config.start_pct) / config.step_pct + 1e-9)) + 1
    levels = config.start_pct + config.step_pct * np.arange(count)
    return levels[levels <= top]


def samples_per_level(config: ProtocolConfig) -> int:
    return int(math.floor(config.dwell_seconds / config.sample_interval_seconds + 1e-9))


def _cycle_rng(seed: int, cycle: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=((seed & _U64) << 64) | cycle))


def generate_trace(config: ProtocolConfig, truth: PowerProfile) -> TraceFile:
    """Simulate the protocol against a ground-truth profile.

    Sample count is exactly cycles * levels * floor(dwell/interval); power is
    evaluate(truth, level) plus seeded Gaussian noise, clamped at zero (with
    noise_sigma = 0 the values equal the evaluation bit for bit).
    """
    levels = competition_levels(config)
    per_level = samples_per_level(config)
    cycle_size = levels.size * per_level

    level_power = np.array([evaluate(truth, float(lv)) for lv in levels])
    t = np.arange(config.cycles * cycle_size, dtype=np.float64) * config.sample_interval_seconds
    competition = np.tile(np.repeat(levels, per_level), config.cycles)
    power = np.tile(np.repeat(level_power, per_level), config.cycles)
    if config.noise_sigma > 0:
        noise = np.concatenate(
            [
                _cycle_rng(config.seed, cycle).normal(0.0, config.noise_sigma, size=cycle_size)
                for cycle in range(config.cycles)
            ]
        )
        power = np.maximum(power + noise, 0.0)
    return TraceFile(samples=TraceSamples(t, competition, power))
