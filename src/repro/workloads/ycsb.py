"""The YCSB-like request generator (Sec VI-A2).

Generates GET/SET mixes over a keyspace with configurable update ratio,
Zipfian skew, and payload size — the driver behind the PMDK and Redis
rows of Figs 19-20.  Payloads default to the paper's 100 B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError
from repro.sim.rand import zipfian_sampler
from repro.workloads.kv import OpKind, Operation


@dataclass(frozen=True)
class YCSBConfig:
    """Parameters of one YCSB-style run."""

    update_ratio: float = 1.0
    population: int = 10_000
    zipf_theta: float = 0.9
    payload_bytes: int = 100
    value_bytes: int = 64

    def __post_init__(self) -> None:
        if not 0.0 <= self.update_ratio <= 1.0:
            raise ConfigurationError(
                f"update ratio must be in [0, 1], got {self.update_ratio}")
        if self.population <= 0:
            raise ConfigurationError("population must be positive")
        check_zipf_theta(self.zipf_theta)


def check_zipf_theta(theta: float) -> None:
    """Reject a Zipf skew outside ``[0, 1)`` (0 = uniform), naming the
    ``zipf_theta`` field."""
    if not 0.0 <= theta < 1.0:
        raise ConfigurationError(
            f"zipf_theta must be in [0, 1), got {theta}")


class YCSBGenerator:
    """Stateless-per-request operation generator."""

    def __init__(self, config: YCSBConfig) -> None:
        self.config = config
        self._pick_key = zipfian_sampler(config.population,
                                         config.zipf_theta)

    def make_op(self, client_index: int, request_index: int,
                rng) -> Tuple[Operation, int]:
        """One operation for the closed-loop driver."""
        key = self._pick_key(rng)
        if rng.random() < self.config.update_ratio:
            value = f"v{client_index}.{request_index}"
            op = Operation(OpKind.SET, key=key, value=value)
        else:
            op = Operation(OpKind.GET, key=key)
        return op, self.config.payload_bytes


def make_op_maker(config: YCSBConfig):
    """An ``op_maker`` callable for :func:`repro.experiments.driver`."""
    generator = YCSBGenerator(config)
    return generator.make_op
