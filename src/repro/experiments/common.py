"""Shared experiment plumbing: run sizes."""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.config import QUICK_SCALE_CLIENTS, SystemConfig


@dataclass(frozen=True)
class Scale:
    """How big to run an experiment.

    ``quick`` keeps unit/benchmark runs fast; ``full`` approaches the
    paper's testbed scale (64 clients).  The REPRO_FULL environment
    variable flips the default.
    """

    clients: int
    requests_per_client: int
    warmup: int

    @staticmethod
    def resolve_quick(quick: bool = True) -> bool:
        """Fold the REPRO_FULL environment override into ``quick``.

        Job specs call this once, at sweep-definition time, so a spec
        is self-contained: executing it later (possibly in a worker
        process) never re-consults the environment.
        """
        if os.environ.get("REPRO_FULL"):
            return False
        return quick

    @staticmethod
    def exact(quick: bool) -> "Scale":
        """The scale for ``quick`` with no environment override."""
        if quick:
            return Scale(clients=QUICK_SCALE_CLIENTS,
                         requests_per_client=80, warmup=8)
        return Scale(clients=64, requests_per_client=250, warmup=25)

    @staticmethod
    def pick(quick: bool = True) -> "Scale":
        return Scale.exact(Scale.resolve_quick(quick))

    def apply(self, config: SystemConfig) -> SystemConfig:
        """Size ``config`` for this scale (client count only)."""
        return config.with_clients(self.clients)

