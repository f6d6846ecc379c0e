"""Workload table shared by ``run.py`` and the child processes it starts.

Importing this module loads nothing from auglf, so ``run.py`` stays light
and the child's set-up timing starts before any numerical import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    """One benchmark scenario.

    config          : shipped scenario file run through ``auglf.cli.main``,
                      or None for the API-only ``coded_field`` train
    rel_l2_ceiling  : a run whose relative L2 error against the wave
                      reference exceeds this counts as failed; it sits just
                      above today's value, so known defects stay visible
    inputs          : distinct seeded inputs one benchmark run cycles through
    """

    config: Optional[str]
    rel_l2_ceiling: float
    inputs: int = 1


# BENCHMARK.json lists only hologram and coded_field.  Between them they
# reach every layer (coded_field alone reaches wdf, hologram alone makes bulk
# writes).  On a shared 2-vCPU Xeon, interpreter-bound times such as
# hologram's run_s drift by about 20 % over minutes; two workloads let each
# run last 60 s within the time allowed for all runs, and leave fewer gated
# medians exposed to that drift.  young and cubic_phase run the same way
# when named with --workload.
WORKLOADS = {
    "young": Workload("configs/young.cfg", rel_l2_ceiling=0.01),
    "cubic_phase": Workload("configs/cubic_phase.cfg", rel_l2_ceiling=0.7),
    "hologram": Workload("configs/hologram.cfg", rel_l2_ceiling=1.15),
    # The error against the wave reference depends on the drawn screen
    # (0.03 to 0.04, a quartile spread of 14 %), so a run reports the median
    # over eight screens derived from its seed rather than one screen's value.
    "coded_field": Workload(None, rel_l2_ceiling=0.08, inputs=8),
}
