"""The benchmark's workloads: one full GMR run each, at a fixed engine seed.

Every workload is a ``GMREngine.for_domain(domain, GMRConfig(**config))``
followed by ``engine.run(seed=REFERENCE_SEED)``.  The workloads are
defined in ``design.json``, next to why each was chosen and which
layers it loads most and least; this module only reads them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

DESIGN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "design.json")

#: Engine seed of the committed reference (``reference.json``).
REFERENCE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    domain: str
    config: dict
    #: Checkpoint every generation and write the program's JSONL trace,
    #: as a served campaign does.
    durable: bool


def load_design() -> dict:
    with open(DESIGN, encoding="utf-8") as f:
        return json.load(f)


WORKLOADS: dict[str, Workload] = {
    name: Workload(name, entry["domain"], entry["config"], entry["durable"])
    for name, entry in load_design()["workloads"].items()
}
