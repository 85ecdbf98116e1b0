"""Golden runs: whole fixed-seed GMR runs pinned bit for bit.

Each case is a small default-path run (scalar step, evaluation
short-circuiting, tree and kernel caches, hill climbing) on a registered
domain's mini task.  The best fitness and the per-generation best
history are pinned as ``float.hex`` strings and the evaluation count
exactly, so any change that silently alters search behaviour or the
numeric result of a simulation fails here.  The results do not depend on
``PYTHONHASHSEED``.

A deliberate behaviour change must re-record these values and say why.
"""

import pytest

from repro.gp import GMRConfig, GMREngine

SEED = 1

GOLDEN = {
    "river": (
        dict(population_size=16, max_generations=4, local_search_steps=3),
        "0x1.8e6bd1decd56dp+6",
        233,
        [
            "0x1.8ca5b10afb20dp+21",
            "0x1.aed295c34f2c1p+17",
            "0x1.bff3a443d8867p+6",
            "0x1.9104c13772a4fp+6",
            "0x1.8e6bd1decd56dp+6",
        ],
    ),
    "lotka_volterra": (
        dict(population_size=24, max_generations=6, local_search_steps=4),
        "0x1.3eac6a29e95abp-1",
        669,
        [
            "0x1.1e10c6ab1ab63p+1",
            "0x1.f4927a08b8450p-1",
            "0x1.3eac6a29e95abp-1",
            "0x1.3eac6a29e95abp-1",
            "0x1.3eac6a29e95abp-1",
            "0x1.3eac6a29e95abp-1",
            "0x1.3eac6a29e95abp-1",
        ],
    ),
    "sir": (
        dict(population_size=24, max_generations=6, local_search_steps=4),
        "0x1.5f0cb9e5db8c9p-6",
        666,
        [
            "0x1.b03162d6dbf2dp-5",
            "0x1.fe7e1411bab4fp-6",
            "0x1.fe7e1411bab4fp-6",
            "0x1.fe7e1411bab4fp-6",
            "0x1.fe7e1411bab4fp-6",
            "0x1.5f0cb9e5db8c9p-6",
            "0x1.5f0cb9e5db8c9p-6",
        ],
    ),
}


@pytest.mark.parametrize("domain", sorted(GOLDEN))
def test_golden_run(domain):
    config, best, evaluations, history = GOLDEN[domain]
    engine = GMREngine.for_domain(
        domain, GMRConfig(n_workers=1, **config), mini=True
    )
    result = engine.run(seed=SEED)
    assert result.best_fitness.hex() == best
    assert result.stats.evaluations == evaluations
    assert [record.best_fitness.hex() for record in result.history] == history
