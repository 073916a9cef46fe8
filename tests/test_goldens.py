"""Golden outputs: SHA-256 of the simulated values of short reference runs.

Each case hashes ``repr(records) + repr(summary)``; the cases in TRACED also
hash the run's trace, with every dict sorted by key. A refactor must leave
every digest unchanged; a change that alters the random stream or the
semantics on purpose recomputes them (``digest(name)``) and says so.

The starvation runs keep a single RB contended for 1,500 slots, so in-flight
exponential ages pass 2**1024. At v_a=1 every message is generated in slot 0
and the exponential ones tie forever; the staggered runs (v_a=0.5) hold
messages of different generation slots beyond float range at once, which
pins that the full-range threshold compares exact integers (they differ)
while the partial-range threshold compares floats saturated to inf (they tie).
Two more staggered runs draw few devices at a partial r_c and pin where
that line runs: with three devices whose span fits within r_c the ages rank
exactly (staggered_span), and with four devices that hear every pair though
the span exceeds r_c they tie (staggered_pairs_in_range).

central_full_info_beyond_float does the same for the centralized scheduler:
400 devices share one RB and 64 preambles, so requests rarely survive and
in-flight keys reach 2**1492. Its messages start in different slots, so it
pins that keys past float range still rank by their exact age.
"""

from __future__ import annotations

import hashlib

import pytest

from aoisim.engine import Mode, ScenarioConfig, run

_SMALL = dict(n_devices=12, n_rbs=6, slots=120, seed=11, v_a=0.4)

CASES = {
    "central_no_learning": dict(mode=Mode.CENTRALIZED_NO_LEARNING),
    "central_learning": dict(mode=Mode.CENTRALIZED_LEARNING, preambles=16),
    "central_full_info": dict(mode=Mode.CENTRALIZED_FULL_INFO),
    "central_rach_exact": dict(mode=Mode.CENTRALIZED_LEARNING, rach_exact=True,
                               preambles=12),
    "central_hetero_window": dict(mode=Mode.CENTRALIZED_LEARNING,
                                  heterogeneous_power=True, n_rbs_min=2,
                                  n_rbs_max=4, v_a=0.6),
    "central_full_info_window": dict(mode=Mode.CENTRALIZED_FULL_INFO,
                                     n_rbs_min=2, n_rbs_max=4, epsilon=2.0),
    "central_beta2": dict(mode=Mode.CENTRALIZED_LEARNING, beta=2, v_a=0.7),
    "central_trace": dict(mode=Mode.CENTRALIZED_LEARNING, v_a=0.7),
    "central_full_info_beyond_float": dict(mode=Mode.CENTRALIZED_FULL_INFO,
                                           n_devices=400, n_rbs=1, v_a=0.5,
                                           preambles=64, type1_fraction=0.0,
                                           m2=0.9, slots=1500),
    "sca_full": dict(mode=Mode.DISTRIBUTED_SCA, r_c=15.0),
    "sca_partial": dict(mode=Mode.DISTRIBUTED_SCA, r_c=4.0, v_a=0.7),
    "sca_partial_beta2": dict(mode=Mode.DISTRIBUTED_SCA, r_c=4.0, beta=2),
    "sca_trace": dict(mode=Mode.DISTRIBUTED_SCA, r_c=4.0),
    "random_full": dict(mode=Mode.DISTRIBUTED_RANDOM, r_c=15.0, v_a=0.7),
    "random_partial": dict(mode=Mode.DISTRIBUTED_RANDOM, r_c=4.0, v_a=0.7,
                           heterogeneous_power=True),
    "predetermined": dict(mode=Mode.DISTRIBUTED_PREDETERMINED, v_a=0.7),
    "dead_cell": dict(mode=Mode.DISTRIBUTED_SCA, v_a=0.0),
    "starvation_partial": dict(mode=Mode.DISTRIBUTED_SCA, n_rbs=1, v_a=1.0,
                               slots=1500, r_c=3.0),
    "starvation_full": dict(mode=Mode.DISTRIBUTED_SCA, n_rbs=1, v_a=1.0,
                            slots=1500, r_c=15.0),
    "starvation_staggered_partial": dict(mode=Mode.DISTRIBUTED_SCA, n_rbs=1,
                                         v_a=0.5, slots=1500, r_c=3.0),
    "starvation_staggered_full": dict(mode=Mode.DISTRIBUTED_SCA, n_rbs=1,
                                      v_a=0.5, slots=1500, r_c=15.0),
    "starvation_staggered_span": dict(mode=Mode.DISTRIBUTED_SCA, n_rbs=1,
                                      v_a=0.5, slots=1500, n_devices=3,
                                      r_c=6.0, seed=14),
    "starvation_staggered_pairs_in_range": dict(mode=Mode.DISTRIBUTED_SCA,
                                                n_rbs=1, v_a=0.5, slots=1500,
                                                n_devices=4, r_c=7.0, seed=24),
}

# the cases whose digest also hashes the run's trace
TRACED = {"central_trace", "sca_trace"}

GOLDEN = {
    "central_beta2":
        "16dc3e2f847e739d914e3fded76fb60faa5e843d17f0da37b4bd5140eb0ff18a",
    "central_full_info":
        "7a7062958f77bb29504faf6abc2cecd38d2e8beb729c4efd54cd048cff03fc49",
    "central_full_info_beyond_float":
        "02f59a925a9eeb78b6e0686ea2010303c6e458c24e9bcc0c158d5ddfbbaaf924",
    "central_full_info_window":
        "7a58d91158c3f839f1e8539230ad155f7c3c0b150dad4210b8befda83e99ae51",
    "central_hetero_window":
        "12c8d963d277977d9e243b362a78fd2e89cee0a7ce93ec9c02d9e831e8631863",
    "central_learning":
        "9be4ccdf7974bcf95acf9f4f0b0109525ec3f4d329b9ebba15e8501d9d99fbc6",
    "central_no_learning":
        "485a361533d2dc5c0ab5bdea20c8a7d8274c9215acebd08946c73e4afdf77bf7",
    "central_rach_exact":
        "e27c527a136bb0785e4676964748a88076a238832dfc6a88b431fc27627e40ea",
    "central_trace":
        "14bfd97ce64404b1686e6b541d0ec730aceca41848c26530f4aae4eb4108a1a8",
    "dead_cell":
        "da17c98af3472799b52471203c9dca5548afd3185ebd6451968ecadb1e516215",
    "predetermined":
        "4912eafc3c44b8f4bce7547f68d177741ecd706e93c5ac763a3712127c46d3b7",
    "random_full":
        "a96f409cfe5f3e8dd1c4eb02579e36f427c6eef3875b9a4fe3e294957d455a1f",
    "random_partial":
        "2c36d7bbdef36917186add78f244cd47294f44496a393f7719c27ec4637c1286",
    "sca_full":
        "7a03315f539102e9219d8db3256812657b8959af4b2f7d937220acd991f11faf",
    "sca_partial":
        "acfdf5ab38f71c3221c08fc3ccbf560fe23d2309916adab99714bc420f9a9a2c",
    "sca_partial_beta2":
        "1ee523635e6586ef623c06607614e25966aaa55cfc9af5cce956df000a0e6867",
    "sca_trace":
        "a6dcd313d25de57aab12341e4b5edc158de86a6d86ce62516fe7d4ab49e3d4b1",
    "starvation_full":
        "dbf5c81752c16f7034961ca3ece5620ef3cfc1cd31a1e36143a592611689fd92",
    "starvation_partial":
        "d938373f25cfe6d331c82f367ec574862b545e954bf3300cbe668b4255f93119",
    "starvation_staggered_full":
        "3c8bd1e27f9b9179d76ad90ce570d46bfae733dfad2eee94643d0e97e05763db",
    "starvation_staggered_partial":
        "9eb4800406ec221feeb606164e92e009443c814d1c559ac9395643c56fc893dd",
    "starvation_staggered_span":
        "00bd6d1178cd84178e6c27004fcc77cf274b8302703139b0651e6c84a43411b2",
    "starvation_staggered_pairs_in_range":
        "560ac6ceac974733dcb2d3a0313292b581e912ff6dc715b06bfa57396a5decd5",
}


def case_config(name: str) -> ScenarioConfig:
    return ScenarioConfig(**{**_SMALL, **CASES[name]})


def _sorted(value):
    if isinstance(value, dict):
        return sorted((k, _sorted(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_sorted(v) for v in value]
    return value


def digest(name: str) -> str:
    result = run(case_config(name))
    text = repr(result.records) + repr(result.summary)
    if name in TRACED:
        text += repr(_sorted(result.trace))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert digest(name) == GOLDEN[name]
