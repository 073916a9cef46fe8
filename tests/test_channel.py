import numpy as np
import pytest
from hypothesis import given, strategies as st

from aoisim.channel import (DUPLICATE, OUTAGE, SUCCESS, epsilon_for_outage,
                            outage_probability, outage_table,
                            resolve_transmissions, sample_heterogeneous_snr,
                            snr_db_to_linear)


def snrs_of(n, mean_snr=100.0, per_device=None):
    """Mean SNR of devices 0..n-1: mean_snr, except those per_device lists."""
    snr = np.full(n, mean_snr)
    for i, value in (per_device or {}).items():
        snr[i] = value
    return snr


def test_snr_conversion():
    assert snr_db_to_linear(20.0) == pytest.approx(100.0)
    assert snr_db_to_linear(0.0) == pytest.approx(1.0)


def test_single_rb_outage_at_reference_point():
    # 20 dB mean SNR and unit threshold: 1 - exp(-1/100)
    assert outage_probability(100.0, 1.0, 1) == pytest.approx(0.00995, abs=5e-6)


def test_outage_grows_with_simultaneous_rbs():
    probs = [outage_probability(100.0, 1.0, r) for r in (1, 2, 4, 8)]
    assert probs == sorted(probs)
    with pytest.raises(ValueError):
        outage_probability(100.0, 1.0, 0)


def test_epsilon_for_outage_round_trip():
    eps = epsilon_for_outage(0.05, 20.0)
    assert outage_probability(100.0, eps, 1) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        epsilon_for_outage(1.0, 20.0)


def test_per_device_snr_override():
    snr = snrs_of(5, per_device={3: 50.0})
    assert snr[3] == 50.0
    assert snr[4] == 100.0
    table = outage_table(snr, 1.0, 1)
    assert table[3, 1] > table[4, 1]
    assert table[3, 1] == outage_probability(50.0, 1.0, 1)


def _resolve(snr, epsilon, transmissions, u):
    """Outcome codes by device id of (id, first RB, RB count) transmissions.

    u holds each device's uniform by id; the resolver reads them aligned
    with the transmitters, as the engine's draws hand them over."""
    ids, first, n_rbs = (np.array(column, dtype=np.int64)
                         for column in zip(*transmissions))
    table = outage_table(snr[:int(ids.max()) + 1], epsilon, int(n_rbs.max()))
    outcomes, _ = resolve_transmissions(ids, first, n_rbs, table, np.asarray(u)[ids])
    return dict(zip(ids.tolist(), outcomes.tolist()))


def test_duplicate_rb_fails_every_claimant():
    outcomes = _resolve(snrs_of(3), 0.0, [(0, 5, 1), (1, 5, 1), (2, 6, 1)],
                        np.full(3, 0.99))
    assert outcomes[0] == DUPLICATE
    assert outcomes[1] == DUPLICATE
    assert outcomes[2] == SUCCESS


def test_partial_overlap_fails_the_whole_transmission():
    # multi-RB transmissions succeed or fail as a unit: RBs {1, 2} and {2, 3}
    outcomes = _resolve(snrs_of(2), 0.0, [(0, 1, 2), (1, 2, 2)], np.ones(2) * 0.5)
    assert outcomes[0] == DUPLICATE
    assert outcomes[1] == DUPLICATE


def test_outage_uses_own_uniform():
    p = outage_probability(100.0, 1.0, 1)
    u = np.array([p * 0.5, p * 2.0])
    outcomes = _resolve(snrs_of(2), 1.0, [(0, 1, 1), (1, 2, 1)], u)
    assert outcomes[0] == OUTAGE
    assert outcomes[1] == SUCCESS
    # u follows the transmitters' order, not their ids
    outcomes, _ = resolve_transmissions(np.array([1, 0]), np.array([1, 2]),
                                        np.array([1, 1]),
                                        outage_table(snrs_of(2), 1.0, 1), u)
    assert outcomes.tolist() == [OUTAGE, SUCCESS]


def test_assignment_validation():
    table = outage_table(snrs_of(3), 1.0, 2)
    u = np.zeros(2)
    with pytest.raises(ValueError, match="more than once"):
        resolve_transmissions(np.array([0, 0]), np.array([1, 2]), np.array([1, 1]),
                              table, u)
    with pytest.raises(ValueError, match="device 2 listed with an empty RB set"):
        resolve_transmissions(np.array([1, 2]), np.array([1, 3]), np.array([1, 0]),
                              table, u)


def test_outage_table_holds_the_outage_probabilities():
    snr = snrs_of(3, per_device={1: 50.0})
    table = outage_table(snr, 1.0, 4)
    assert table.shape == (3, 5) and np.isnan(table[:, 0]).all()
    for i in range(3):
        for r in range(1, 5):
            assert table[i, r] == outage_probability(snr[i], 1.0, r)


def test_heterogeneous_snr_range():
    rng = np.random.default_rng(0)
    snrs = sample_heterogeneous_snr(1000, 17.0, 21.8, rng)
    low, high = snr_db_to_linear(17.0), snr_db_to_linear(21.8)
    assert all(low <= v <= high for v in snrs)
    assert len(snrs) == 1000


def _scalar_outcomes(snr, epsilon, transmissions, u):
    """The per-transmitter rule: a shared RB fails every claimant, else u < p."""
    claims = {}
    for _, first, n in transmissions:
        for rb in range(first, first + n):
            claims[rb] = claims.get(rb, 0) + 1
    outcomes = {}
    for i, first, n in transmissions:
        if any(claims[rb] > 1 for rb in range(first, first + n)):
            outcomes[i] = DUPLICATE
        elif u[i] < outage_probability(snr[i], epsilon, n):
            outcomes[i] = OUTAGE
        else:
            outcomes[i] = SUCCESS
    return outcomes


@given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 10), st.integers(1, 3)),
                min_size=1, max_size=12, unique_by=lambda e: e[0]),
       st.integers(0, 2**32 - 1))
def test_every_transmitter_gets_exactly_one_outcome(transmissions, seed):
    snr = snrs_of(20)
    u = np.random.default_rng(seed).random(20)
    outcomes = _resolve(snr, 1.0, transmissions, u)
    assert set(outcomes) == {i for i, _, _ in transmissions}
    assert outcomes == _scalar_outcomes(snr, 1.0, transmissions, u)


@given(st.lists(st.tuples(st.integers(0, 29), st.integers(0, 12), st.integers(1, 4),
                          st.sampled_from(["below", "equal", "above", "random"])),
                min_size=1, max_size=15, unique_by=lambda e: e[0]),
       st.dictionaries(st.integers(0, 29), st.floats(0.5, 400.0), max_size=10),
       st.floats(0.0, 60.0), st.integers(0, 2**32 - 1))
def test_array_resolver_equals_the_scalar_rule(entries, snrs, epsilon, seed):
    # overlapping multi-RB ranges, per-device SNR, and uniforms right at,
    # just below and just above the outage probability
    snr = snrs_of(30, per_device=snrs)
    u = np.random.default_rng(seed).random(30)
    for i, _, n, where in entries:
        p = outage_probability(snr[i], epsilon, n)
        if where == "equal":
            u[i] = p
        elif where == "below":
            u[i] = np.nextafter(p, 0.0)
        elif where == "above":
            u[i] = np.nextafter(p, 1.0)
    transmissions = [(i, first, n) for i, first, n, _ in entries]
    assert (_resolve(snr, epsilon, transmissions, u)
            == _scalar_outcomes(snr, epsilon, transmissions, u))


def test_model_rejects_bad_parameters():
    with pytest.raises(ValueError):
        outage_table(np.array([100.0, 0.0]), 1.0, 1)
    with pytest.raises(ValueError):
        outage_table(np.array([1.0]), -0.1, 1)
