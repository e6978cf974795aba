"""Counter-based Gaussian increment streams: determinism and statistics."""

import numpy as np
import pytest

from stochflow.brownian import BrownianDriver, auxiliary_rng


def test_same_key_reproduces_bitwise():
    a = BrownianDriver(seed=123, dt=0.01, n=2).increments_block([0], 50)
    b = BrownianDriver(seed=123, dt=0.01, n=2).increments_block([0], 50)
    assert a.shape == (1, 50, 2)
    assert np.array_equal(a, b)


def test_stream_extension_is_a_prefix():
    # Asking for more steps extends the same stream: the first k rows agree.
    d = BrownianDriver(seed=9, dt=0.001, n=1)
    short = d.increments_block([0], 20)
    long = d.increments_block([0], 200)
    assert np.array_equal(short, long[:, :20])


def test_realizations_are_distinct_streams():
    d = BrownianDriver(seed=5, dt=0.01, n=1)
    r0, r1 = d.increments_block([0, 1], 100)
    assert not np.allclose(r0, r1)


def test_different_seeds_differ():
    a = BrownianDriver(seed=1, dt=0.01, n=1).increments_block([0], 100)
    b = BrownianDriver(seed=2, dt=0.01, n=1).increments_block([0], 100)
    assert not np.allclose(a, b)


def _fresh_stream(seed, r, num_steps, n, dt):
    """Increments from a generator built for this one realization."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, r], dtype=np.uint64)))
    return gen.standard_normal((num_steps, n)) * np.sqrt(dt)


def test_increments_block_matches_per_realization():
    # unsorted, repeated and non-contiguous indices; every row is its own stream
    for n, indices in ((3, [4, 9, 2]), (2, [17, 3, 250, 0, 3, 9]), (1, [5])):
        d = BrownianDriver(seed=77, dt=0.002, n=n)
        block = d.increments_block(indices, 25)
        assert block.shape == (len(indices), 25, n)
        for row, r in enumerate(indices):
            assert np.array_equal(block[row], d.increments_block([r], 25)[0])
            assert block[row].tobytes() == _fresh_stream(77, r, 25, n, 0.002).tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("block", [1, 37, 100])
def test_blocked_draws_equal_one_draw(n, block):
    # 100 steps drawn in blocks of 1, of 37 (37 + 37 + 26) or in one block, each
    # into the front of one reused buffer, from streams that carry on between
    # blocks: the blocks concatenate to one increments_block draw, bit for bit.
    R = 4
    d = BrownianDriver(seed=321, dt=0.003, n=n)
    indices = [6, 0, 41, 6]
    whole = d.increments_block(indices, 100)
    streams = d.streams(indices)
    buffer = np.empty(R * block * n)
    parts = []
    for k in range(0, 100, block):
        steps = min(block, 100 - k)
        out = buffer[: R * steps * n].reshape(R, steps, n)
        part = d.increments_block(indices, steps, streams, out=out)
        assert np.shares_memory(part, buffer)
        parts.append(part.copy())
    assert np.concatenate(parts, axis=1).tobytes() == whole.tobytes()
    for row, r in enumerate(indices):
        assert whole[row].tobytes() == _fresh_stream(321, r, 100, n, 0.003).tobytes()


def test_increments_block_argument_checks():
    d = BrownianDriver(seed=3, dt=0.01, n=2)
    with pytest.raises(ValueError, match="2 streams given for 3"):
        d.increments_block([0, 1, 2], 5, d.streams([0, 1]))
    with pytest.raises(ValueError, match="expected"):
        d.increments_block([0, 1], 5, out=np.empty((2, 4, 2)))


def test_increment_moments_match_dt():
    dt = 0.004
    draws = BrownianDriver(seed=31, dt=dt, n=1).increments_block([0], 200_000).reshape(-1)
    m = draws.mean()
    v = draws.var(ddof=1)
    n = draws.size
    # 4-standard-error gates on mean 0 and variance dt.
    assert abs(m) <= 4.0 * np.sqrt(dt / n)
    assert abs(v - dt) <= 4.0 * dt * np.sqrt(2.0 / (n - 1))


def test_two_component_stream_moments_match_dt():
    # Both components of a 2D stream, pooled: 4-standard-error gates on mean 0 and
    # variance dt.
    dt = 0.01
    draws = BrownianDriver(seed=11, dt=dt, n=2).increments_block([0], 100_000).reshape(-1)
    n = draws.size
    assert n == 200_000
    assert abs(draws.mean()) <= 4.0 * np.sqrt(dt / n)
    assert abs(draws.var(ddof=1) - dt) <= 4.0 * dt * np.sqrt(2.0 / (n - 1))


def test_constructor_validation():
    with pytest.raises(ValueError):
        BrownianDriver(seed=0, dt=0.0, n=1)
    with pytest.raises(ValueError):
        BrownianDriver(seed=0, dt=0.1, n=0)


def test_auxiliary_rng_deterministic_and_tag_sensitive():
    a = auxiliary_rng(42, "bootstrap").standard_normal(16)
    b = auxiliary_rng(42, "bootstrap").standard_normal(16)
    c = auxiliary_rng(42, "jensen").standard_normal(16)
    d = auxiliary_rng(43, "bootstrap").standard_normal(16)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def test_auxiliary_rng_independent_of_path_streams():
    # The salted key space must not collide with realization streams of the
    # same seed.
    path = BrownianDriver(seed=42, dt=1.0, n=1).increments_block([0], 16).reshape(-1)
    aux = auxiliary_rng(42, "bootstrap").standard_normal(16)
    assert not np.allclose(np.sort(path), np.sort(aux))
