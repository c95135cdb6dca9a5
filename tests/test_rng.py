import hashlib

import numpy as np
import pytest

from balltrack.rng import RandomStream, derive_key, mix64


def test_same_key_same_draws():
    a = RandomStream.from_seed(42, "dataset", "train", 0)
    b = RandomStream.from_seed(42, "dataset", "train", 0)
    assert np.array_equal(a.random(100), b.random(100))


def test_counter_based_draws_are_stateless_in_value():
    a = RandomStream.from_seed(7)
    first = a.random(10)
    b = RandomStream.from_seed(7)
    # drawing in two chunks consumes the same counters
    chunks = np.concatenate([b.random(4), b.random(6)])
    assert np.array_equal(first, chunks)


def test_different_labels_give_distinct_streams():
    keys = {
        derive_key(1, "train", 0),
        derive_key(1, "train", 1),
        derive_key(1, "val", 0),
        derive_key(2, "train", 0),
    }
    assert len(keys) == 4
    a = RandomStream(derive_key(1, "train", 0)).random(50)
    b = RandomStream(derive_key(1, "val", 0)).random(50)
    assert not np.array_equal(a, b)


def test_spawn_does_not_consume_parent_state():
    a = RandomStream.from_seed(3)
    a.spawn("child")
    b = RandomStream.from_seed(3)
    assert np.array_equal(a.random(5), b.random(5))


def test_uniform_bounds_and_degenerate_interval():
    s = RandomStream.from_seed(11)
    x = s.uniform(-2.5, 4.0, 10_000)
    assert x.min() >= -2.5 and x.max() < 4.0
    # zero-width interval collapses to the point exactly
    assert np.all(s.uniform(0.0, 0.0, 8) == 0.0)


def test_uniform_is_roughly_uniform():
    s = RandomStream.from_seed(5)
    x = s.random(200_000)
    hist, _ = np.histogram(x, bins=20, range=(0, 1))
    # each bin expects 10k; 5 sigma is ~±490
    assert np.all(np.abs(hist - 10_000) < 600)


def test_normal_moments():
    s = RandomStream.from_seed(9)
    z = s.normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert abs(np.mean(z**3)) < 0.05  # symmetry


def test_normal_sigma_scaling():
    s = RandomStream.from_seed(13)
    z = s.normal(50_000, sigma=2.5)
    assert abs(z.std() - 2.5) < 0.05


def test_mix64_is_bijective_on_samples():
    outs = {mix64(i) for i in range(10_000)}
    assert len(outs) == 10_000


@pytest.mark.parametrize("value", [np.int64(7), np.int64(-3), np.uint64(7), np.uint64(2**64 - 1)])
def test_numpy_integer_seeds_and_keys_draw_as_python_ints(value):
    same = int(value)
    assert mix64(value) == mix64(same) and type(mix64(value)) is int
    assert derive_key(value, "dataset", 1) == derive_key(same, "dataset", 1)
    assert RandomStream(value).key == RandomStream(same).key
    assert np.array_equal(RandomStream(value).random(8), RandomStream(same).random(8))
    assert np.array_equal(RandomStream.from_seed(value, "x").normal(8),
                          RandomStream.from_seed(same, "x").normal(8))


def test_zero_count_draws_are_empty():
    s = RandomStream.from_seed(17)
    for draws in (s.random(0), s.normal(0), s.uniform(-1.0, 1.0, 0)):
        assert isinstance(draws, np.ndarray)
        assert draws.shape == (0,)
    assert s.counter == 0


@pytest.mark.parametrize("n", [0, 1, 5])
@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_one_block_holds_the_draws_of_interleaved_calls(seed, n):
    # selfcheck's operator probes: n rounds of two centers in [10, 14) and 32 pixel draws
    block = RandomStream.from_seed(seed, "probes").random(34 * n).reshape(n, 34)
    s = RandomStream.from_seed(seed, "probes")
    for row in block:
        assert [s.uniform(10, 14), s.uniform(10, 14)] == (10 + 4 * row[:2]).tolist()
        assert s.random(32).tobytes() == row[2:].tobytes()
    assert s.counter == 34 * n


# sha256 of the float64 bytes of draws from RandomStream.from_seed(2024,
# "pins", method, str(n), str(sigma)): odd and even counts, a single draw
# (n=None) and sigma other than 1.  The normal draws go through np.log, cos
# and sin, whose last bit may round differently on another CPU or numpy
# build (recorded with numpy 2.4 on x86-64); the uniform ones are exact.
_DRAW_SHA256 = {
    ("random", None, 1.0): "188a0bf2d8318e6f0472787bd3ca7a585692928e3b0a7096b4a2fb60f41ce0b7",
    ("random", 1, 1.0): "538ba62db53f5c7f2201a601470fa4ee3d0fff074a21200ac69081f2d91da057",
    ("random", 8, 1.0): "c3981dd1fc319ed7225b91008ca3174ed26191f60f3d2a22fb1e72b7dd3b354c",
    ("random", 9, 1.0): "ad5037b43bc813f6df48a0111ef19255a583dc3c0353fbf9da733f857df719d1",
    ("normal", None, 1.0): "248fe1fd3b599333b13937d329b9f22d21669e60269cfd622a40dd2745d1e742",
    ("normal", 1, 1.0): "0a8b19d4e052b84d155960b70ef339d2b8b5ffc078a6cce1fc8bb84bdc5d7bdd",
    ("normal", 8, 1.0): "1c6c37e0bb13976b24607e953587ecdb23fcc02333b60935f6f0b2771d922532",
    ("normal", 9, 1.0): "d244b077aadc6df314661f59d24824d100300497b8a63b72e43f0d499a53db22",
    ("normal", 9, 2.5): "f7667649825528ccd58c6f9352d2d9c8853d4ea625a57552bab0126406e44eef",
    ("normal", 8, 0.3): "19e9e4cf9477ee6f498a6cb783488c332e0cb8560b6c794dfcf1e94dd860bf78",
    ("normal", None, 2.5): "bb966e71d66d7709727585701bac9c8e7440df67e0556f6adfcea65750ca4d60",
}


@pytest.mark.parametrize("method, n, sigma", list(_DRAW_SHA256))
def test_draws_match_recorded_digests(method, n, sigma):
    s = RandomStream.from_seed(2024, "pins", method, str(n), str(sigma))
    draw = s.random(n) if method == "random" else s.normal(n, sigma=sigma)
    assert isinstance(draw, float if n is None else np.ndarray)
    digest = hashlib.sha256(np.asarray(draw, dtype=np.float64).tobytes()).hexdigest()
    assert digest == _DRAW_SHA256[method, n, sigma]
