"""Batched PCG64 seed derivation against numpy's ``SeedSequence`` oracle.

``StreamFactory`` derives the seed words of all pending stream names in
one vectorised pass instead of building a ``SeedSequence`` per stream.
The contract is bit-identity: every stream must get exactly the state
``PCG64(SeedSequence(entropy=(seed, replication, crc32(name))))`` has.
"""

import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rocc.config import (
    Architecture,
    ForwardingTopology,
    NetworkMode,
    SimulationConfig,
)
from repro.rocc.system import ParadynISSystem
from repro.variates import Exponential, Lognormal, StreamFactory, VariateStream
from repro.variates.streams import _int_words, _pcg64_seed_words, _SeedWords

EDGE_KEYS = (0, 1, 2**32 - 1)
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 - 1)
REPLICATIONS = (0, 1, 5, 2**32 - 1)


def _oracle_words(seed: int, replication: int, key: int) -> np.ndarray:
    return np.random.SeedSequence(
        entropy=(seed, replication, key)).generate_state(4, np.uint64)


def _oracle_generator(seed: int, replication: int, name: str) -> np.random.Generator:
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=(seed, replication, key))))


def _derive(seed: int, replication: int, keys) -> np.ndarray:
    prefix = _int_words(seed) + _int_words(replication)
    return _pcg64_seed_words(prefix, np.asarray(keys, dtype=np.uint32))


def _assert_matches_oracle(seed, replication, keys) -> None:
    words = _derive(seed, replication, keys)
    assert words.shape == (len(keys), 4) and words.dtype == np.uint64
    for key, row in zip(keys, words):
        expected = _oracle_words(seed, replication, int(key))
        assert np.array_equal(row, expected), (seed, replication, int(key))


def _registered_names(cfg: SimulationConfig) -> list:
    factory = ParadynISSystem(cfg).streams
    names = set(factory._pending) | set(factory._seeds)
    assert set(factory._cache) <= names
    return sorted(names)


@pytest.mark.parametrize("cfg", [
    SimulationConfig(architecture=Architecture.NOW, nodes=1024,
                     network_mode=NetworkMode.CONTENTION_FREE,
                     duration=250_000.0, seed=1),
    SimulationConfig(architecture=Architecture.MPP, nodes=16,
                     forwarding=ForwardingTopology.TREE, seed=3),
    SimulationConfig(architecture=Architecture.SMP, nodes=4,
                     app_processes_per_node=4, daemons=2, seed=5),
], ids=["now1024", "mpp16-tree", "smp"])
def test_every_registered_stream_matches_seed_sequence(cfg):
    names = _registered_names(cfg)
    keys = [zlib.crc32(n.encode("utf-8")) for n in names]
    _assert_matches_oracle(cfg.seed, cfg.replication, keys)


def test_random_and_edge_keys_match_seed_sequence():
    keys = np.random.default_rng(2024).integers(
        0, 2**32, size=200_000, dtype=np.uint64).astype(np.uint32)
    keys = np.concatenate([np.asarray(EDGE_KEYS, dtype=np.uint32), keys])
    _assert_matches_oracle(1, 0, keys)


@pytest.mark.parametrize("replication", REPLICATIONS)
@pytest.mark.parametrize("seed", SEEDS)
def test_wide_seeds_and_replications_match_seed_sequence(seed, replication):
    # Seeds of 2**64 and up make the entropy longer than the 4-word
    # pool, which takes SeedSequence's extra mixing loop.
    keys = list(EDGE_KEYS) + list(
        np.random.default_rng(seed % 997).integers(0, 2**32, size=32))
    _assert_matches_oracle(seed, replication, keys)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**130), replication=st.integers(0, 2**70),
       name=st.text())
def test_factory_generator_matches_seed_sequence(seed, replication, name):
    gen = StreamFactory(seed, replication).generator(name)
    ref = _oracle_generator(seed, replication, name)
    assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("name", [
    "main/receive_cpu", "node0/pd/merge_cpu", "node1023/other/network",
    "faults/network", "", "ñode/ü",
])
def test_generator_state_and_first_draws_match(name):
    gen = StreamFactory(seed=7, replication=2).generator(name)
    ref = _oracle_generator(7, 2, name)
    assert gen.bit_generator.state == ref.bit_generator.state
    np.testing.assert_array_equal(gen.random(8), ref.random(8))
    np.testing.assert_array_equal(
        gen.integers(0, 2**63, size=8), ref.integers(0, 2**63, size=8))


def test_variates_create_their_generator_on_first_draw():
    factory = StreamFactory(seed=4)
    dist = Lognormal(100.0, 30.0)
    streams = [factory.variates(f"s{i}", dist, block=8) for i in range(5)]
    assert factory._cache == {}
    first = streams[3]()
    # One batch derived every pending name; only the drawn one has a
    # generator.
    assert set(factory._seeds) == {f"s{i}" for i in range(5)}
    assert list(factory._cache) == ["s3"]
    ref = dist.sample_block(_oracle_generator(4, 0, "s3"), 8)
    assert first == ref[0]


def test_same_name_streams_share_one_generator():
    factory = StreamFactory(seed=4)
    a = factory.variates("shared", Exponential(5.0), block=4)
    b = factory.variates("shared", Exponential(5.0), block=4)
    drawn = [a() for _ in range(4)] + [b() for _ in range(4)]
    assert a.rng is b.rng is factory.generator("shared")
    ref = Exponential(5.0).sample_block(_oracle_generator(4, 0, "shared"), 8)
    np.testing.assert_array_equal(drawn, ref)


def test_names_registered_after_a_batch_get_their_own_batch():
    factory = StreamFactory(seed=9)
    factory.generator("early")
    late = factory.variates("late", Exponential(1.0), block=4)
    assert "late" in factory._pending
    ref = Exponential(1.0).sample_block(_oracle_generator(9, 0, "late"), 3)
    np.testing.assert_array_equal(late.draw(3), ref)


@pytest.mark.parametrize("kwargs", [
    {"seed": -1}, {"replication": -1}, {"seed": -(2**40), "replication": 3},
])
def test_negative_seed_or_replication_rejected(kwargs):
    with pytest.raises(ValueError, match="must be >= 0"):
        StreamFactory(**kwargs)


def test_seed_words_only_serve_pcg64_request():
    words = _SeedWords(np.zeros(4, dtype=np.uint64))
    assert words.generate_state(4, np.uint64) is words.words
    with pytest.raises(ValueError):
        words.generate_state(8, np.uint32)


def test_variate_stream_needs_exactly_one_source(rng):
    with pytest.raises(ValueError):
        VariateStream(Exponential(1.0), None)
    with pytest.raises(ValueError):
        VariateStream(Exponential(1.0), rng, factory=StreamFactory(), name="x")


def test_importing_the_cli_does_not_import_numpy_random():
    # The artifact-rerun paths never seed a stream; numpy.random is
    # imported when the first seeds are derived, not at start-up.
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, repro.experiments.__main__; "
         "print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    ).stdout.strip()
    assert out == "False"
