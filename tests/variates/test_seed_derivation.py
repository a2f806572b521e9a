"""Batched PCG64 seed derivation against numpy's ``SeedSequence`` oracle.

``StreamFactory`` derives the seed words of all pending stream names in
one vectorised pass instead of building a ``SeedSequence`` per stream,
and block streams keep a 40-byte PCG64 state record each (copied in and
out of the factory's one shared generator) instead of a generator each.
The contract is bit-identity: every stream must get exactly the state,
and serve exactly the values, of ``PCG64(SeedSequence(entropy=(seed,
replication, crc32(name))))``.
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
from repro.variates import (
    Empirical,
    Exponential,
    Lognormal,
    StreamFactory,
    VariateStream,
)
from repro.variates import streams as streams_module
from repro.variates.streams import (
    _int_words,
    _pcg64_initial_state,
    _pcg64_seed_words,
    _SeedWords,
    _state_views,
)

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


def _state_record(bitgen) -> bytes:
    """*bitgen*'s public ``.state`` as a stream's 40-byte record:
    ``state`` and ``inc`` (16 bytes each), then ``has_uint32`` and
    ``uinteger`` (4 bytes each), all little-endian."""
    state = bitgen.state
    return (state["state"]["state"].to_bytes(16, "little")
            + state["state"]["inc"].to_bytes(16, "little")
            + state["has_uint32"].to_bytes(4, "little")
            + state["uinteger"].to_bytes(4, "little"))


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
    assert not factory._states
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
    # The hand-derived initial state of every name is PCG64's own.
    for name, row in zip(names, _derive(cfg.seed, cfg.replication, keys)):
        ref = _oracle_generator(cfg.seed, cfg.replication, name)
        assert _pcg64_initial_state(row) == _state_record(ref.bit_generator), name


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
    assert factory._states == {} and factory._shared is None
    first = streams[3]()
    # One batch derived every pending name; only the drawn one has a
    # state (and no seed words left), and no stream has a generator of
    # its own.
    assert not factory._pending
    assert set(factory._seeds) == {f"s{i}" for i in range(5)} - {"s3"}
    assert list(factory._states) == ["s3"]
    assert factory._cache == {}
    ref_gen = _oracle_generator(4, 0, "s3")
    ref = dist.sample_block(ref_gen, 8)
    assert first == ref[0]
    assert factory._states["s3"] == _state_record(ref_gen.bit_generator)


def test_same_name_streams_share_one_generator():
    factory = StreamFactory(seed=4)
    a = factory.variates("shared", Exponential(5.0), block=4)
    b = factory.variates("shared", Exponential(5.0), block=4)
    drawn = [a() for _ in range(4)] + [b() for _ in range(4)]
    ref = Exponential(5.0).sample_block(_oracle_generator(4, 0, "shared"), 8)
    np.testing.assert_array_equal(drawn, ref)
    # One name cannot be drawn through both APIs, in either order; a
    # variates() stream finds out at its first draw.
    with pytest.raises(ValueError, match="'shared'"):
        factory.generator("shared")
    factory.generator("direct")
    late = factory.variates("direct", Exponential(5.0))
    with pytest.raises(ValueError, match="'direct'"):
        late()


#: Name -> distribution of the interleaving test.  ``Empirical`` draws
#: through ``choice``, which consumes PCG64's 32-bit buffer, so its
#: values stay exact only if ``has_uint32``/``uinteger`` travel with a
#: name's state.
_INTERLEAVED = {
    "exp": Exponential(50.0),
    "logn": Lognormal(100.0, 30.0),
    "emp": Empirical([1.0, 2.5, 4.0, 8.0, 16.0, 32.5, 64.0]),
}


class _OracleStream:
    """What a ``VariateStream`` over *name* must serve, from *values*
    (the name's ``SeedSequence`` oracle draws) and the name's shared
    position in them: refills grow from ``INITIAL_BLOCK`` to *block*,
    and ``draw`` bypasses the buffer."""

    def __init__(self, values, cursor, name, block):
        self.values, self.cursor, self.name = values, cursor, name
        self.block = block
        self.next = min(VariateStream.INITIAL_BLOCK, block)
        self.buf, self.idx = [], 0

    def _take(self, n):
        start = self.cursor[self.name]
        self.cursor[self.name] = start + n
        return self.values[start:start + n]

    def __call__(self):
        return self.take(1)[0]

    def take(self, n):
        out = []
        while len(out) < n:
            if self.idx >= len(self.buf):
                self.buf, self.idx = self._take(self.next), 0
                self.next = min(self.next * 2, self.block)
            out.append(self.buf[self.idx])
            self.idx += 1
        return out

    def take_sum(self, n):
        # Same per-block slice sums as VariateStream.take_sum.
        total, remaining = 0.0, n
        while remaining:
            if self.idx >= len(self.buf):
                self.buf, self.idx = self._take(self.next), 0
                self.next = min(self.next * 2, self.block)
            k = min(len(self.buf) - self.idx, remaining)
            total += sum(self.buf[self.idx:self.idx + k])
            self.idx += k
            remaining -= k
        return total

    def draw(self, n):
        return self._take(n)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    streams=st.lists(
        st.tuples(st.sampled_from(sorted(_INTERLEAVED)),
                  st.integers(1, 20).map(lambda k: 2 * k + 1)),
        min_size=2, max_size=6),
    ops=st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(["call", "sum", "draw"]),
                  st.integers(1, 50)),
        max_size=60),
)
def test_interleaved_streams_match_per_name_oracles(seed, streams, ops):
    """Several streams, some sharing a name, over three families with odd
    block sizes; any interleaving of scalar calls, ``take_sum`` and
    ``draw`` serves each name exactly its oracle generator's values."""
    factory = StreamFactory(seed=seed, replication=1)
    values = {name: dist.sample_block(_oracle_generator(seed, 1, name),
                                      8192).tolist()
              for name, dist in _INTERLEAVED.items()}
    cursor = dict.fromkeys(_INTERLEAVED, 0)
    pairs = [(factory.variates(name, _INTERLEAVED[name], block=block),
              _OracleStream(values[name], cursor, name, block))
             for name, block in streams]
    for which, op, n in ops:
        stream, oracle = pairs[which % len(pairs)]
        if op == "call":
            assert [stream() for _ in range(n)] == oracle.take(n)
        elif op == "sum":
            assert stream.take_sum(n) == oracle.take_sum(n)
        else:
            assert stream.draw(n).tolist() == oracle.draw(n)


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


def test_drawn_name_leaves_the_seed_index():
    factory = StreamFactory(seed=6)
    first = factory.variates("spent", Lognormal(100.0, 30.0), block=4)
    head = [first() for _ in range(5)]
    assert "spent" not in factory._seeds and "spent" in factory._states
    # Registering the name again neither re-derives it nor restarts it:
    # the new stream continues the name's one sequence after the two
    # blocks the first one took.
    again = factory.variates("spent", Lognormal(100.0, 30.0), block=4)
    assert "spent" not in factory._pending
    tail = [again() for _ in range(4)]
    ref = Lognormal(100.0, 30.0).sample_block(
        _oracle_generator(6, 0, "spent"), 12).tolist()
    assert head + tail == ref[:5] + ref[8:]
    with pytest.raises(ValueError, match="'spent'"):
        factory.generator("spent")


_U128 = st.integers(0, 2**128 - 1)


@settings(max_examples=200, deadline=None)
@given(state=_U128, inc=_U128.map(lambda x: x | 1),
       has_uint32=st.integers(0, 1), uinteger=st.integers(0, 2**32 - 1))
def test_byte_swap_round_trips_any_state(state, inc, has_uint32, uinteger):
    """A state record copied through the byte views is the generator's
    public ``.state``, and serves the draws a ``Generator`` set through
    that dict serves: lognormals, and ``Empirical``'s ``choice``, which
    starts from the 32-bit buffer when ``has_uint32`` is set."""
    as_dict = {"bit_generator": "PCG64",
               "state": {"state": state, "inc": inc},
               "has_uint32": has_uint32, "uinteger": uinteger}
    ref = np.random.Generator(np.random.PCG64())
    ref.bit_generator.state = as_dict
    record = _state_record(ref.bit_generator)
    factory = StreamFactory()
    factory.variates("warm", Exponential(1.0)).draw(1)  # makes the views
    factory._pcg[:] = record[:32]
    factory._flags[:] = record[32:]
    assert factory._shared.bit_generator.state == as_dict
    for dist in (Lognormal(100.0, 30.0),
                 Empirical([1.0, 2.5, 4.0, 8.0, 16.0, 32.5, 64.0])):
        ref.bit_generator.state = as_dict
        factory._states["s"] = record
        got = factory.sample("s", dist, 7)
        np.testing.assert_array_equal(got, dist.sample_block(ref, 7))
        assert factory._states["s"] == _state_record(ref.bit_generator)


@pytest.mark.parametrize("offset", [4, 1 << 20])
def test_layout_probe_raises_on_a_wrong_flag_offset(monkeypatch, offset):
    # Offset 4 reads the pointer's high half and has_uint32: a read-only
    # mismatch, so the probe raises before it writes anything.  A view
    # reaching outside the PCG64 object raises before any read.
    monkeypatch.setattr(streams_module, "_FLAGS_OFFSET", offset)
    with pytest.raises(RuntimeError, match="PCG64 state layout"):
        _state_views(np.random.PCG64(0))
    factory = StreamFactory()
    with pytest.raises(RuntimeError, match="PCG64 state layout"):
        factory.variates("x", Exponential(1.0))()


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
