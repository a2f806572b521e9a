"""Reproducible random-number streams for simulation experiments.

Each simulation entity (every application process, daemon, ...) gets its
own named substream so that

* runs are exactly reproducible given a root seed,
* changing one entity's draws does not perturb the others (common random
  numbers across policy comparisons, the variance-reduction technique
  the 2^k·r design relies on), and
* repetitions are independent: the replication index is part of every
  stream's seed entropy.

Hot-path performance follows the HPC guide: variates are drawn from
NumPy in **blocks** (:class:`VariateStream`) and served as scalars, so
the per-event cost is an array index rather than a Generator call.
A factory's block streams share one ``Generator``: each name keeps only
its PCG64 state, a 40-byte record that a refill copies into that
generator's state struct and back out.
"""

from __future__ import annotations

import ctypes
import zlib
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .distributions import Distribution

__all__ = ["StreamFactory", "VariateStream"]

#: Every :class:`VariateStream`'s first buffer: indexing it raises
#: ``IndexError``, which refills.  Never written (refills replace it).
_EMPTY = array("d")


def _name_to_key(name: str) -> int:
    """Stable 32-bit key for a stream name (crc32, platform-independent)."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool size 4.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _int_words(n: int) -> List[int]:
    """Non-negative *n* as little-endian 32-bit words, split as
    SeedSequence splits it."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _pcg64_seed_words(prefix: Sequence[int], keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy=(*prefix, key)).generate_state(4, np.uint64)``
    for every key at once, as a ``(len(keys), 4)`` uint64 array.

    *prefix* holds the 32-bit entropy words before the key.  The hash
    constants evolve independently of the data, so each entropy and pool
    word is one uint32 vector over all keys; numpy array arithmetic
    wraps modulo 2**32 exactly as the C code does.
    """
    n = keys.shape[0]
    entropy = [np.full(n, w, dtype=np.uint32) for w in prefix]
    entropy.append(keys.astype(np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    # Entropy longer than the pool (seeds of 2**64 and up).
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    out = np.empty((n, 4), dtype=np.uint64)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        value = (value ^ (value >> _XSHIFT)).astype(np.uint64)
        # Little-endian pairs of 32-bit words make one 64-bit word.
        if i % 2:
            out[:, i // 2] |= value << np.uint64(32)
        else:
            out[:, i // 2] = value
    return out


#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

#: Where ``has_uint32`` and ``uinteger`` sit in numpy's ``pcg64_state``
#: struct, after its ``pcg_state`` pointer.
_FLAGS_OFFSET = 8


def _pcg64_record(state: int, inc: int, has_uint32: int = 0,
                  uinteger: int = 0) -> bytes:
    """A stream's PCG64 state as the 40 bytes a refill copies: ``state``
    and ``inc`` (16 bytes each), then ``has_uint32`` and ``uinteger``
    (4 bytes each), all little-endian."""
    return (state.to_bytes(16, "little") + inc.to_bytes(16, "little")
            + has_uint32.to_bytes(4, "little")
            + uinteger.to_bytes(4, "little"))


def _pcg64_initial_state(words: np.ndarray) -> bytes:
    """The state record ``PCG64`` seeds itself to from four seed words.

    numpy's ``pcg64_set_seed`` reads the words as two 128-bit integers,
    ``initstate`` and ``initseq``, and runs PCG's ``srandom`` step:
    ``inc = (initseq << 1) | 1``, then two LCG steps from state 0 with
    ``initstate`` added in between.  The 32-bit buffer starts empty.
    """
    w0, w1, w2, w3 = words.tolist()
    initstate = (w0 << 64) | w1
    inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
    return _pcg64_record(((inc + initstate) * _PCG64_MULT + inc) & _MASK128,
                         inc)


def _state_views(bitgen) -> Tuple[memoryview, memoryview]:
    """Byte views of a ``PCG64``'s state: the 32 bytes of ``state`` and
    ``inc`` behind the struct's ``pcg_state`` pointer, and the 8 flag
    bytes (``has_uint32``, ``uinteger``) after that pointer.

    numpy publishes the struct's address (``ctypes.state_address``) but
    not its layout, so known states are round-tripped through the public
    ``.state`` dict in both directions first: a layout that differs
    raises ``RuntimeError`` instead of serving other numbers.
    """
    address = bitgen.ctypes.state_address
    pcg = ctypes.c_void_p.from_address(address).value
    # numpy keeps both structs inside the PCG64 object (whose CPython id
    # is its address), so a pointer elsewhere is not dereferenced.
    start = id(bitgen)
    end = start + type(bitgen).__basicsize__
    if not (start <= pcg and pcg + 32 <= end
            and address + _FLAGS_OFFSET + 8 <= end):
        raise _layout_error()
    pcg_view = memoryview((ctypes.c_uint8 * 32).from_address(pcg)).cast("B")
    flags_view = memoryview(
        (ctypes.c_uint8 * 8).from_address(address + _FLAGS_OFFSET)).cast("B")
    # Known states with every byte distinct and both flags set, so a
    # swapped, shifted or truncated field cannot round-trip.
    dict_in, bytes_in = (
        (int.from_bytes(bytes(range(1 + k, 17 + k)), "little"),
         int.from_bytes(bytes(range(65 + k, 81 + k)), "little"),
         1, 0xA1B2C3D4 + k) for k in (0, 100))
    state, inc, has_uint32, uinteger = dict_in
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": has_uint32, "uinteger": uinteger}
    # Read the views first: a wrong layout raises before anything is
    # written through them.
    if bytes(pcg_view) + bytes(flags_view) != _pcg64_record(*dict_in):
        raise _layout_error()
    record = _pcg64_record(*bytes_in)
    pcg_view[:] = record[:32]
    flags_view[:] = record[32:]
    after = bitgen.state
    if (after["state"]["state"], after["state"]["inc"],
            after["has_uint32"], after["uinteger"]) != bytes_in:
        raise _layout_error()
    return pcg_view, flags_view


def _layout_error() -> RuntimeError:
    return RuntimeError(
        f"numpy {np.__version__}'s PCG64 state layout is not the expected "
        "pcg64_state {pcg_state pointer; int has_uint32; uint32 uinteger} "
        "over a little-endian 128-bit {state; inc}; variate streams "
        "cannot swap states")


class _SeedWords:
    """Precomputed PCG64 seed words behind numpy's public seeding interface.

    ``np.random.PCG64(seed)`` accepts any ``ISeedSequence`` and asks it
    for ``generate_state(4, np.uint64)``; handing it the words a
    ``SeedSequence`` would produce yields the identical generator state.
    The class is registered as a virtual ``ISeedSequence`` when the first
    seeds are derived, so importing this module does not import
    ``numpy.random`` (the artifact-rerun paths never need it).
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's generate_state(4, uint64) is precomputed")
        return self.words


def _used_through_both(name: str) -> ValueError:
    return ValueError(
        f"stream {name!r} is used through both variates() and "
        "generator(); give each its own name"
    )


class StreamFactory:
    """Creates named, independent PCG64 random streams.

    Stream *name* is the PCG64 stream seeded by
    ``SeedSequence(entropy=(seed, replication, crc32(name)))``, so the
    same ``(seed, replication, name)`` always yields the same stream
    regardless of creation order.

    Seeding is batched and lazy: :meth:`variates` only records the name,
    and the first time any stream needs its seed the seed words of every
    name still pending are derived in one vectorised pass.

    :meth:`variates` streams own no generator.  The factory keeps one
    ``Generator`` for all of them and a table of each name's PCG64
    state as a 40-byte record; a refill copies the name's record into
    that generator's state struct, draws the block and copies the state
    back out.  A name's seed words are dropped once its first state is
    built.  Streams that share a name therefore continue one sequence,
    and streams that never draw cost a dict entry.  :meth:`generator`
    hands out a real, cached ``Generator`` per name for callers that
    draw from it directly.  One name cannot be used through both: that
    raises ``ValueError``.

    Parameters
    ----------
    seed:
        Root seed of the experiment run (non-negative).
    replication:
        Repetition index (non-negative); folded into every stream's
        entropy so that each of the *r* repetitions of a 2^k·r design
        is independent.
    """

    def __init__(self, seed: int = 0, replication: int = 0):
        self.seed = int(seed)
        self.replication = int(replication)
        if self.seed < 0 or self.replication < 0:
            raise ValueError(
                f"seed and replication must be >= 0, got seed={self.seed}, "
                f"replication={self.replication}"
            )
        self._prefix = _int_words(self.seed) + _int_words(self.replication)
        #: Generators handed out by :meth:`generator`.
        self._cache: Dict[str, np.random.Generator] = {}
        #: Names registered but not yet derived (insertion-ordered set).
        self._pending: Dict[str, None] = {}
        #: Derived seed words of each name without a state yet: (its
        #: batch's array, row).
        self._seeds: Dict[str, Tuple[np.ndarray, int]] = {}
        #: PCG64 state record of each :meth:`variates` name that has
        #: drawn (see :func:`_pcg64_record`).
        self._states: Dict[str, bytes] = {}
        #: The generator every :meth:`variates` refill draws through,
        #: and byte views of its state (:func:`_state_views`); created
        #: with the first state.
        self._shared: Optional[np.random.Generator] = None
        self._pcg: Optional[memoryview] = None
        self._flags: Optional[memoryview] = None

    def _derive_pending(self) -> None:
        from numpy.random.bit_generator import ISeedSequence

        ISeedSequence.register(_SeedWords)
        names = list(self._pending)
        self._pending.clear()
        keys = np.fromiter(map(_name_to_key, names), dtype=np.uint32,
                           count=len(names))
        words = _pcg64_seed_words(self._prefix, keys)
        self._seeds.update((name, (words, i)) for i, name in enumerate(names))

    def _seed_words(self, name: str) -> np.ndarray:
        """The four PCG64 seed words of *name*."""
        seed = self._seeds.get(name)
        if seed is None:
            self._pending[name] = None
            self._derive_pending()
            seed = self._seeds[name]
        words, row = seed
        return words[row]

    def generator(self, name: str) -> np.random.Generator:
        """Return the generator for stream *name* (cached)."""
        gen = self._cache.get(name)
        if gen is None:
            if name in self._states:
                raise _used_through_both(name)
            gen = np.random.Generator(
                np.random.PCG64(_SeedWords(self._seed_words(name))))
            self._cache[name] = gen
        return gen

    def variates(
        self,
        name: str,
        distribution: Distribution,
        block: int = 1024,
    ) -> "VariateStream":
        """Return a block-buffered scalar variate stream for *name*.

        The stream's state is derived on its first draw, which raises
        ``ValueError`` if :meth:`generator` has handed out *name*.
        """
        if name not in self._seeds and name not in self._states:
            self._pending[name] = None
        return VariateStream(distribution, self, name, block=block)

    def _initial_state(self, name: str) -> bytes:
        if name in self._cache:
            raise _used_through_both(name)
        words = self._seed_words(name)
        del self._seeds[name]
        if self._shared is None:
            # Any seed will do: every draw loads a stream's state first.
            self._shared = np.random.Generator(
                np.random.PCG64(_SeedWords(words)))
            self._pcg, self._flags = _state_views(self._shared.bit_generator)
        return _pcg64_initial_state(words)

    def sample(self, name: str, distribution: Distribution,
               n: int) -> np.ndarray:
        """Draw *n* values of *distribution* from stream *name* and
        advance the stream by exactly what the draw consumed."""
        record = self._states.get(name)
        if record is None:
            record = self._initial_state(name)
        pcg = self._pcg
        flags = self._flags
        pcg[:] = record[:32]
        flags[:] = record[32:]
        block = distribution.sample_block(self._shared, n)
        self._states[name] = bytes(pcg) + bytes(flags)
        return block


class VariateStream:
    """Serves scalar variates from block-prefetched NumPy draws.

    Drawing 1024 lognormals at once and indexing into the result is an
    order of magnitude cheaper per variate than calling the generator
    for each event, which matters because variate draws sit on the
    simulator's hottest path.

    Each refill draws from stream *name* of *factory*.
    """

    __slots__ = ("distribution", "block", "_buf", "_idx", "_next",
                 "_factory", "_name")

    #: First refill size; doubles per refill up to ``block``.  A large
    #: cell creates thousands of streams that each serve only a handful
    #: of draws, so eager full-block prefills would dominate both wall
    #: time and peak RSS — growth keeps prefill work and buffer memory
    #: proportional to what each stream actually consumes (at most 2x),
    #: while hot streams still amortize to full blocks.  NumPy
    #: generators draw values sequentially from the bit stream, so for
    #: every Table-2 workload family the served variate sequence is
    #: independent of the chunking.  (Hyperexponential is the one
    #: exported family whose block draw is two-pass and therefore
    #: chunk-*dependent* — its sequence has always varied with the
    #: ``block`` knob.)
    INITIAL_BLOCK = 16

    def __init__(
        self,
        distribution: Distribution,
        factory: StreamFactory,
        name: str,
        block: int = 1024,
    ):
        if block < 1:
            raise ValueError("block must be >= 1")
        self.distribution = distribution
        self.block = int(block)
        self._factory = factory
        self._name = name
        # Each refill is copied once into packed doubles: indexing an
        # ``array('d')`` serves a native float (no NumPy-scalar box and
        # no float() call per variate), and a buffered value takes 8
        # bytes where a list of floats takes 32 — a large cell holds
        # hundreds of thousands of buffered values.
        self._buf: array = _EMPTY
        self._idx = 0
        self._next = min(self.INITIAL_BLOCK, self.block)

    def _refill(self) -> array:
        n = self._next
        block = self._factory.sample(self._name, self.distribution, n)
        buf = array("d", np.asarray(block, dtype=np.float64).tobytes())
        self._buf = buf
        if n < self.block:
            self._next = min(n * 2, self.block)
        return buf

    def __call__(self) -> float:
        """Next variate."""
        idx = self._idx
        try:
            value = self._buf[idx]
        except IndexError:  # buffer used up (or the initial empty one)
            value = self._refill()[0]
            idx = 0
        self._idx = idx + 1
        return value

    def take_sum(self, n: int) -> float:
        """Sum of the next *n* variates.

        Consumes exactly the same draws as *n* scalar calls — block
        boundaries are preserved, so the variate sequence (and every
        simulation result derived from it) is bit-identical either way.
        The per-draw Python loop is replaced by slice sums, which is
        what makes burst consumers (daemon collect loops) cheap.
        """
        total = 0.0
        idx = self._idx
        buf = self._buf
        remaining = n
        while remaining > 0:
            if idx >= len(buf):
                buf = self._refill()
                idx = 0
            take = len(buf) - idx
            if take > remaining:
                take = remaining
            total += sum(buf[idx:idx + take])
            idx += take
            remaining -= take
        self._idx = idx
        return total

    def draw(self, n: int) -> np.ndarray:
        """Draw *n* variates as an array (bypasses the scalar buffer)."""
        return self._factory.sample(self._name, self.distribution, n)

