"""Tests for the finite-capacity sample pipe."""

import pytest

from repro.rocc import Sample, SamplePipe

from ..des.support import Reader, Writer


def make_sample(t=0.0):
    return Sample(created_at=t, node=0, pid=0)


def test_validation(env):
    with pytest.raises(ValueError):
        SamplePipe(env, per_writer_capacity=0)
    with pytest.raises(ValueError):
        SamplePipe(env, writers=0)


def test_capacity_scales_with_writers(env):
    pipe = SamplePipe(env, per_writer_capacity=10, writers=3)
    assert pipe.capacity == 30


def test_put_get_roundtrip(env):
    pipe = SamplePipe(env, per_writer_capacity=4)
    Writer(env, pipe, [make_sample(1.0)])
    reader = Reader(env, pipe, n=1)
    env.run()
    assert [s.created_at for s, _ in reader.got] == [1.0]


def test_full_pipe_blocks_writer_and_charges_blocked_time(env):
    pipe = SamplePipe(env, per_writer_capacity=2)
    writer = Writer(env, pipe, [make_sample(float(i)) for i in range(3)])
    env.timeout(50).callbacks.append(lambda _ev: pipe.get())
    env.run()
    sample, accepted_at = writer.accepted[-1]
    assert (sample.created_at, accepted_at) == (2.0, 50.0)
    assert pipe.blocked_puts == 1
    assert pipe.blocked_time == pytest.approx(50.0)


def test_no_block_accounting_when_space(env):
    pipe = SamplePipe(env, per_writer_capacity=8)
    Writer(env, pipe, [make_sample()])
    env.run()
    assert pipe.blocked_puts == 0
    assert pipe.blocked_time == 0.0


def test_is_full_and_len(env):
    pipe = SamplePipe(env, per_writer_capacity=2)
    Writer(env, pipe, [make_sample(), make_sample()])
    env.run()
    assert len(pipe) == 2
    assert pipe.is_full


def test_fifo_order(env):
    pipe = SamplePipe(env, per_writer_capacity=10)
    Writer(env, pipe, [make_sample(float(i)) for i in range(5)])
    reader = Reader(env, pipe, n=5)
    env.run()
    assert [s.created_at for s, _ in reader.got] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_reader_blocks_on_empty(env):
    pipe = SamplePipe(env, per_writer_capacity=4)
    reader = Reader(env, pipe, n=1)
    Writer(env, pipe, [make_sample(9.0)], delay=30)
    env.run()
    assert [(s.created_at, t) for s, t in reader.got] == [(9.0, 30.0)]
