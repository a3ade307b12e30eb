"""The batched trial engine against numpy and against scalar oracles.

The engine reads each block of trials' Philox words from one numpy
random_raw call and consumes them the way numpy's Generator does. These
tests pin the words to Philox4x64-10 written out in tests/oracles.py (and
that to its known answers), pin the words and the draws to numpy itself,
replay numpy's 32-bit buffering on crafted words, and check every record
and aggregate of fwt, empirical signal and asc against the scalar loops of
tests/oracles.py: one numpy Generator per trial and the inverse-CDF rule
written out there.
"""

import json
import sys
import threading
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from collapsim import kochen_specker, policies
from collapsim.cli import MAX_TRIALS, build_config, render_report, run
from collapsim.errors import BadParameter, CollapsimError
from collapsim.policies import total_variation
from collapsim.quantum import ProbabilityDistribution
from collapsim.rng import (
    TRIAL_BLOCK,
    Diverged,
    TrialStreams,
    _blocks,
    cumulative,
    run_blocks,
    sample_indices,
    trial_rng,
)
from collapsim.signaling import channel_capacity
from oracles import (
    ALL_COUNTERS,
    asc_records,
    fwt_records,
    philox4x64,
    signal_outcomes,
    trial_counter,
    trial_generator,
    within_block,
)

MAX64 = 2**64 - 1
B = TRIAL_BLOCK


# --- (a) the streams against numpy's Philox ------------------------------------


def _two_blocks(seed, prefix, first, rows):
    """Blocks 0 and 1 of the streams of trials first..first+rows-1, as one
    (rows, 8) array: the fifth column draw computes block 1."""
    streams = TrialStreams(seed, trial_counter(first, prefix), rows)
    for _ in range(5):
        streams.random()
    return streams.words


@pytest.mark.parametrize("seed", [0, 13, MAX64])
@pytest.mark.parametrize("prefix", [(), (5,), (MAX64,), (3, MAX64)])
def test_stream_words_match_numpy_philox(seed, prefix):
    for first in (0, 2**32 - 2, MAX64 - 3):  # runs from 0, across 2**32, up to the last
        words = _two_blocks(seed, prefix, first, 4)
        for row, trial in enumerate(range(first, first + 4)):
            for block in (0, 1):
                raw = trial_generator(seed, trial, prefix, block).bit_generator.random_raw(4)
                assert words[row, 4 * block:4 * block + 4].tolist() == raw.tolist()


def test_numpy_counter_words_are_the_stream_layout():
    # the 256-bit counter is [t, p0, p1, b] word by word, so the words of
    # trial t > 0 are also numpy's block after the array counter [t - 1, p0, p1, b]
    for seed, t, prefix, block in [(7, 9, (4, 2), 0), (7, 9, (4,), 3), (0, 1, (), 1)]:
        counter = np.array([t - 1, *prefix, 0, 0][:3] + [block], dtype=np.uint64)
        raw = np.random.Philox(key=seed, counter=counter).random_raw(4)
        streams = TrialStreams(seed, trial_counter(t, prefix, block), 1)
        assert streams.words.tolist() == [raw.tolist()]


#: Random123's known answers for Philox4x64-10: counter words, key words, block
PHILOX_KNOWN_ANSWERS = [
    ((0, 0, 0, 0), (0, 0),
     (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)),
    ((MAX64,) * 4, (MAX64, MAX64),
     (0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)),
    ((0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89),
     (0x452821E638D01377, 0xBE5466CF34E90C6C),
     (0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6)),
]


@pytest.mark.parametrize("words, key, block", PHILOX_KNOWN_ANSWERS)
def test_philox_oracle_known_answers(words, key, block):
    assert philox4x64(sum(w << 64 * i for i, w in enumerate(words)), key) == block


@pytest.mark.parametrize("seed, counter", [
    (7, 0),  # _blocks sets counter - 1, all ones, which numpy's step wraps to 0
    (7, MAX64 - 1),  # the third block's word 0 carries into word 1
    (MAX64, trial_counter(5, (MAX64, 3), 2)),  # the largest seed, every word set
    (MAX64, ALL_COUNTERS - 2),  # the last two counters, then 0 again
])
def test_blocks_match_philox_written_out(seed, counter):
    # the stream words against the generator itself, not against numpy's Philox
    expected = [list(philox4x64((counter + i) % ALL_COUNTERS, (seed, 0))) for i in range(3)]
    assert _blocks(seed, counter, 3).tolist() == expected


def test_draws_match_a_generator_per_trial():
    # each trial's draws inside its block 0, against numpy's Generator there
    t = np.arange(500, dtype=np.uint64)
    streams = TrialStreams(21, trial_counter(0, (3,)), t.size)
    # 64-bit words 0 (both halves), 1, 2 and the low half of 3: block 0 only
    draws = [streams.integers(18), streams.random(), streams.integers(5),
             streams.integers(1), streams.random(), streams.integers(1000)]
    for trial in t.tolist():
        rng = trial_generator(21, trial, (3,))
        expected = [rng.integers(18), rng.random(), rng.integers(5),
                    rng.integers(1), rng.random(), rng.integers(1000)]
        assert [d[trial] for d in draws] == expected
        scalar = trial_rng(21, 3, trial)
        assert [d[0] for d in (scalar.integers(18), scalar.random(), scalar.integers(5),
                               scalar.integers(1), scalar.random(), scalar.integers(1000))] == expected


def test_trial_crossing_into_block_1():
    # words 0-2 as floats and the low half of word 3; then block 1's word 0,
    # the buffered high half of block 0's word 3, and block 1's word 1
    block0, block1 = trial_generator(4, 70, (2,)), trial_generator(4, 70, (2,), block=1)
    expected = [block0.random(), block0.random(), block0.random(), block0.integers(7),
                block1.random(), block0.integers(7), block1.random()]
    streams = TrialStreams(4, trial_counter(70, (2,)), 1)
    got = []
    for draw in ["random"] * 3 + ["integers", "random", "integers", "random"]:
        got.append(streams.random() if draw == "random" else streams.integers(7))
    assert [x[0] for x in got] == expected
    scalar = trial_rng(4, 2, 70)
    assert [d[0] for d in (scalar.random(), scalar.random(), scalar.random(), scalar.integers(7),
                           scalar.random(), scalar.integers(7), scalar.random())] == expected


def test_rows_crossing_a_block_in_different_calls():
    # one-row streams of trials 0-2: trial 0 computes block 1, trials 1 and 2
    # blocks 1 and 2, each in its own call
    counts = [6, 9, 9]
    draws_of = []
    for row, count in enumerate(counts):
        streams = TrialStreams(0, trial_counter(row), 1)
        draws_of.append([streams.random() for _ in range(count)])
        assert streams.words.shape == (1, 4 * (1 + (count - 1) // 4))
    for row, draws in enumerate(draws_of):
        blocks = [trial_generator(0, row, block=b) for b in range(3)]
        expected = [rng.random() for rng in blocks for _ in range(4)]
        assert [d[0] for d in draws] == expected[:len(draws)]


def test_trial_rng_reads_one_trial():
    rng = trial_rng(5, 9)
    assert type(rng) is TrialStreams and rng.words.shape == (1, 4)
    value, index = rng.random(), rng.integers(1000)
    numpy_rng = trial_generator(5, 9)
    assert [value.tolist(), index.tolist()] == [[numpy_rng.random()], [numpy_rng.integers(1000)]]
    # no key is trial 0; a prefix shorter than two words is padded with 0
    assert trial_rng(5).random() == trial_rng(5, 0).random() == trial_generator(5, 0).random()
    assert trial_rng(5, 0, 9).random() == trial_rng(5, 9).random()


def test_trial_rng_keeps_keys_above_2_63_apart():
    assert trial_rng(0, 2**63).random() != trial_rng(0, 2**63 + 1).random()
    assert trial_rng(0, 2**63, 1).random() != trial_rng(0, 2**63 + 1, 1).random()


def _no_block(streams, t):
    raise AssertionError(f"a block of {t.size} trials opened")


@pytest.mark.parametrize(
    "make",
    [
        lambda: trial_rng(2**64),  # would alias seed 0
        lambda: trial_rng(2**64 + 7),
        lambda: trial_rng(-1),  # would alias 2**64 - 1
        lambda: trial_rng(0.5),
        lambda: trial_rng(0, 2**64),  # would alias trial 0
        lambda: trial_rng(0, -1),
        lambda: trial_rng(0, 2**64, 3),  # a prefix word
        lambda: trial_rng(0, 1, -2, 3),
        lambda: trial_rng(0, 1, 2, 3, 4),  # three prefix words
        # a run's keys are checked before its first block is opened
        lambda: next(run_blocks(2**64, (), 1, _no_block)),
        lambda: next(run_blocks(-1, (), 1, _no_block)),
        lambda: next(run_blocks(0, (), 2**64 + 1, _no_block)),  # the range's end
        lambda: next(run_blocks(0, (2**64,), 1, _no_block)),
        lambda: next(run_blocks(0, (1, -2), 1, _no_block)),
        lambda: next(run_blocks(0, (1, 2, 3), 1, _no_block)),  # three prefix words
    ],
)
def test_bad_stream_keys_are_refused_not_wrapped(make):
    with pytest.raises(BadParameter):
        make()


def test_trial_indices_never_carry_into_the_prefix():
    # the last block of the largest run still fits counter word 0
    assert MAX_TRIALS + TRIAL_BLOCK < 2**64


# --- (b) Lemire's method on crafted words --------------------------------------


def _crafted_generator(words):
    bit_gen = np.random.Philox(key=0)
    state = bit_gen.state
    state["buffer"] = np.array(words, dtype=np.uint64)
    state["buffer_pos"] = 0
    bit_gen.state = state
    return np.random.Generator(bit_gen)


@pytest.mark.parametrize(
    "words",
    [
        # low half 0 is rejected for n = 18; the high half of the same word is used
        [0x80000001_00000000, 0x12345678_9ABCDEF0, 7 << 40, 9],
        # both halves rejected: the low half of the next word is used
        [0, 0x00000003_40000000, 1 << 63, 5],
        # accepted low half: the high half stays buffered for the next 32-bit draw
        [0xC0000000_40000000, 0x0F0F0F0F_F0F0F0F0, 3 << 61, 11],
        # the retry itself hits a buffered half after a 64-bit draw
        [0x00000000_00000001, 0x00000000_00000002, 0xFFFFFFFF_00000000, 1 << 62],
    ],
)
def test_lemire_retry_follows_numpy_buffering(words):
    streams = trial_rng(0)
    streams.words = np.array([words], dtype=np.uint64)
    got = [int(streams.integers(18)[0]), float(streams.random()[0]), int(streams.integers(18)[0])]
    rng = _crafted_generator(words)
    assert got == [int(rng.integers(18)), rng.random(), int(rng.integers(18))]


def test_low_half_zero_retries_on_high_half():
    streams = trial_rng(0)
    streams.words = np.array([[0x80000001_00000000, 0, 0, 0]], dtype=np.uint64)
    assert streams.integers(18).tolist() == [9]
    assert streams.pos == 1 and streams._half_at < 0  # no half buffered


# --- (b') interleaved draws: column draws and Lemire retries ------------------

ROWS = 5
# Lemire rejects about half the 32-bit draws at n = 2**31 + 1
_BOUNDS = st.sampled_from([1, 2, 7, 18, 2**31 + 1, 2**32 - 1])
_DRAWS = st.lists(
    st.tuples(st.sampled_from(["random", "integers"]), _BOUNDS), min_size=1, max_size=14
)


def _stream_generator(seed, t, prefix):
    """numpy's Generator on trial t's stream through block 1: block 0 is its
    buffer, block 1 the block its Philox makes next."""
    rng = trial_generator(seed, t, prefix, block=1)
    state = rng.bit_generator.state
    state["buffer"] = trial_generator(seed, t, prefix).bit_generator.random_raw(4)
    state["buffer_pos"] = 0
    rng.bit_generator.state = state
    return rng


def _rejects(rng, n):
    """Whether Lemire's method at bound n rejects numpy Generator rng's next
    32-bit draw, read from a copy of its bit generator."""
    probe = np.random.Generator(np.random.Philox())
    probe.bit_generator.state = rng.bit_generator.state
    x = int(probe.integers(2**32, dtype=np.uint32))  # next_uint32, buffered half first
    return (x * n) % 2**32 < (2**32 - n) % n


def _draw(source, kind, n):
    return source.random() if kind == "random" else source.integers(n)


@settings(max_examples=150, deadline=None)
@given(draws=_DRAWS, seed=st.sampled_from([0, 9, MAX64]), first=st.sampled_from([0, 4091, 2**40]))
@example(draws=[("random", 1)] * 6, seed=0, first=0)  # every row into block 1
@example(draws=[("integers", 2**31 + 1)] * 4 + [("random", 1)], seed=9, first=0)
@example(draws=[("integers", 7), ("random", 1), ("integers", 18)], seed=0, first=0)
def test_interleaved_draws_match_a_generator_per_trial(draws, seed, first):
    trials = range(first, first + ROWS)
    # a one-row stream retries a rejected draw in place, at every bound
    for trial in trials:
        streams = TrialStreams(seed, trial_counter(trial, (2,)), 1)
        rng = _stream_generator(seed, trial, (2,))
        got = [_draw(streams, kind, n).tolist()[0] for kind, n in draws]
        expected = [_draw(rng, kind, n) for kind, n in draws]
        assume(within_block(rng, trial, (2,), 1))  # the oracle holds through block 1 only
        assert got == expected
    # several rows draw whole columns, until some row's draw is rejected
    streams = TrialStreams(seed, trial_counter(first, (2,)), ROWS)
    rngs = [_stream_generator(seed, trial, (2,)) for trial in trials]
    for kind, n in draws:
        if kind == "integers" and any(_rejects(rng, n) for rng in rngs):
            with pytest.raises(Diverged):
                streams.integers(n)
            return
        assert _draw(streams, kind, n).tolist() == [_draw(rng, kind, n) for rng in rngs]


# --- (b'') a block some row's Lemire draw rejects is redrawn trial by trial ------


class _Drawn(NamedTuple):
    trial: np.ndarray
    index: np.ndarray
    u: np.ndarray


@pytest.mark.parametrize("seed", [0, 9])
def test_diverged_blocks_are_redrawn_trial_by_trial(seed):
    prefix, trials, n = (3, 7), 5000, 2**31 + 1  # Lemire rejects about half at n
    sizes = []

    def block(streams, t):
        sizes.append(t.size)
        return _Drawn(t, streams.integers(n), streams.random())

    drawn = _Drawn._make(map(np.concatenate, zip(*run_blocks(seed, prefix, trials, block))))
    # both blocks diverged, and each trial was redrawn on its own one-row stream
    assert sizes == [B, *[1] * B, trials - B, *[1] * (trials - B)]
    assert drawn.trial.tolist() == list(range(trials))
    in_block_0 = 0
    for t in range(trials):
        rng = trial_rng(seed, *prefix, t)
        expected = (int(rng.integers(n)[0]), float(rng.random()[0]))
        assert (int(drawn.index[t]), float(drawn.u[t])) == expected
        generator = trial_generator(seed, t, prefix)
        numpy_draws = (int(generator.integers(n)), generator.random())
        if within_block(generator, t, prefix):
            in_block_0 += 1
            assert numpy_draws == expected
    assert in_block_0 > 0.9 * trials


def _diverging_integers(monkeypatch):
    """Make TrialStreams.integers raise Diverged on every stream of several
    rows; returns the list of the row counts it raised on."""
    real, raised = TrialStreams.integers, []

    def integers(self, n):
        if len(self.words) > 1:
            raised.append(len(self.words))
            raise Diverged
        return real(self, n)

    monkeypatch.setattr(TrialStreams, "integers", integers)
    return raised


def test_redrawn_fwt_blocks_keep_their_records(monkeypatch):
    raw = {"experiment": "fwt", "seed": 3, "trials": B + 1, "per_trial": True,
           "context": 2, "bob_ray": "random", "policy": "scripted:3,9,0,1"}
    expected = _report(raw)
    raised = _diverging_integers(monkeypatch)
    assert _report(raw) == expected
    assert raised == [B]  # block 1 is one trial, which draws on one row


def test_redrawn_signal_blocks_keep_their_marginals(monkeypatch):
    raw = {"experiment": "signal", "seed": 3, "mode": "empirical", "trials": B + 1,
           "policy0": "born", "policy1": "scripted:1,4,0", "alice_basis0": "z",
           "alice_basis1": "x", "bob_basis": "z"}
    # the marginals count outcomes, so the paired blocks are compared too
    plan = policies.compile_policy(policies.parse_policy("scripted:1,4,0"),
                                   ProbabilityDistribution([0.3, 0.7]), B + 1)
    draw = partial(policies.paired_block, plan, cumulative([[0.6, 0.4], [0.1, 0.9]]))

    def paired():
        return [[field.tolist() for field in block] for block in run_blocks(3, (1,), B + 1, draw)]

    expected = _report(raw)[1], paired()
    raised = _diverging_integers(monkeypatch)  # integers(1) raises too
    assert (_report(raw)[1], paired()) == expected
    assert raised == [B, B, B]  # block 0 of each setting, and of the paired blocks


def test_stream_words_from_threads_at_once_equal_serial_words():
    # each thread sets the key and counter of its own Philox: threads that
    # shared one would read each other's counters
    calls = [(seed, prefix, first, size)
             for seed in (0, 7, MAX64) for prefix in ((), (3,), (1, MAX64))
             for first, size in ((0, 1), (2**33, 64), (MAX64 - 4, 5))]
    serial = [_two_blocks(*call) for call in calls]
    workers = 4  # more than the cores of a small machine
    start = threading.Barrier(workers)
    results = [None] * workers

    def work(i):
        start.wait()
        results[i] = [_two_blocks(*call) for call in calls * 10]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for words in results:
        assert all(np.array_equal(w, s) for w, s in zip(words, serial * 10))


# --- (c) the inverse-CDF rule: one table's binary search against the column count -----


# zeros, ties, exact binary fractions and their sums, and arbitrary weights
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5, 1 / 3, 1.0, 2.0]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(_WEIGHTS, min_size=1, max_size=12),
    us=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8),
)
@example(weights=[0.0, 0.5, 0.0, 0.5, 0.0], us=[0.0, 0.5])  # zero entries, u at an entry
@example(weights=[0.0, 0.0], us=[0.3])  # an all-zero table
def test_one_table_binary_search_equals_column_count(weights, us):
    cums = cumulative(weights)
    total = cums[-1]
    # and uniforms whose product with the total lands exactly on an entry
    u = np.array(us + [c / total for c in cums if 0 < c < total and c / total * total == c])
    searched = sample_indices(u, cums)
    counted = sample_indices(u, cums[None], np.zeros(u.size, dtype=np.intp))
    assert searched.tolist() == counted.tolist()
    # the entries <= u * total, clipped to the last index
    expected = [min(int((cums <= x * total).sum()), len(cums) - 1) for x in u.tolist()]
    assert searched.tolist() == expected


# --- (d) differential: every record and aggregate against the scalar oracles ------------


def _fwt_aggregate(records, context, policy_text):
    in_context = sum(r["in_context"] for r in records)
    agreements = sum(r["agree"] is True for r in records)
    detections = sum(r["bob_value"] for r in records)
    return {
        "trials": len(records), "context": context,
        "policy": policies.describe_policy(policies.parse_policy(policy_text)),
        "in_context_trials": in_context, "agreements": agreements,
        "agreement_exact": agreements == in_context, "detections": detections,
        "detection_rate": detections / len(records),
    }


def _report(raw):
    """The trial records, read back from the rendered report, and the aggregate."""
    report = run(build_config(raw))
    lines = render_report(report, "json-lines").splitlines()
    return [json.loads(line) for line in lines[1:-2]], report.aggregate


def _same(a, b):
    """json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True). Two lists
    are compared item by item, which is the same check, so a failure names the
    first differing record rather than diff two dumps of a megabyte."""
    dump = partial(json.dumps, sort_keys=True)
    if not (isinstance(a, list) and isinstance(b, list)):
        assert dump(a) == dump(b)
        return
    for i, (x, y) in enumerate(zip(map(dump, a), map(dump, b))):
        assert x == y, f"record {i} of {len(a)} against {len(b)} differs"
    assert len(a) == len(b), f"{len(a)} records against {len(b)}"


FWT_CASES = [
    # (context, bob_ray, policy); the first is criterion 13's configuration
    (1, "random", "born"),
    (4, "random", "forced:2"),
    (7, "random", "biased:0.1,0.2,0.3,0.4"),
    (2, "random", "scripted:3,9,0,1"),
    (9, "1,1,1,-1", "scripted:1,-2,7;fallback=forced:3"),
    (3, "1,1,0,0", "born"),
    (5, "0,0,0,1", "forced:1"),
]


@pytest.mark.parametrize("context,ray,policy", FWT_CASES)
def test_fwt_records_equal_scalar_loop(context, ray, policy):
    trials = 500 if policy == "born" and ray == "random" else 300
    records, aggregate = _report({"experiment": "fwt", "seed": 13, "trials": trials,
                                  "per_trial": True, "context": context,
                                  "bob_ray": ray, "policy": policy})
    expected = fwt_records(13, trials, context, ray, policy)
    _same(records, expected)
    _same(aggregate, _fwt_aggregate(expected, context, policy))


SIGNAL_CASES = [
    # (policy0, policy1, alice bases, bob basis); the first is criterion 13's
    ("born", "biased:0.8,0.2", "zz", "z"),
    ("forced:0", "forced:1", "xx", "x"),
    ("born", "scripted:1,4,0", "zx", "z"),
    ("scripted:0,0,1;fallback=forced:1", "biased:0.3,0.7", "xz", "x"),
]


@pytest.mark.parametrize("policy0,policy1,bases,bob_basis", SIGNAL_CASES)
def test_signal_marginals_equal_scalar_loop(policy0, policy1, bases, bob_basis):
    trials = 400
    _, aggregate = _report({"experiment": "signal", "seed": 13, "mode": "empirical",
                            "trials": trials, "policy0": policy0, "policy1": policy1,
                            "alice_basis0": bases[0], "alice_basis1": bases[1],
                            "bob_basis": bob_basis})
    outcomes = signal_outcomes(13, trials, (policy0, policy1), bases, bob_basis)
    marginals = [np.bincount(o, minlength=2) / trials for o in outcomes]
    assert aggregate["bob_marginal_0"] == marginals[0].tolist()
    assert aggregate["bob_marginal_1"] == marginals[1].tolist()
    assert aggregate["max_tv"] == total_variation(*marginals)
    transition = np.stack(marginals)
    bits = channel_capacity(transition / transition.sum(axis=1, keepdims=True))
    assert aggregate["channel_bits"] == bits


ASC_CASES = [
    # (labels, priorities, norm, mixing, agent); the first is criterion 13's
    ("0,1", "1,1", "0,1", 1.0, "collapse"),
    ("a,b,c", "0.5,0.3,0.2", "1,1,0", 1.0, "collapse"),     # tie at the optimum
    ("a,b,c,d", "0.4,0.0,0.35,0.25", "2,2,2,0", 0.5, "collapse"),  # zero priority, tie
    ("x,y", "0.3,0.7", "1,1", 0.0, "collapse"),
    ("p,q,r", "0.2,0.3,0.5", "0,1,0", 0.5, "collapse"),
    ("a,b,c", "0.2,0.0,0.8", "1,5,1", 1.0, "compute"),
]


@pytest.mark.parametrize("labels,priorities,norm,mixing,kind", ASC_CASES)
def test_asc_records_equal_scalar_loop(labels, priorities, norm, mixing, kind):
    trials = 300
    records, aggregate = _report({"experiment": "asc", "seed": 13, "trials": trials,
                                  "per_trial": True, "labels": labels,
                                  "priorities": priorities, "norm": norm,
                                  "mixing": mixing, "agent": kind})
    label_list = labels.split(",")
    expected = asc_records(13, trials, label_list, [float(p) for p in priorities.split(",")],
                           [float(v) for v in norm.split(",")], mixing, kind)
    _same(records, expected)
    counts = {label: sum(r["label"] == label for r in expected) for label in label_list}
    assert aggregate["counts"] == counts


@pytest.fixture(scope="module")
def long_oracles():
    """Scalar records of trials 0..B, shared by the block-boundary cases."""
    return {
        "fwt": fwt_records(5, B + 1, 6, "random", "scripted:0,8,2"),
        "asc": asc_records(5, B + 1, ["a", "b", "c"], [0.5, 0.2, 0.3], [1.0, 1.0, 0.0], 0.5),
        "signal": signal_outcomes(5, B + 1, ("forced:0", "biased:0.35,0.65"), "xx", "x"),
    }


@pytest.mark.parametrize("trials", [1, B - 1, B, B + 1])
def test_block_boundaries(trials, long_oracles):
    records, aggregate = _report({"experiment": "fwt", "seed": 5, "trials": trials,
                                  "per_trial": True, "context": 6,
                                  "policy": "scripted:0,8,2"})
    expected = long_oracles["fwt"][:trials]
    _same(records, expected)
    _same(aggregate, _fwt_aggregate(expected, 6, "scripted:0,8,2"))

    records, aggregate = _report({"experiment": "asc", "seed": 5, "trials": trials,
                                  "per_trial": True, "labels": "a,b,c",
                                  "priorities": "0.5,0.2,0.3", "norm": "1,1,0",
                                  "mixing": 0.5})
    _same(records, long_oracles["asc"][:trials])

    _, aggregate = _report({"experiment": "signal", "seed": 5, "mode": "empirical",
                            "trials": trials, "policy0": "forced:0",
                            "policy1": "biased:0.35,0.65", "alice_basis0": "x",
                            "alice_basis1": "x", "bob_basis": "x"})
    for label, outcomes in zip("01", long_oracles["signal"]):
        marginal = np.bincount(outcomes[:trials], minlength=2) / trials
        assert aggregate[f"bob_marginal_{label}"] == marginal.tolist()


@pytest.mark.parametrize("context,ray", [(3, "1,1,0,0"), (5, "1,1,0,0")])
def test_fixed_ray_block_boundary(context, ray):
    # one setting of the full 72-row table, in Alice's context and out of it
    policy = "scripted:0,8,2"
    records, aggregate = _report({"experiment": "fwt", "seed": 6, "trials": B + 1,
                                  "per_trial": True, "context": context,
                                  "bob_ray": ray, "policy": policy})
    expected = fwt_records(6, B + 1, context, ray, policy)
    _same(records, expected)
    _same(aggregate, _fwt_aggregate(expected, context, policy))
    assert {r["in_context"] for r in expected} == {context == 3}


def test_records_skipped_without_per_trial():
    records, aggregate = _report({"experiment": "fwt", "seed": 2, "trials": 50})
    assert records == [] and aggregate["trials"] == 50
    records, _ = _report({"experiment": "asc", "seed": 2, "trials": 50})
    assert records == []


@pytest.mark.parametrize(
    "raw",
    [
        {"experiment": "fwt", "policy": "biased:0.5,0.5"},
        {"experiment": "fwt", "policy": "scripted:0,1;fallback=forced:7", "trials": 3},
        {"experiment": "signal", "mode": "empirical", "policy1": "forced:3"},
        {"experiment": "signal", "mode": "empirical", "policy0": "biased:0.2,0.3,0.5"},
    ],
)
def test_errors_match_scalar_path(raw):
    with pytest.raises(CollapsimError) as batched:
        run(build_config({"seed": 0, "trials": 10, **raw}))
    if raw["experiment"] == "fwt":
        scalar = lambda: fwt_records(0, raw.get("trials", 10), policy_text=raw["policy"])
    else:
        scalar = lambda: signal_outcomes(0, 10, (raw.get("policy0", "born"),
                                                raw.get("policy1", "born")), "zz", "z")
    with pytest.raises(CollapsimError) as expected:
        scalar()
    assert type(batched.value) is type(expected.value)
    assert str(batched.value) == str(expected.value)


def test_script_reached_only_in_range_needs_no_fallback():
    raw = {"experiment": "fwt", "seed": 0, "trials": 2, "context": 1,
           "policy": "scripted:0,1;fallback=forced:7"}
    records, _ = _report({**raw, "per_trial": True})
    assert [r["alice_outcome"] for r in records] == [0, 1]


def test_scripted_trials_independent_of_run_order():
    # one instance serves every trial: forwards, in reverse and batched alike
    policy = policies.Scripted((2, 3, 0))
    rays = kochen_specker.builtin_ks_table().distinct_rays

    def record(t):
        rng = trial_rng(0, t)
        ray = rays[rng.integers(len(rays))[0]]
        trial = kochen_specker.fwt_trial(1, ray, policy, rng, trial=t)
        return trial.alice_outcome, str(trial.bob_ray), trial.bob_value

    forwards = [record(t) for t in range(10)]
    backwards = [record(t) for t in reversed(range(10))][::-1]
    (block,) = kochen_specker.fwt_trials(1, None, policy, 0, 10)
    # each code's record, from the context's alphabet
    records = [kochen_specker.fwt_alphabet(1)[0][code] for code in block.code.tolist()]
    batched = [(r["alice_outcome"], r["bob_ray"], r["bob_value"]) for r in records]
    assert forwards == backwards == batched
    assert [outcome for outcome, _, _ in forwards[:3]] == [2, 3, 0]
