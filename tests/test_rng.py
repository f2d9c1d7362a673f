"""``spawn_rngs`` against numpy's own ``SeedSequence.spawn``: the same streams, bit for bit."""
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import zonoids
from zonoids.rng import spawn_rngs

SRC = os.path.dirname(os.path.dirname(zonoids.__file__))


def draws(generators):
    return [g.integers(0, 2**63, 4).tolist() + g.standard_normal(2).tolist() for g in generators]


def reference(seq, n):
    return [np.random.default_rng(s) for s in seq.spawn(n)]


@pytest.mark.parametrize("n", [1, 2, 3000])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 1, 2**200 + 5, [7, 2**40, 0]])
def test_int_seeds_give_numpys_children(seed, n):
    assert draws(spawn_rngs(seed, n)) == draws(reference(np.random.SeedSequence(seed), n))


@pytest.mark.parametrize("n", [1, 2, 3000])
def test_a_spawned_sequence_with_a_large_pool_advances_as_numpys(n):
    def parent():
        return np.random.SeedSequence(2**70 + 9, spawn_key=(3, 2**33), pool_size=8, n_children_spawned=5)

    ours, theirs = parent(), parent()
    for _ in range(2):  # the second call must continue where the first stopped
        assert draws(spawn_rngs(ours, n)) == draws(reference(theirs, n))
        assert ours.n_children_spawned == theirs.n_children_spawned
    assert theirs.n_children_spawned == 5 + 2 * n


@pytest.mark.parametrize("n", [1, 2, 3000])
def test_a_generator_spawns_from_its_seed_sequence(n):
    ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(2):
        assert draws(spawn_rngs(ours, n)) == draws(reference(theirs.bit_generator.seed_seq, n))
    assert ours.bit_generator.seed_seq.n_children_spawned == 2 * n
    assert ours.random() == theirs.random()  # spawning draws nothing from the parent


def test_grandchildren_and_nested_spawns_match():
    ours, theirs = spawn_rngs(5, 3), reference(np.random.SeedSequence(5), 3)
    ours_seq, theirs_seq = ours[1].bit_generator.seed_seq, theirs[1].bit_generator.seed_seq
    assert (ours_seq.entropy, ours_seq.spawn_key, ours_seq.pool_size) == (5, (1,), 4)
    for _ in range(2):
        assert draws(np.random.default_rng(s) for s in ours_seq.spawn(2)) == \
            draws(np.random.default_rng(s) for s in theirs_seq.spawn(2))
    assert ours_seq.n_children_spawned == theirs_seq.n_children_spawned == 4
    # a spawned generator passed back in, as nested parallel sections do
    assert draws(spawn_rngs(ours[2], 3)) == draws(spawn_rngs(theirs[2], 3)) == \
        draws(reference(np.random.SeedSequence(5, spawn_key=(2,)), 3))


def test_a_child_sequence_answers_other_state_requests_and_pickles():
    child = spawn_rngs(9, 2)[1]
    seq, ref = child.bit_generator.seed_seq, np.random.SeedSequence(9).spawn(2)[1]
    for n_words, dtype in ((4, np.uint64), (4, "u8"), (3, np.uint32), (8, np.uint64)):
        assert np.array_equal(seq.generate_state(n_words, dtype), ref.generate_state(n_words, dtype))
    with pytest.raises(ValueError):
        seq.generate_state(4, np.uint64)[0] = 0  # the shared seed words are read-only
    copy = pickle.loads(pickle.dumps(child))
    assert copy.random() == child.random()


def test_no_children():
    assert spawn_rngs(3, 0) == []


def test_importing_the_package_loads_numpy_random_only_if_numpy_does():
    # numpy 2 loads numpy.random lazily (numpy 1 at its own import); the package defers it to the first draw
    code = ("import sys, numpy; eager = 'numpy.random' in sys.modules; import zonoids; "
            "assert eager or 'numpy.random' not in sys.modules, 'numpy.random imported'")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
