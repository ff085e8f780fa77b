import collections
import functools
import random

from ncsym import setparts, verify


def test_each_weight_enumerated_once_per_run(monkeypatch):
    # The checks share one list per weight; hopf.primitive_space_dimension and
    # hall_span_check, public functions of a weight, enumerate on their own.
    calls = collections.Counter()
    enumerate_partitions = setparts.set_partitions

    def counted(n):
        calls[n] += 1
        return enumerate_partitions(n)

    monkeypatch.setattr(setparts, "set_partitions", counted)
    results = verify.run_checks(max_weight=3)
    assert len(results) == len(verify.CHECK_NAMES) and all(r.ok for r in results)
    # cardinalities counts Bell(n) for n up to 8; the pools take weights 0..3.
    assert calls == {n: 1 for n in range(9)}


def pair_pool_by_list(max_weight, rng, partitions):
    """``_pair_pool`` as it was, sampling a list of every candidate pair: the
    referee of the index-decoding sampler."""
    by_weight = {n: partitions(n) for n in range(0, max_weight + 1)}
    pairs = []
    cap = min(max_weight, verify.EXHAUSTIVE_CAP)
    for total in range(0, cap + 1):
        for a in range(0, total + 1):
            for left in by_weight[a]:
                for right in by_weight[total - a]:
                    pairs.append((left, right))
    for total in range(cap + 1, max_weight + 1):
        candidates = [
            (left, right)
            for a in range(total + 1)
            for left in by_weight[a]
            for right in by_weight[total - a]
        ]
        pairs.extend(rng.sample(candidates, min(verify.SAMPLE_PAIRS, len(candidates))))
    return pairs


def test_pair_pool_draws_as_list_sampling():
    partitions = functools.cache(lambda n: list(setparts.set_partitions(n)))
    for max_weight in (3, 6, 7):
        for seed in (0, 1, 5, 17):
            rng, referee = random.Random(seed), random.Random(seed)
            pool = verify._pair_pool(max_weight, rng, partitions)
            assert pool == pair_pool_by_list(max_weight, referee, partitions)
            assert rng.getstate() == referee.getstate()
