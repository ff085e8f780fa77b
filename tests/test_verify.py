import collections
import functools
import random

import pytest

from ncsym import hopf, setparts, verify


def test_each_weight_enumerated_once_per_run(monkeypatch):
    # The checks share one list per weight, hopf's binding included:
    # hall-span hands that list to the bodies of primitive_space_dimension
    # and lyndon_atom_words, and their results to hopf._hall_span, which
    # enumerates nothing.  The atomic enumeration case walks growth strings
    # instead of calling atomic_set_partitions.
    calls = collections.Counter()
    enumerate_partitions = setparts.set_partitions

    def counted(n):
        calls[n] += 1
        return enumerate_partitions(n)

    monkeypatch.setattr(setparts, "set_partitions", counted)
    monkeypatch.setattr(hopf, "set_partitions", counted)
    results = verify.run_checks(max_weight=3)
    assert len(results) == len(verify.CHECK_NAMES) and all(r.ok for r in results)
    # cardinalities counts Bell(n) for n up to 8; the pools take weights 0..3.
    assert calls == {n: 1 for n in range(9)}


def test_one_runner_tallies_what_a_check_yields(monkeypatch):
    def cases(max_weight, rng, partitions):
        yield True, "a"
        yield False, "b"
        yield True, "c"

    stub = ("stub", verify._tallied("stub", cases))
    monkeypatch.setattr(verify, "_CHECKS", verify._CHECKS + (stub,))
    [result] = verify.run_checks(max_weight=2, names=["stub"])
    assert (result.name, result.cases, result.failures, result.ok) == ("stub", 3, ["b"], False)


def test_results_come_in_table_order():
    assert [r.name for r in verify.run_checks(max_weight=2)] == list(verify.CHECK_NAMES)


def pair_pool_by_list(max_weight, rng, partitions):
    """``_pair_pool`` with the exhaustive weights and the sampled ones in
    separate loops, sampling a list of every candidate pair."""
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


def pair_pool_by_index(max_weight, rng, partitions):
    """The index walk ``_pair_pool`` once took: every pair by its index in
    (a, left, right) order, or a sample of the indices, each index decoded
    to its pair without building the list."""
    pairs = []
    for total in range(0, max_weight + 1):
        blocks = [(partitions(a), partitions(total - a)) for a in range(total + 1)]
        count = sum(len(lefts) * len(rights) for lefts, rights in blocks)
        picked = range(count)
        if total > verify.EXHAUSTIVE_CAP:
            picked = rng.sample(picked, min(verify.SAMPLE_PAIRS, count))
        for index in picked:
            for lefts, rights in blocks:
                if index < len(lefts) * len(rights):
                    break
                index -= len(lefts) * len(rights)
            pairs.append((lefts[index // len(rights)], rights[index % len(rights)]))
    return pairs


def test_pair_pool_draws_as_the_index_walk():
    # Sampling the list of pairs takes the same rng calls as sampling their
    # indices, so both draw the same pairs.
    partitions = functools.cache(lambda n: list(setparts.set_partitions(n)))
    for max_weight in (6, 7):
        for seed in range(10):
            rng, referee = random.Random(seed), random.Random(seed)
            pool = verify._pair_pool(max_weight, rng, partitions)
            assert pool == pair_pool_by_index(max_weight, referee, partitions)
            assert rng.getstate() == referee.getstate()


def test_max_weight_rejects_bool():
    for flag in (True, False):
        with pytest.raises(ValueError, match="max weight must be a nonnegative integer"):
            verify.run_checks(max_weight=flag, names=["cardinalities"])


def test_growth_string_walk_is_the_referee():
    for n in range(9):
        walked = list(verify._growth_string_partitions(n))
        assert verify.growth_string_count(n) == len(walked) == verify.bell_numbers(8)[n]
        assert sorted(walked, key=setparts.SetPartition.sort_key) == list(setparts.set_partitions(n))


def test_unitriangular_cuts_each_code_once_and_multiplies_each_prefix_once(monkeypatch):
    # Every partition of weight below 6 is an atom prefix of one of weight 6,
    # and each prefix's product is one element product over the run.  The
    # primitives are taken first, and the check's source of primitives reads
    # them, so that only the check's own cuts count, not those of the
    # kernel's tails.
    atoms = {atom for n in range(1, 7) for atom in setparts.atomic_set_partitions(n)}
    primitives = {atom: hopf.primitive(atom) for atom in atoms}
    monkeypatch.setattr(hopf, "_primitives", lambda: primitives.__getitem__)
    calls = collections.Counter()
    cut = hopf._code_atoms
    products = []
    multiply = hopf.NCSymElement.__mul__

    def counted_cut(code):
        calls[code] += 1
        return cut(code)

    def counted_product(x, y):
        products.append(1)
        return multiply(x, y)

    monkeypatch.setattr(hopf, "_code_atoms", counted_cut)
    monkeypatch.setattr(hopf.NCSymElement, "__mul__", counted_product)
    [result] = verify.run_checks(max_weight=6, names=["unitriangular"])
    assert result.ok and result.cases == 2 * sum(setparts.bell_numbers(6)[1:])
    assert len(calls) == sum(setparts.bell_numbers(6)[1:]) and set(calls.values()) == {1}
    assert len(products) == sum(setparts.bell_numbers(6)[1:])


def test_counts_refuse_a_size_that_is_not_a_nonnegative_integer():
    # Each refusal used to end in RecursionError (growth strings) or
    # IndexError (quasi-shuffles).
    for bad in (-1, 2.5, True):
        message = f"size must be a nonnegative integer, got {bad!r}"
        with pytest.raises(ValueError) as refused:
            verify.growth_string_count(bad)
        assert str(refused.value) == message
        for args in ((bad, 2), (2, bad)):
            with pytest.raises(ValueError) as refused:
                verify.quasi_shuffle_count(*args)
            assert str(refused.value) == message


def test_coassociativity_fails_on_a_broken_coproduct(monkeypatch):
    # Every (A, ∅) leg doubled: only the empty partition, whose one leg is
    # (∅, ∅) on both sides, stays coassociative.
    coproduct = hopf.coproduct

    def doubled(x):
        delta = coproduct(x)
        return delta + hopf.TensorElement((key, c) for key, c in delta.items() if not key[1].weight)

    monkeypatch.setattr(hopf, "coproduct", doubled)
    [result] = verify.run_checks(max_weight=4, names=["coassociativity"])
    assert result.cases == sum(setparts.bell_numbers(4)) == 24
    assert len(result.failures) == 23 and "coassociativity SetPartition('∅')" not in result.failures


def test_names_refuse_a_string():
    # A string would be read as its characters: "unknown check 'h'".
    with pytest.raises(TypeError, match="not the string 'hall-span'"):
        verify.run_checks(max_weight=2, names="hall-span")


def test_unitriangular_builds_one_kernel_per_run(monkeypatch):
    kernels = []
    build = hopf._kernel

    def counted():
        kernels.append(1)
        return build()

    monkeypatch.setattr(hopf, "_kernel", counted)
    [result] = verify.run_checks(max_weight=6, names=["unitriangular"])
    assert result.ok and len(kernels) == 1


def test_details_are_formatted_only_for_failed_cases():
    formatted = []

    class Value:
        def __init__(self, name):
            self.name = name

        def __repr__(self):
            formatted.append(self.name)
            return self.name

    def cases(max_weight, rng, partitions):
        yield True, "pass {!r}", Value("a")
        yield False, "fail {!r} and {!r}", Value("b"), Value("c")
        yield True, "pass {!r} k={}", Value("d"), 1
        yield False, "fail {!r} k={}", Value("e"), 2
        yield False, "plain {}"

    result = verify._tallied("stub", cases)(2, random.Random(0), None)
    assert result.cases == 5
    assert result.failures == ["fail b and c", "fail e k=2", "plain {}"]
    assert formatted == ["b", "c", "e"]


def test_passing_checks_format_no_detail(monkeypatch):
    formatted = []
    monkeypatch.setattr(setparts._Groups, "__repr__", lambda self: formatted.append(self) or "")
    results = verify.run_checks(max_weight=4)
    assert all(r.ok for r in results) and formatted == []


def test_counit_laws_fail_on_a_dropped_leg(monkeypatch):
    # Every (∅, A) leg dropped: each left law fails, and the right law of the
    # empty partition, whose one leg (∅, ∅) is gone too.
    coproduct = hopf.coproduct

    def dropped(x):
        return hopf.TensorElement._wrap({k: c for k, c in coproduct(x)._terms.items() if k[0]})

    monkeypatch.setattr(hopf, "coproduct", dropped)
    [result] = verify.run_checks(max_weight=3, names=["counit-laws"])
    assert result.cases == 2 * sum(setparts.bell_numbers(3)) == 18
    assert result.failures == [
        "left counit law SetPartition('∅')",
        "right counit law SetPartition('∅')",
        "left counit law SetPartition('1')",
        "left counit law SetPartition('12')",
        "left counit law SetPartition('1.2')",
        "left counit law SetPartition('123')",
        "left counit law SetPartition('12.3')",
        "left counit law SetPartition('13.2')",
        "left counit law SetPartition('1.23')",
        "left counit law SetPartition('1.2.3')",
    ]


def test_counit_laws_sum_codes(monkeypatch):
    # The legs are summed on codes: no coproduct term is decoded, and only
    # the pool's own partitions go through the input check.
    checked = []
    check = hopf._basis_code

    def counted(part):
        checked.append(part)
        return check(part)

    def refused(self, order=None):
        raise AssertionError("a coproduct term was decoded")

    monkeypatch.setattr(hopf, "_basis_code", counted)
    monkeypatch.setattr(hopf.TensorElement, "_decoded", refused)
    [result] = verify.run_checks(max_weight=4, names=["counit-laws"])
    assert result.ok and result.cases == 2 * len(checked) == 2 * sum(setparts.bell_numbers(4))


def test_unitriangular_builds_each_atom_text_once(monkeypatch):
    texts = collections.Counter()
    text = hopf._code_text

    def counted(code):
        texts[code] += 1
        return text(code)

    monkeypatch.setattr(hopf, "_code_text", counted)
    [result] = verify.run_checks(max_weight=5, names=["unitriangular"])
    atoms = {hopf._encode(a) for n in range(1, 6) for a in setparts.atomic_set_partitions(n)}
    assert result.ok and set(texts) == atoms and set(texts.values()) == {1}


def test_coassociativity_and_grading_decode_no_term(monkeypatch):
    # Both checks read the coproduct's codes: weights are code lengths and
    # the coassociativity sums compare as maps on codes.
    def refused(self, order=None):
        raise AssertionError("a term was decoded")

    monkeypatch.setattr(hopf.TensorElement, "_decoded", refused)
    monkeypatch.setattr(hopf.NCSymElement, "_decoded", refused)
    results = verify.run_checks(max_weight=5, names=["coassociativity", "grading"])
    assert [(r.name, r.ok) for r in results] == [("coassociativity", True), ("grading", True)]
