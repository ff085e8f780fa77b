import collections

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
