"""The suite's run-scoped table of semirings and its random sums."""

import random
from collections import Counter

import pytest

import flathg.constructions as constructions
import flathg.suite as suite
from flathg.semiring import FiniteSemiring, is_flat
from flathg.suite import (
    POOL,
    SUITE_SEED,
    SUM_COUNT,
    _build_tables,
    _flat_sums_record,
    _random_sums,
    run_suite,
)

# Boolean addition: 0 + 1 = 1, so not flat.
BOOLEAN = FiniteSemiring(("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0)


@pytest.fixture(scope="module")
def pool():
    tables = _build_tables()
    return [tables[name] for name in POOL]


@pytest.mark.parametrize("slot", range(len(POOL)))
def test_a_table_without_flat_addition_gives_violations(pool, slot):
    assert not is_flat(BOOLEAN)
    rigged = list(pool)
    rigged[slot] = BOOLEAN
    record = _flat_sums_record(rigged, random.Random(SUITE_SEED + 3))
    assert not record.ok
    assert int(record.detail.removeprefix("violations=")) > 0


def test_the_seeded_draws_cover_every_member_length_and_element(pool):
    sizes = [s.size for s in pool]
    draws = list(_random_sums(sizes, random.Random(SUITE_SEED + 3)))
    assert len(draws) == SUM_COUNT
    assert {i for i, _ in draws} == set(range(len(pool)))
    assert {len(xs) for _, xs in draws} == {1, 2, 3, 4}
    for i, size in enumerate(sizes):
        assert {x for j, xs in draws if j == i for x in xs} == set(range(size))


def test_the_draw_is_wide_enough_for_a_large_member():
    # 2 * 4 * 300^4 is past 2^32: a fixed 32-bit draw would leave the fourth
    # summand of the 300-element member almost always at 0..19.
    draws = list(_random_sums([3, 300], random.Random(SUITE_SEED + 3)))
    fourth = {xs[3] for i, xs in draws if i == 1 and len(xs) == 4}
    assert len(fourth) > 250
    assert max(fourth) == 299


def test_each_table_is_built_once_per_run_and_again_next_run(monkeypatch):
    calls = []
    for name in ("build_semiring", "build_sc", "builtin_s7"):
        real = getattr(suite, name)

        def spy(*args, _name=name, _real=real):
            calls.append((_name, tuple(map(repr, args))))
            return _real(*args)

        monkeypatch.setattr(suite, name, spy)

    assert all(r.ok for r in run_suite())
    first, calls[:] = list(calls), []
    assert max(Counter(first).values()) == 1
    assert Counter(name for name, _ in first) == {
        "build_semiring": 16,
        "build_sc": 4,
        "builtin_s7": 1,
    }
    run_suite()
    assert calls == first


def test_the_embedding_check_reads_the_run_s_sc_abc(monkeypatch):
    # Inside constructions only the two witnesses on subword semirings build
    # one; the 18 embedding checks are handed the run's sc_abc.
    calls = []
    real = constructions.build_sc
    monkeypatch.setattr(constructions, "build_sc", lambda words: calls.append(tuple(words)) or real(words))
    assert all(r.ok for r in run_suite())
    assert calls == [("abcd",), ("abc",)]
