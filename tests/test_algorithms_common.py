"""Tests for the shared operation-profile builders."""

import numpy as np
import pytest

from repro.algorithms.common import (
    log2ceil,
    profile_copy,
    profile_gather_scatter,
    profile_partition,
    profile_pointer_walk,
    profile_random_bits,
    profile_scan_add,
    profile_sort,
)
from repro.machine.config import NodeConfig
from repro.machine.cpu import CPUModel
from repro.qsmlib.address_space import AddressSpace
from repro.qsmlib.context import QSMContext

BUILDERS = [
    (profile_scan_add, ()),
    (profile_copy, ()),
    (profile_sort, ()),
    (profile_partition, (16,)),
    (profile_gather_scatter, (1000,)),
    (profile_random_bits, ()),
    (profile_pointer_walk, (1000,)),
]


@pytest.fixture
def cpu():
    return CPUModel(NodeConfig())


def test_log2ceil():
    assert log2ceil(1) == 0
    assert log2ceil(2) == 1
    assert log2ceil(3) == 2
    assert log2ceil(1024) == 10
    with pytest.raises(ValueError):
        log2ceil(0.5)


def test_empty_profiles_are_free(cpu):
    for builder in [profile_scan_add, profile_copy, profile_random_bits]:
        assert cpu.cycles(builder(0)) == 0.0
    assert cpu.cycles(profile_sort(1)) == 0.0
    assert cpu.cycles(profile_partition(0, 8)) == 0.0
    assert cpu.cycles(profile_gather_scatter(0, region=10)) == 0.0
    assert cpu.cycles(profile_pointer_walk(0, region=10)) == 0.0


def test_scan_is_linear(cpu):
    c1 = cpu.cycles(profile_scan_add(1000))
    c2 = cpu.cycles(profile_scan_add(2000))
    assert c2 == pytest.approx(2 * c1, rel=0.05)


def test_sort_is_superlinear(cpu):
    c1 = cpu.cycles(profile_sort(1000))
    c2 = cpu.cycles(profile_sort(2000))
    assert c2 > 2 * c1


def test_sort_costs_more_than_scan(cpu):
    assert cpu.cycles(profile_sort(10000)) > 5 * cpu.cycles(profile_scan_add(10000))


def test_partition_scales_with_bucket_count(cpu):
    few = cpu.cycles(profile_partition(10000, 2))
    many = cpu.cycles(profile_partition(10000, 1024))
    assert many > 2 * few


def test_pointer_walk_costs_more_per_element_than_scan(cpu):
    walk = cpu.cycles(profile_pointer_walk(10000, region=10**7)) / 10000
    scan = cpu.cycles(profile_scan_add(10000)) / 10000
    assert walk > 3 * scan


def test_gather_scatter_region_sensitivity(cpu):
    near = cpu.cycles(profile_gather_scatter(10000, region=1000))
    far = cpu.cycles(profile_gather_scatter(10000, region=10**7))
    assert far > near


@pytest.mark.parametrize("builder, rest", BUILDERS, ids=lambda b: getattr(b, "__name__", ""))
def test_equal_typed_arguments_share_one_profile(builder, rest):
    first = builder(1000, *rest)
    assert builder(1000, *rest) is first
    assert builder(int("1000"), *rest) is first  # equal value, another int object


def _typed_fields(prof):
    values = [prof.int_ops, prof.fp_ops, prof.loads, prof.stores, prof.branches]
    values += [access.count for access in prof.mem]
    return [(type(v), v) for v in values]


@pytest.mark.parametrize("builder, rest", BUILDERS, ids=lambda b: getattr(b, "__name__", ""))
def test_argument_types_do_not_alias(builder, rest):
    # 3, 3.0 and np.int64(3) compare equal but are three keys: each call
    # gets the profile its own argument builds, in that type's arithmetic.
    args = (3, 3.0, np.int64(3))
    profiles = [builder(m, *rest) for m in args]
    assert len({id(prof) for prof in profiles}) == 3
    for m, prof in zip(args, profiles):
        assert builder(m, *rest) is prof
        assert _typed_fields(prof) == _typed_fields(builder.__wrapped__(m, *rest))
    assert len({repr(_typed_fields(prof)) for prof in profiles}) == 3


@pytest.mark.parametrize(
    "make",
    [
        lambda: profile_scan_add(float("inf")),
        lambda: profile_gather_scatter(float("nan"), region=10),
        lambda: profile_random_bits(float("inf")),
    ],
    ids=["inf-scan", "nan-gather", "inf-bits"],
)
def test_non_finite_profile_raises_on_every_charge(make):
    cpu = CPUModel(NodeConfig())
    ctx = QSMContext(AddressSpace(p=1), 0, np.random.default_rng(0), cpu)
    for _ in range(3):
        with pytest.raises(ValueError, match="finite"):
            ctx.charge(make())
    assert ctx._drain_compute() == (0.0, 0.0)
