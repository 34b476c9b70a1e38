import math

import pytest

from zoneinvest.sequences import Sequence, enumerate_sequences, sample_sequences


def test_single_zone_single_sequence():
    assert enumerate_sequences(["z1"]) == [Sequence(("z1",))]


@pytest.mark.parametrize("h,count", [(7, 5040), (8, 40320)])
def test_factorial_counts(h, count):
    zones = [f"z{i}" for i in range(h)]
    seqs = enumerate_sequences(zones)
    assert len(seqs) == count
    assert len(set(s.order for s in seqs)) == count


def test_no_zones_rejected():
    with pytest.raises(ValueError, match="zones must be nonempty"):
        enumerate_sequences([])


def test_lexicographic_order_and_cap():
    seqs = enumerate_sequences(["b", "a", "c"])
    assert [s.order for s in seqs[:2]] == [("a", "b", "c"), ("a", "c", "b")]
    with pytest.raises(ValueError, match="sample"):
        enumerate_sequences([f"z{i}" for i in range(10)])


def test_counts_match_factorial_up_to_cap():
    for h in range(1, 7):
        assert len(enumerate_sequences([f"z{i}" for i in range(h)])) == \
            math.factorial(h)


def test_duplicate_zone_rejected():
    with pytest.raises(ValueError):
        Sequence(("a", "a"))


def test_sequence_serialization_round_trip():
    s = Sequence(("z2", "z1", "z3"))
    assert str(s) == "z2,z1,z3"
    assert Sequence.parse(str(s)) == s


class TestSampling:
    zones = [f"z{i}" for i in range(7)]

    def test_full_fraction_leaves_no_remainder(self):
        sampled, remaining = sample_sequences(["a", "b", "c"], 1.0, seed=1)
        assert remaining == []
        assert len(sampled) == 6

    def test_sample_size_is_rounded_fraction(self):
        sampled, remaining = sample_sequences(self.zones, 0.06, seed=5)
        assert len(sampled) == 302  # round(0.06 * 5040)
        assert len(sampled) + len(remaining) == 5040

    def test_partition_is_exact_and_disjoint(self):
        sampled, remaining = sample_sequences(self.zones, 0.02, seed=9)
        all_orders = {s.order for s in sampled} | {s.order for s in remaining}
        assert len(all_orders) == 5040
        assert not ({s.order for s in sampled} & {s.order for s in remaining})

    def test_same_seed_same_split(self):
        a = sample_sequences(self.zones, 0.05, seed=3)
        b = sample_sequences(self.zones, 0.05, seed=3)
        assert a == b

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sample_sequences(["a", "b", "c"], 0.01, seed=1)
