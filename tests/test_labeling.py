from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zoneinvest.labeling import (LabeledDataset, estimate_eta_ub, fit_weibull,
                                 label_dataset, label_with_cutoff,
                                 load_labeled, save_labeled,
                                 weibull_max_median)
from zoneinvest.sequences import Sequence, enumerate_sequences

from conftest import FINITE, PROPERTY, ZONE_IDS
from oracles import weibull_samples


class TestWeibullFit:
    def test_recovers_known_parameters(self):
        rng = np.random.default_rng(7)
        data = weibull_samples(2.0, 5.0, 100_000, rng)
        k, lam = fit_weibull(data)
        assert k == pytest.approx(2.0, rel=0.02)
        assert lam == pytest.approx(5.0, rel=0.01)

    def test_shape_equation_residual_tiny(self):
        rng = np.random.default_rng(8)
        data = weibull_samples(1.7, 3.0, 5000, rng)
        k, lam = fit_weibull(data)
        # the MLE stationarity condition in k, evaluated directly
        g = (data ** k * np.log(data)).sum() / (data ** k).sum() \
            - 1.0 / k - np.log(data).mean()
        assert abs(g) < 1e-8

    def test_exponential_special_case(self):
        rng = np.random.default_rng(9)
        data = rng.exponential(scale=4.0, size=100_000)
        k, lam = fit_weibull(data)
        assert k == pytest.approx(1.0, rel=0.02)
        assert lam == pytest.approx(4.0, rel=0.02)

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            fit_weibull(np.full(20, 3.0))

    def test_non_positive_rejected(self):
        rng = np.random.default_rng(10)
        data = weibull_samples(2.0, 5.0, 1000, rng)
        with pytest.raises(ValueError, match="strictly positive"):
            fit_weibull(data - 10.0)

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            fit_weibull(np.arange(1.0, 6.0))


class TestEtaUpperBound:
    def test_population_of_one_is_the_median(self):
        rng = np.random.default_rng(11)
        data = weibull_samples(2.0, 5.0, 20_000, rng)
        k, lam = fit_weibull(data)
        assert estimate_eta_ub(data, 1) == pytest.approx(
            lam * np.log(2.0) ** (1.0 / k), rel=1e-12)

    def test_closed_form_matches_simulated_maxima(self):
        closed = weibull_max_median(2.0, 5.0, 5040)
        rng = np.random.default_rng(12)
        medians = []
        for _ in range(10):  # 10^4 maxima of 5040 draws, in chunks
            draws = weibull_samples(2.0, 5.0, (1000, 5040), rng)
            medians.append(np.max(draws, axis=1))
        sim = np.median(np.concatenate(medians))
        assert closed == pytest.approx(sim, rel=0.02)

    def test_monotone_in_population_size(self):
        assert weibull_max_median(2.0, 5.0, 40320) > \
            weibull_max_median(2.0, 5.0, 5040)

    def test_population_validated(self):
        with pytest.raises(ValueError):
            weibull_max_median(2.0, 5.0, 0)


def make_valuations(values, zones=("a", "b", "c", "d", "e")):
    seqs = enumerate_sequences(zones)[:len(values)]
    return list(zip(seqs, values))


class TestLabelDataset:
    def test_ratio_cap_binds_at_four_positives_out_of_100(self):
        rng = np.random.default_rng(13)
        values = np.sort(weibull_samples(3.0, 50.0, 100, rng))[::-1]
        ds = label_dataset(make_valuations(values, tuple("abcde")), 5040,
                           thr_fact=0.5, pnr_max=0.05)
        # plenty of values clear half the bound, so the ratio rule decides:
        assert (ds.values >= ds.eta_thr).sum() > 4
        assert ds.n_positive == 4  # 4/96 <= 0.05 < 5/95
        assert not ds.forced_positive

    def test_ratio_scan_matches_direct_oracle(self):
        rng = np.random.default_rng(14)
        for pnr in (0.01, 0.02, 0.05, 0.25):
            values = weibull_samples(2.0, 30.0, 80, rng)
            ds = label_dataset(make_valuations(values), 5040,
                               thr_fact=0.2, pnr_max=pnr)
            svals = np.sort(values)[::-1]
            n = 0
            while n < 79 and svals[n] >= ds.eta_thr \
                    and (n + 1) / (80 - n - 1) <= pnr:
                n += 1
            assert ds.n_positive == max(n, 1)

    def test_all_below_threshold_forces_top1(self):
        values = np.linspace(10.0, 30.0, 40)
        ds = label_dataset(make_valuations(values), 10 ** 6,
                           thr_fact=0.0, pnr_max=0.05)
        assert ds.eta_thr >= values.max()
        assert ds.n_positive == 1
        assert ds.forced_positive

    def test_threshold_arithmetic(self):
        rng = np.random.default_rng(15)
        values = weibull_samples(2.0, 30.0, 60, rng)
        ds = label_dataset(make_valuations(values), 5040,
                           thr_fact=0.1, pnr_max=0.05)
        assert ds.eta_thr == pytest.approx(0.9 * ds.eta_ub, rel=1e-12)

    def test_positive_count_monotone_in_ratio_cap(self):
        rng = np.random.default_rng(16)
        values = weibull_samples(2.0, 30.0, 100, rng)
        counts = [label_dataset(make_valuations(values), 5040, 0.3,
                                pnr).n_positive
                  for pnr in (0.01, 0.05, 0.2)]
        assert counts == sorted(counts)

    def test_eta_bin_separates_labels(self):
        rng = np.random.default_rng(17)
        values = weibull_samples(2.5, 40.0, 90, rng)
        ds = label_dataset(make_valuations(values), 5040, 0.4, 0.05)
        assert ds.eta_bin == ds.values[ds.labels == 1].min()
        assert np.all(ds.values[ds.labels == 0] < ds.eta_bin)
        assert (ds.labels == 1).sum() >= 1

    def test_value_ties_resolved_lexicographically(self):
        seqs = enumerate_sequences(("a", "b", "c"))
        vals = [5.0, 5.0, 5.0, 1.0, 1.0, 1.0]
        ds = label_dataset(list(zip(seqs, vals)), 720, 0.5, 0.5)
        assert ds.sequences[:3] == tuple(seqs[:3])
        again = label_dataset(list(zip(reversed(seqs), reversed(vals))),
                              720, 0.5, 0.5)
        assert again.sequences == ds.sequences
        assert np.array_equal(again.labels, ds.labels)

    def test_test_set_labeling_reuses_cutoff(self):
        labels = label_with_cutoff([1.0, 2.0, 3.0], 2.0)
        assert labels.tolist() == [0, 1, 1]

    def test_too_few_valuations_rejected(self):
        with pytest.raises(ValueError):
            label_dataset(make_valuations([1.0]), 10, 0.1, 0.05)

    def test_population_smaller_than_sample_rejected(self):
        valuations = make_valuations(np.linspace(10.0, 30.0, 40))
        with pytest.raises(ValueError, match="population_size 5 is smaller "
                                             "than the 40 sampled values"):
            label_dataset(valuations, 5, 0.1, 0.05)
        assert label_dataset(valuations, 40, 0.1, 0.05).population_size == 40

    def test_normalization_is_standard_scaler(self):
        rng = np.random.default_rng(18)
        values = weibull_samples(2.0, 30.0, 50, rng)
        ds = label_dataset(make_valuations(values), 5040, 0.3, 0.05)
        assert ds.norm_mean == pytest.approx(values.mean())
        assert ds.norm_std == pytest.approx(values.std())


@st.composite
def labeled_datasets(draw):
    zones = draw(st.lists(ZONE_IDS, min_size=1, max_size=4, unique=True))
    seqs = draw(st.lists(st.permutations(zones).map(Sequence), min_size=1,
                         max_size=6))
    column = st.lists(FINITE, min_size=len(seqs), max_size=len(seqs))
    flags = st.lists(st.integers(0, 1), min_size=len(seqs),
                     max_size=len(seqs))
    return LabeledDataset(
        sequences=tuple(seqs), values=np.array(draw(column)),
        labels=np.array(draw(flags)), eta_ub=draw(FINITE),
        eta_thr=draw(FINITE), eta_bin=draw(FINITE), pnr_max=draw(FINITE),
        thr_fact=draw(FINITE), population_size=draw(st.integers(1, 10 ** 6)),
        norm_mean=draw(FINITE), norm_std=draw(FINITE),
        forced_positive=draw(st.booleans()),
        degenerate_fit=draw(st.booleans()))


@PROPERTY
@given(labeled_datasets())
@example(label_dataset(make_valuations(
    weibull_samples(2.0, 30.0, 30, np.random.default_rng(19))), 5040, 0.2, 0.1))
def test_save_load_round_trip(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("labeled") / "labeled.csv"
    save_labeled(ds, path)
    again = load_labeled(path)
    for field in fields(ds):
        got, want = getattr(again, field.name), getattr(ds, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        else:
            assert type(got) is type(want)
            assert repr(got) == repr(want)
