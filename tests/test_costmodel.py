"""Closed-form cost formulas and their table/figure helpers."""

import math

import pytest

from tinyproto.costmodel import CostQuery, cost, cost_millions, figure1_table


class TestCostFormulas:
    def test_tinyproto_large_setting(self):
        q = CostQuery(
            algorithm="TinyProto", n_clients=20, n_classes=100, classes_per_client=100, comp_dim=50
        )
        assert cost(q) == 20 * 200 * 50 == 200_000

    def test_dense_prototype_ratio_is_d_over_s(self):
        dense = CostQuery(
            algorithm="FedProto", n_clients=20, n_classes=100, classes_per_client=100, proto_dim=500
        )
        tiny = CostQuery(
            algorithm="TinyProto", n_clients=20, n_classes=100, classes_per_client=100, comp_dim=50
        )
        assert cost(dense) == 2_000_000
        assert cost(dense) == 10 * cost(tiny)

    def test_logit_exchange_small_class_count(self):
        q = CostQuery(
            algorithm="FedDistill", n_clients=20, n_classes=10, classes_per_client=10
        )
        assert cost(q) == 4_000
        assert cost_millions(q) < 0.01

    def test_per_client_class_lists(self):
        q = CostQuery(
            algorithm="TinyProto", n_classes=4, classes_per_client=[1, 2, 4], comp_dim=3
        )
        assert cost(q) == (5 + 6 + 8) * 3

    def test_classifier_exchange(self):
        q = CostQuery(algorithm="LG-FedAvg", n_clients=10, classifier_params=1000)
        assert cost(q) == 20_000

    def test_auxiliary_model_exchange(self):
        q = CostQuery(
            algorithm="FML", n_clients=5, aux_extractor_params=300, aux_classifier_params=50
        )
        assert cost(q) == 5 * 350 * 2
        reduced = CostQuery(
            algorithm="FedKD",
            n_clients=5,
            aux_extractor_params=300,
            aux_classifier_params=50,
            reduction_factor=0.5,
        )
        assert cost(reduced) == 5 * 350  # half of the FML bill

    def test_full_model_exchange(self):
        q = CostQuery(algorithm="FedAvg", n_clients=3, full_model_params=1_000_000)
        assert cost(q) == 6_000_000

    def test_fedtgp_matches_fedproto(self):
        kwargs = dict(n_clients=4, n_classes=7, classes_per_client=3, proto_dim=64)
        assert cost(CostQuery(algorithm="FedTGP", **kwargs)) == cost(
            CostQuery(algorithm="FedProto", **kwargs)
        )

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="comp_dim"):
            cost(CostQuery(algorithm="TinyProto", n_clients=2, n_classes=3, classes_per_client=2))
        with pytest.raises(ValueError, match="full_model_params"):
            cost(CostQuery(algorithm="FedAvg", n_clients=2))

    @pytest.mark.parametrize("r", [math.inf, math.nan, -1.0], ids=["inf", "nan", "negative"])
    def test_bad_reduction_factor_named(self, r):
        query = CostQuery(
            algorithm="FedKD",
            n_clients=2,
            aux_extractor_params=5,
            aux_classifier_params=3,
            reduction_factor=r,
        )
        with pytest.raises(ValueError, match="'reduction_factor' must be finite and >= 0"):
            cost(query)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            CostQuery(algorithm="FedNope")

    def test_inconsistent_client_count_rejected(self):
        with pytest.raises(ValueError, match="n_clients"):
            cost(
                CostQuery(
                    algorithm="TinyProto",
                    n_clients=5,
                    n_classes=3,
                    classes_per_client=[1, 2],
                    comp_dim=2,
                )
            )

    def test_monotone_in_count_fields(self):
        base = dict(n_clients=6, n_classes=20, classes_per_client=10, comp_dim=8)
        reference = cost(CostQuery(algorithm="TinyProto", **base))
        for field, bigger in [
            ("n_classes", 30),
            ("classes_per_client", 15),
            ("comp_dim", 12),
        ]:
            grown = cost(CostQuery(algorithm="TinyProto", **{**base, field: bigger}))
            assert grown >= reference


class TestFigureTable:
    def test_spot_recomputation_of_cells(self):
        rows = figure1_table(360_000, k_range=[10, 100, 1000], d_range=[100, 500, 1024])
        by_key = {(r["n_classes"], r["proto_dim"]): r for r in rows}
        for k, d in [(10, 100), (100, 500), (1000, 1024), (10, 1024), (1000, 100)]:
            row = by_key[(k, d)]
            assert row["pbfl_params"] == k * d
            assert row["fedavg_params"] == 360_000 + k * d

    def test_large_grid_approaches_full_model_scale(self):
        rows = figure1_table(360_000, k_range=[1000], d_range=[1024])
        row = rows[0]
        assert row["fedavg_params"] == 1_384_000  # ~1.36M class-1000 trunk+head
        assert row["pbfl_params"] == 1_024_000
        assert row["near_parity"]

    def test_small_grid_is_far_from_parity(self):
        row = figure1_table(360_000, k_range=[10], d_range=[100])[0]
        assert row["pbfl_params"] == 1_000
        assert not row["near_parity"]
        assert row["ratio"] < 0.01

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError):
            figure1_table(1000, k_range=[], d_range=[10])
