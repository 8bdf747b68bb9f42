"""Closed-form cost formulas and their table/figure helpers."""

import math
import re

import numpy as np
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

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(n_classes=2.5), "K: field 'n_classes' must be an integer, got 2.5"),
            (dict(n_classes=True), "K: field 'n_classes' must be an integer, got the bool True"),
            (
                dict(classes_per_client=[2, 1.5, 2]),
                "K_i: field 'classes_per_client' must be an integer, got 1.5",
            ),
            (
                dict(classes_per_client=2.0),
                "K_i: field 'classes_per_client' must be an integer, got 2.0",
            ),
            (dict(n_clients=2.5), "M: field 'n_clients' must be an integer, got 2.5"),
        ],
        ids=["K-float", "K-bool", "K_i-list-float", "K_i-float", "M-float"],
    )
    def test_count_that_is_not_an_integer_named_by_its_key(self, change, message):
        # counted as a number, each would return a wrong "exact" count
        query = CostQuery(
            **{"algorithm": "TinyProto", "n_clients": 3, "n_classes": 4,
               "classes_per_client": 2, "comp_dim": 4, **change}
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cost(query)

    def test_bool_reduction_factor_named(self):
        query = CostQuery(
            algorithm="FedKD",
            n_clients=2,
            aux_extractor_params=5,
            aux_classifier_params=3,
            reduction_factor=True,
        )
        with pytest.raises(
            ValueError, match=r"^r: field 'reduction_factor' must be a real number, got True$"
        ):
            cost(query)

    @pytest.mark.parametrize(
        "theta, r",
        [(10, 1e308), (10**400, 0.5)],
        ids=["product-is-inf", "base-too-large-for-a-float"],
    )
    def test_fedkd_product_past_the_float_range_named_by_r(self, theta, r):
        query = CostQuery(
            algorithm="FedKD",
            n_clients=3,
            aux_extractor_params=theta,
            aux_classifier_params=2,
            reduction_factor=r,
        )
        with pytest.raises(ValueError, match=r"^r: FedKD cost .* is not finite$"):
            cost(query)

    def test_millions_past_the_float_range_named_by_algorithm(self):
        query = CostQuery("FedAvg", n_clients=1, full_model_params=10**400)
        assert cost(query) == 2 * 10**400
        with pytest.raises(ValueError, match=r"^FedAvg cost in millions is past the float range$"):
            cost_millions(query)

    def test_count_past_the_float_range_with_millions_inside_it(self):
        # 2e310 params has no float, but 2e304 millions does
        query = CostQuery("FedAvg", n_clients=1, full_model_params=10**310)
        assert cost_millions(query) == 2e304

    def test_millions_below_two_to_the_53_is_n_over_1e6(self):
        for n in (0, 1, 7, 999_999, 123_456_789, 2**53 - 1):
            query = CostQuery("FedAvg", n_clients=1, full_model_params=n)
            assert cost_millions(query) == 2 * n / 1e6

    def test_numpy_counts_give_an_exact_int(self):
        query = CostQuery(
            algorithm="TinyProto",
            n_clients=np.int64(3),
            n_classes=np.int32(4),
            classes_per_client=np.array([2, 1, 2]),
            comp_dim=np.uint8(4),
        )
        total = cost(query)
        assert total == (2 + 4) * 4 + (1 + 4) * 4 + (2 + 4) * 4 == 68
        assert type(total) is int

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

    def test_counts_past_the_float_range(self):
        (far,) = figure1_table(10**400, [1], [1])
        assert far["fedavg_params"] == 10**400 + 1
        assert far["ratio"] == 0.0 and not far["near_parity"]
        (parity,) = figure1_table(10**400, [10**200], [10**200])
        assert parity["ratio"] == 0.5 and parity["near_parity"]
        (below,) = figure1_table(10**400 + 1, [10**200], [10**200])
        assert not below["near_parity"]

    @pytest.mark.parametrize(
        "args, message",
        [
            ((10, [2.5], [4]), "k_range entry must be an integer, got 2.5"),
            ((10.7, [2], [4]), "model_penultimate_params must be an integer, got 10.7"),
            ((10, [True], [4]), "k_range entry must be an integer, got the bool True"),
            ((10, [2], [4.0]), "d_range entry must be an integer, got 4.0"),
            ((10, [2], [-4]), "d_range entry must be >= 0, got -4"),
        ],
        ids=["K-float", "trunk-float", "K-bool", "d-float", "d-negative"],
    )
    def test_non_integer_counts_rejected(self, args, message):
        # a truncated count would make a row contradict itself (2 * 4 != 10)
        with pytest.raises(ValueError, match=re.escape(message)):
            figure1_table(*args)

    def test_numpy_integers_accepted(self):
        (row,) = figure1_table(np.int64(10), [np.int32(2)], [np.uint8(4)])
        assert row == {
            "n_classes": 2, "proto_dim": 4, "fedavg_params": 18, "pbfl_params": 8,
            "ratio": 8 / 18, "near_parity": False,
        }
        assert all(type(row[key]) is int for key in ("n_classes", "proto_dim", "fedavg_params"))

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError):
            figure1_table(1000, k_range=[], d_range=[10])
