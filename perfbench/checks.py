"""Correctness checks on what a tinyproto run reports and writes.

Every function returns a list of problems; an empty list means the check
passed.  Traffic is checked against the protocol's own accounting rules:
each sampled client receives all K compressed globals (K*s values), sends
its K_i present classes (K_i*s values), and receives the K*d mask bits on
its first participation only.
"""

from __future__ import annotations

import json
import math

from tinyproto import CostQuery, cost, format_mask_rows, min_pairwise_hamming, rounds_csv_text


def traffic_problems(config, report, n_sampled: int, first_timers: int) -> list[str]:
    """Traffic checks that need only the report and the server's client set."""
    k, d, s = config.n_classes, config.proto_dim, config.comp_dim
    problems = []
    if report.downlink_params != n_sampled * k * s:
        problems.append(
            f"round {report.round}: downlink_params {report.downlink_params}"
            f" != {n_sampled} sampled x K={k} x s={s}"
        )
    if report.mask_params != first_timers * k * d:
        problems.append(
            f"round {report.round}: mask_params {report.mask_params}"
            f" != {first_timers} first-time participants x K={k} x d={d}"
        )
    return problems


def traced_traffic_problems(
    config, report, n_sampled: int, updated: list[tuple[int, int]]
) -> list[str]:
    """Traffic against the cost model, from the clients that actually trained.

    ``updated`` holds (client_id, K_i) for every local update of the round.
    """
    k, s = config.n_classes, config.comp_dim
    problems = []
    ids = [cid for cid, _ in updated]
    if len(ids) != n_sampled or len(set(ids)) != len(ids):
        problems.append(
            f"round {report.round}: {len(ids)} local updates ({len(set(ids))} distinct)"
            f" for {n_sampled} sampled clients"
        )
    expected = cost(
        CostQuery("TinyProto", n_classes=k, classes_per_client=[ki for _, ki in updated],
                  comp_dim=s)
    )
    if report.uplink_params + report.downlink_params != expected:
        problems.append(
            f"round {report.round}: uplink+downlink"
            f" {report.uplink_params + report.downlink_params} != cost model {expected}"
        )
    return problems


def experiment_problems(config, result, files: dict[str, str]) -> list[str]:
    """Checks on a finished run and the rounds.csv/summary.json/masks.txt it wrote."""
    k, d, s = config.n_classes, config.proto_dim, config.comp_dim
    reports, server = result.reports, result.server
    problems = []
    if len(reports) != config.rounds:
        problems.append(f"{len(reports)} round reports for {config.rounds} rounds")
    for rep in reports:
        if not (math.isfinite(rep.mean_test_accuracy) and 0.0 <= rep.mean_test_accuracy <= 1.0):
            problems.append(f"round {rep.round}: mean_test_accuracy {rep.mean_test_accuracy}")
    if files["rounds.csv"] != rounds_csv_text(result):
        problems.append("rounds.csv differs from rounds_csv_text(result)")
    if files["masks.txt"] != format_mask_rows(server.mask_set):
        problems.append("masks.txt differs from the server's mask set")
    written = json.loads(files["summary.json"])
    expected = {
        "best_mean_test_accuracy": max(r.mean_test_accuracy for r in reports),
        "total_uplink_params": sum(r.uplink_params for r in reports),
        "total_downlink_params": sum(r.downlink_params for r in reports),
        "total_mask_params": len(server.selected_ever) * k * d,
    }
    for key, value in expected.items():
        if written.get(key) != value:
            problems.append(f"summary.json {key} = {written.get(key)!r}, expected {value!r}")
    problems += mask_problems(server.mask_set, k, d, s)
    return problems


def mask_problems(mask_set, k: int, d: int, s: int) -> list[str]:
    """One mask per class, each of dimension d and popcount s, and a search
    that never ends below its seeded starting point."""
    problems = []
    if mask_set.n_classes != k:
        problems.append(f"{mask_set.n_classes} masks for K={k} classes")
    for mask in mask_set.masks:
        if mask.dim != d or mask.popcount != s:
            problems.append(
                f"mask of class {mask.class_id}: dim {mask.dim}, popcount {mask.popcount};"
                f" expected d={d}, s={s}"
            )
    pre = mask_set.presearch_min_hamming
    if k >= 2 and pre is not None and min_pairwise_hamming(mask_set) < pre:
        problems.append(
            f"min pairwise Hamming {min_pairwise_hamming(mask_set)} < pre-search {pre}"
        )
    return problems
