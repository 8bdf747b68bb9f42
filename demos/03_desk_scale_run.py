#!/usr/bin/env python3
"""Run a full desk-scale federation and inspect what it learned.

Six clients share a 4-class blob problem under moderate label skew.  Each
round: compressed global prototypes go down, clients train locally and send
count-scaled compressed prototypes up, the server averages per class.
Prediction is nearest-local-prototype, evaluated per client on its own
held-out split.
"""
import logging

import numpy as np

from tinyproto import ExperimentConfig, dead_unit_fraction, reconstruct, run_experiment

logging.basicConfig(level=logging.WARNING)

config = ExperimentConfig(
    seed=7,
    n_clients=6,
    n_classes=4,
    input_dim=8,
    proto_dim=16,
    comp_dim=4,
    alpha=0.5,
    lam=1.0,
    mu=1.0,
    lr=0.01,
    batch_size=32,
    local_epochs=1,
    rounds=10,
    per_class=400,
    sigma=0.35,
)
result = run_experiment(config)

print("round  accuracy  uplink  downlink  masks")
for rep in result.reports:
    print(
        f"{rep.round:5d}  {rep.mean_test_accuracy:8.4f}  {rep.uplink_params:6d}"
        f"  {rep.downlink_params:8d}  {rep.mask_params:5d}"
    )
print(f"\nbest mean test accuracy: {result.summary['best_mean_test_accuracy']:.4f}")
print(f"prototype traffic over the run: {result.summary['total_prototype_params']} params")

# the ReLU feature layer leaves some units exactly at zero per class;
# those dead units are what the per-class masks exploit
print("\ndead-unit fraction of each client's dense local prototypes:")
for state in result.clients:
    ids, block = state.local_protos  # ascending class ids, one mean per row
    fractions = [
        f"{cls}:{fraction:.2f}"
        for cls, fraction in zip(ids.tolist(), dead_unit_fraction(block))
    ]
    print(f"  client {state.client_id}: " + "  ".join(fractions))

# global prototypes live entirely inside their class masks
# (row c of global_comp is class c's, so the rows' class ids are 0..K-1)
server = result.server
dense = reconstruct(server.mask_set, np.arange(config.n_classes), server.global_comp)
print("\nglobal prototype support (columns = feature dims, x = nonzero):")
for cls, full in enumerate(dense):
    print(f"  class {cls}: " + "".join("x" if v != 0 else "." for v in full))
