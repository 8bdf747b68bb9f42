#!/usr/bin/env python3
"""Walk through the prototype compression operators on a tiny example.

A prototype is a per-class mean feature vector, a plain float array.  Each
class owns a fixed binary mask, one row of a mask set; only the masked
entries travel between client and server.  The operators take the mask set,
the class id of each row of a block, and the block.
"""
import numpy as np

from tinyproto import MaskSet, compress, reconstruct, sparsify

# one class (id 0) with a mask selecting s = 2 of d = 5 dimensions
masks = MaskSet(np.array([[1, 0, 1, 0, 0]]))
ids = np.array([0])
proto = np.array([[3.0, -1.0, 2.0, 0.7, -0.4]])  # a one-row block
print("prototype:", proto[0])
print("mask:     ", masks.bits[0], f"  (s = {masks.s})")

# zero outside the mask (what local training is regularized toward)
sparse = sparsify(masks, ids, proto)
print("sparse:   ", sparse[0])

# keep only the masked entries (what actually goes on the wire)
comp = compress(masks, ids, proto)
print("compressed:", comp[0], f"   {masks.d} values -> {masks.s}")

# the receiving side scatters them back into place
rebuilt = reconstruct(masks, ids, comp)
print("rebuilt:  ", rebuilt[0])
assert np.array_equal(rebuilt, sparse)

# the operator is linear for a fixed mask, so averaging compressed payloads
# on the server gives the same result as compressing the averaged prototype;
# three rows of class 0 compress in one call
others = np.array([np.random.default_rng(i).normal(size=5) for i in range(3)])
(mean_then_compress,) = compress(masks, ids, others.mean(axis=0, keepdims=True))
compress_then_mean = compress(masks, np.zeros(3, dtype=np.int64), others).mean(axis=0)
print("\nlinearity check (mean/compress commute):")
print("  compress(mean):", mean_then_compress)
print("  mean(compress):", compress_then_mean)
assert np.allclose(mean_then_compress, compress_then_mean, atol=1e-12)
print("ok")
