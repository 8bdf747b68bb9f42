#!/usr/bin/env python3
"""Walk through the prototype compression operators on a tiny example.

A prototype is a per-class mean feature vector, a plain float array.  Each
class owns a fixed binary mask; only the masked entries travel between
client and server.  The operators take one row or a block of rows with one
mask row each.
"""
import numpy as np

from tinyproto import compress, reconstruct, sparsify

proto = np.array([3.0, -1.0, 2.0, 0.7, -0.4])
bits = np.array([1, 0, 1, 0, 0], dtype=np.uint8)
print("prototype:", proto)
print("mask:     ", bits)

# zero outside the mask (what local training is regularized toward)
sparse = sparsify(proto, bits)
print("sparse:   ", sparse)

# keep only the masked entries (what actually goes on the wire)
comp = compress(proto, bits)
print("compressed:", comp, f"   {len(proto)} values -> {len(comp)}")

# the receiving side scatters them back into place
rebuilt = reconstruct(comp, bits)
print("rebuilt:  ", rebuilt)
assert np.array_equal(rebuilt, sparse)

# the operator is linear for a fixed mask, so averaging compressed payloads
# on the server gives the same result as compressing the averaged prototype;
# a block of three rows compresses in one call, one mask row per row
others = np.array([np.random.default_rng(i).normal(size=5) for i in range(3)])
mean_then_compress = compress(others.mean(axis=0), bits)
compress_then_mean = compress(others, np.tile(bits, (3, 1))).mean(axis=0)
print("\nlinearity check (mean/compress commute):")
print("  compress(mean):", mean_then_compress)
print("  mean(compress):", compress_then_mean)
assert np.allclose(mean_then_compress, compress_then_mean, atol=1e-12)
print("ok")
