#!/usr/bin/env python3
"""Walk through the prototype compression operators on a tiny example.

A prototype is a per-class mean feature vector.  Each class owns a fixed
binary mask; only the masked entries travel between client and server.
"""
import numpy as np

from tinyproto import Mask, Prototype, compress, reconstruct, sparsify

proto = Prototype(class_id=0, values=[3.0, -1.0, 2.0, 0.7, -0.4])
mask = Mask(class_id=0, bits=[1, 0, 1, 0, 0])
print("prototype:", proto.values)
print("mask:     ", mask.bits)

# zero outside the mask (what local training is regularized toward)
sparse = sparsify(proto, mask)
print("sparse:   ", sparse.values)

# keep only the masked entries (what actually goes on the wire)
comp = compress(proto, mask)
print("compressed:", comp.values, f"   {proto.dim} values -> {comp.dim}")

# the receiving side scatters them back into place
rebuilt = reconstruct(comp, mask)
print("rebuilt:  ", rebuilt.values)
assert np.array_equal(rebuilt.values, sparse.values)

# the operator is linear for a fixed mask, so averaging compressed payloads
# on the server gives the same result as compressing the averaged prototype
others = [Prototype(0, np.random.default_rng(i).normal(size=5)) for i in range(3)]
mean_then_compress = compress(
    Prototype(0, sum(p.values for p in others) / 3), mask
).values
compress_then_mean = sum(compress(p, mask).values for p in others) / 3
print("\nlinearity check (mean/compress commute):")
print("  compress(mean):", mean_then_compress)
print("  mean(compress):", compress_then_mean)
assert np.allclose(mean_then_compress, compress_then_mean, atol=1e-12)
print("ok")
