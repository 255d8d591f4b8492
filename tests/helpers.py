"""Shared test utilities: central finite differences, relative error and
a writer of the retired version-1 checkpoint layout."""

import struct

import numpy as np


def central_difference(f, x, h=1e-5):
    """Gradient of scalar f at matrix x by central differences, coordinatewise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        ij = it.multi_index
        old = x[ij]
        x[ij] = old + h
        up = f(x)
        x[ij] = old - h
        down = f(x)
        x[ij] = old
        grad[ij] = (up - down) / (2.0 * h)
    return grad


def param_central_difference(f, tensor, h=1e-5, coords=None):
    """Finite-difference gradient of scalar f() w.r.t. a ParamTensor's value.

    ``coords`` restricts the check to a subset of coordinates (list of
    index tuples); None checks all of them.
    """
    grad = np.zeros_like(tensor.value)
    if coords is None:
        coords = [tuple(ij) for ij in np.ndindex(*tensor.value.shape)]
    for ij in coords:
        old = tensor.value[ij]
        tensor.value[ij] = old + h
        up = f()
        tensor.value[ij] = old - h
        down = f()
        tensor.value[ij] = old
        grad[ij] = (up - down) / (2.0 * h)
    return grad, coords


def max_relative_error(analytic, numeric, floor=1.0):
    """max |a - n| / max(floor, |a|, |n|), elementwise."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def write_version1_checkpoint(params, path):
    """Save ``params`` in the version-1 layout, whose header also carried an
    f64 dropout rate after the six u32 config fields."""
    cfg = params.config
    with open(path, "wb") as f:
        f.write(struct.pack("<4sI6Id", b"MXRT", 1, cfg.embed_dim, cfg.num_layers,
                            cfg.num_heads, cfg.ffn_dim, cfg.num_precisions,
                            cfg.max_len, 0.0))
        for _, tensor in params.tensors():
            f.write(struct.pack("<II", *tensor.value.shape))
            f.write(tensor.value.astype("<f8").tobytes())
