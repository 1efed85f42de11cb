"""Dense feed-forward networks with exact reverse-mode gradients and Adam.

Everything is float64 numpy. A network's layers are views into one
``params`` vector, so Adam updates it whole. Forward returns the full
activation trace so backward can run the chain rule without
recomputation. ``backward`` also returns the gradient with respect to
the batch input, which is how encoder/decoder stacks and the VAE pieces
are chained.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionError, ShapeError
from .rng import make_rng

TANH = "tanh"
IDENTITY = "identity"
_ACT_CODES = {IDENTITY: 0, TANH: 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}

_MAGIC = b"MAEN1\n"


@dataclass
class Layer:
    W: np.ndarray  # out x in
    b: np.ndarray  # out
    activation: str


@dataclass
class Network:
    """Layers packed into one float64 buffer: each ``W``/``b`` is a view of ``params``."""

    layers: list[Layer]
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.params = np.concatenate([np.ravel(a) for l in self.layers for a in (l.W, l.b)],
                                     dtype=np.float64)
        views = self.layer_views(self.params)
        self.layers = [Layer(W, b, l.activation) for (W, b), l in zip(views, self.layers)]

    def layer_views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W, b) views into a buffer laid out like ``params``."""
        out, off = [], 0
        for l in self.layers:
            end = off + l.W.size
            out.append((flat[off:end].reshape(l.W.shape), flat[end : end + len(l.W)]))
            off = end + len(l.W)
        return out

    @property
    def in_width(self) -> int:
        return self.layers[0].W.shape[1]

    @property
    def out_width(self) -> int:
        return self.layers[-1].W.shape[0]

    def copy(self) -> "Network":
        return Network(self.layers)


@dataclass
class Trace:
    """Forward pass record: activations a_0..a_L and pre-activations z_1..z_L."""

    activations: list[np.ndarray]
    pre: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]


@dataclass
class Gradients:
    """(dW, db) per layer plus the gradient w.r.t. the batch input."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    wrt_input: np.ndarray
    flat: np.ndarray | None = None  # what ``layers`` views, laid out like params


def init_network(dims: list[int], activations: list[str], seed: int) -> Network:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    if len(dims) < 2:
        raise DimensionError("need at least input and output widths")
    if len(activations) != len(dims) - 1:
        raise DimensionError(f"{len(dims) - 1} layers need {len(dims) - 1} activations")
    if any(d < 1 for d in dims):
        raise DimensionError(f"widths must be >= 1, got {dims}")
    for a in activations:
        if a not in _ACT_CODES:
            raise DimensionError(f"unknown activation {a!r}")
    rng = make_rng(seed)
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        W = (2.0 * rng.random((fan_out, fan_in)) - 1.0) * s
        layers.append(Layer(W, np.zeros(fan_out), act))
    return Network(layers)


def forward(net: Network, batch: np.ndarray) -> Trace:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.in_width:
        raise ShapeError(f"expected B x {net.in_width} batch, got {batch.shape}")
    activations = [batch]
    pre = []
    a = batch
    for layer in net.layers:
        z = a @ layer.W.T + layer.b
        a = np.tanh(z) if layer.activation == TANH else z
        pre.append(z)
        activations.append(a)
    return Trace(activations, pre)


def backward(net: Network, trace: Trace, d_output: np.ndarray) -> Gradients:
    """Exact gradients of the scalar loss whose output-gradient is supplied."""
    d_output = np.asarray(d_output, dtype=np.float64)
    if d_output.shape != trace.output.shape:
        raise ShapeError(
            f"d_output shape {d_output.shape} != output shape {trace.output.shape}"
        )
    flat = np.empty_like(net.params)
    grads = net.layer_views(flat)
    delta = d_output
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        if layer.activation == TANH:
            a = trace.activations[k + 1]
            delta = delta * (1.0 - a * a)
        dW, db = grads[k]
        np.matmul(delta.T, trace.activations[k], out=dW)
        np.sum(delta, axis=0, out=db)
        delta = delta @ layer.W
    return Gradients(grads, delta, flat)


@dataclass
class AdamState:
    m: np.ndarray  # moments, laid out like Network.params
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_network(cls, net: Network, **kw) -> "AdamState":
        return cls(m=np.zeros_like(net.params), v=np.zeros_like(net.params), **kw)


def adam_step(state: AdamState, net: Network, grads: Gradients, lr: float) -> None:
    """Standard Adam update with bias correction, in place, on the whole
    parameter vector; elementwise, so it equals a per-layer update bit for bit."""
    state.step += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    g = grads.flat
    if g is None:
        g = np.concatenate([a.ravel() for pair in grads.layers for a in pair])
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    net.params -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


# ----------------------------------------------------------------------
# Checkpoint format: magic, u32 JSON header length, header bytes, then
# u32 network count and per network u32 layer count followed by
# (u32 in, u32 out, u8 activation, f64 W row-major, f64 b) per layer.
# Little-endian throughout; round-trips bit-exactly.
# ----------------------------------------------------------------------

def write_networks(path: str | Path, nets: list[Network], header: dict | None = None) -> None:
    buf = io.BytesIO()
    buf.write(_MAGIC)
    payload = json.dumps(header or {}, sort_keys=True).encode()
    buf.write(struct.pack("<I", len(payload)))
    buf.write(payload)
    buf.write(struct.pack("<I", len(nets)))
    for net in nets:
        buf.write(struct.pack("<I", len(net.layers)))
        for layer in net.layers:
            out_w, in_w = layer.W.shape
            buf.write(struct.pack("<IIB", in_w, out_w, _ACT_CODES[layer.activation]))
            buf.write(np.ascontiguousarray(layer.W, dtype="<f8").tobytes())
            buf.write(np.ascontiguousarray(layer.b, dtype="<f8").tobytes())
    Path(path).write_bytes(buf.getvalue())


def read_networks(path: str | Path) -> tuple[list[Network], dict]:
    raw = Path(path).read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ShapeError(f"{path}: not a network checkpoint")
    off = len(_MAGIC)
    (hlen,) = struct.unpack_from("<I", raw, off)
    off += 4
    header = json.loads(raw[off : off + hlen].decode())
    off += hlen
    (n_nets,) = struct.unpack_from("<I", raw, off)
    off += 4
    nets = []
    for _ in range(n_nets):
        (n_layers,) = struct.unpack_from("<I", raw, off)
        off += 4
        layers = []
        for _ in range(n_layers):
            in_w, out_w, act = struct.unpack_from("<IIB", raw, off)
            off += 9
            W = np.frombuffer(raw, dtype="<f8", count=in_w * out_w, offset=off).reshape(out_w, in_w)
            off += 8 * in_w * out_w
            b = np.frombuffer(raw, dtype="<f8", count=out_w, offset=off)
            off += 8 * out_w
            layers.append(Layer(W, b, _ACT_NAMES[act]))  # Network copies them
        nets.append(Network(layers))
    return nets, header
