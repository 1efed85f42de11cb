"""Dense feed-forward networks with exact reverse-mode gradients and Adam.

Everything is float64 numpy. A network's layers are views into one
``params`` vector (several networks can share one: :meth:`Network.share`),
so Adam updates a model whole. Forward returns the full activation trace so
backward can run the chain rule without recomputation. ``backward`` fills
the caller's gradient buffer and returns the gradient w.r.t. the batch input,
which is how the VAE pieces are chained. A stacked network (:meth:`Network.stack`)
holds M networks of one shape on a leading axis; one call serves all M, each
bit for bit as alone.
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
# Adam's decay rates and denominator guard: Kingma & Ba's defaults, fixed
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class Layer:
    W: np.ndarray  # out x in, or arms x out x in when stacked
    b: np.ndarray  # out, or arms x out
    activation: str


@dataclass
class Network:
    """Layers packed into one float64 buffer: each ``W``/``b`` is a view of ``params``."""

    layers: list[Layer]
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        lead = np.shape(self.layers[0].b)[:-1]  # (M,) when stacked
        self._bind(np.concatenate([np.reshape(a, (*lead, -1)) for l in self.layers
                                   for a in (l.W, l.b)], axis=-1, dtype=np.float64))

    def _bind(self, params: np.ndarray) -> None:
        """Make ``params`` (laid out like the current one) this network's buffer."""
        self.params = params
        views = self.layer_views(params)
        self.layers = [Layer(W, b, l.activation) for (W, b), l in zip(views, self.layers)]

    @classmethod
    def stack(cls, nets: list["Network"]) -> "Network":
        """One network whose ``params`` is (M, n): arm i is a copy of ``nets[i]``."""
        shapes = [[(l.W.shape, l.activation) for l in net.layers] for net in nets]
        if any(s != shapes[0] for s in shapes):
            raise DimensionError("stacked networks need equal layer shapes and activations")
        return cls([Layer(np.stack([n.layers[k].W for n in nets]),
                          np.stack([n.layers[k].b for n in nets]), l.activation)
                    for k, l in enumerate(nets[0].layers)])

    @staticmethod
    def share(nets: list["Network"]) -> tuple[np.ndarray, list[slice]]:
        """One buffer of ``nets``' params side by side on the last axis, and each
        network's span of it; each ``params`` (and W/b) becomes a view of its span."""
        ends = np.cumsum([net.params.shape[-1] for net in nets]).tolist()
        spans = [slice(end - net.params.shape[-1], end) for net, end in zip(nets, ends)]
        buffer = np.concatenate([net.params for net in nets], axis=-1)
        for net, span in zip(nets, spans):
            net._bind(buffer[..., span])
        return buffer, spans

    def arm(self, i: int) -> "Network":
        """Arm ``i`` of a stacked network, as an independent plain network."""
        return Network([Layer(l.W[i], l.b[i], l.activation) for l in self.layers])

    def layer_views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W, b) views into a buffer laid out like ``params``."""
        out, off = [], 0
        for l in self.layers:
            rows, cols = l.W.shape[-2:]
            end = off + rows * cols
            out.append((flat[..., off:end].reshape(*flat.shape[:-1], rows, cols),
                        flat[..., end : end + rows]))
            off = end + rows
        return out

    @property
    def in_width(self) -> int:
        return self.layers[0].W.shape[-1]

    @property
    def out_width(self) -> int:
        return self.layers[-1].W.shape[-2]


@dataclass
class Trace:
    """Forward pass record: activations a_0 (the batch) .. a_L."""

    activations: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]


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


def _activations(net: Network, a: np.ndarray):
    """The B x in batch (M x B x in for a stacked network), then each layer's activation.
    W is read as a transposed view, so BLAS runs each arm's plain-network kernel."""
    a = np.asarray(a, dtype=np.float64)  # the one name for the batch: the first layer lets it go
    if a.ndim < 2 or a.shape[:-2] not in ((), net.params.shape[:-1]) or a.shape[-1] != net.in_width:
        raise ShapeError(f"expected B x {net.in_width} batch, got {a.shape}")
    yield a
    for layer in net.layers:
        a = np.matmul(a, np.swapaxes(layer.W, -1, -2))
        a += layer.b[..., None, :]
        if layer.activation == TANH:
            np.tanh(a, out=a)
        yield a


def forward(net: Network, batch: np.ndarray) -> Trace:
    """Every activation, for :func:`backward`."""
    return Trace(list(_activations(net, batch)))


def forward_output(net: Network, batch: np.ndarray) -> np.ndarray:
    """``forward(net, batch).output``, holding no more than two activations at once."""
    layers = _activations(net, batch)
    del batch
    for a in layers:
        pass
    return a


def backward(net: Network, trace: Trace, d_output: np.ndarray, out: np.ndarray,
             need_input: bool = True) -> np.ndarray | None:
    """Exact gradients of the scalar loss whose output-gradient is supplied. The parameter
    gradient fills ``out`` (laid out like ``params``); the input gradient, if ``need_input``, is returned."""
    d_output = np.asarray(d_output, dtype=np.float64)
    if d_output.shape != trace.output.shape:
        raise ShapeError(
            f"d_output shape {d_output.shape} != output shape {trace.output.shape}"
        )
    grads = net.layer_views(out)
    delta = d_output
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        if layer.activation == TANH:
            d = np.square(trace.activations[k + 1])
            np.subtract(1.0, d, out=d)
            delta = np.multiply(d, delta, out=d)
        dW, db = grads[k]
        np.matmul(np.swapaxes(delta, -1, -2), trace.activations[k], out=dW)
        np.sum(delta, axis=-2, out=db)
        if k or need_input:
            delta = np.matmul(delta, layer.W)
    return delta if need_input else None


@dataclass
class AdamState:
    m: np.ndarray  # moments, laid out like the parameters they update
    v: np.ndarray
    step: int = 0

    @classmethod
    def like(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """Standard Adam update with bias correction, in place, on a whole parameter
    buffer; elementwise, so it equals a per-layer or per-network update bit for
    bit. Two scratch buffers replace the temporaries, with each operation unchanged."""
    state.step += 1
    c1 = 1.0 - _BETA1**state.step
    c2 = 1.0 - _BETA2**state.step
    m, v, s = state.m, state.v, np.empty_like(state.m)
    m *= _BETA1
    m += np.multiply(grad, 1.0 - _BETA1, out=s)
    v *= _BETA2
    v += np.multiply(np.multiply(grad, grad, out=s), 1.0 - _BETA2, out=s)
    t = np.divide(m, c1)
    t *= lr
    t /= np.add(np.sqrt(np.divide(v, c2, out=s), out=s), _EPS, out=s)
    params -= t


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
    """Inverse of :func:`write_networks`; any malformed file raises :class:`ShapeError`."""
    raw = Path(path).read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ShapeError(f"{path}: not a network checkpoint")
    try:
        off = len(_MAGIC)
        (hlen,) = struct.unpack_from("<I", raw, off)
        off += 4
        header = json.loads(raw[off : off + hlen].decode())
        if not isinstance(header, dict):
            raise ValueError("the header is not a JSON object")
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
                if min(in_w, out_w) < 1 or layers and layers[-1].W.shape[0] != in_w:
                    raise ValueError(f"layer widths {in_w} -> {out_w} do not chain")
                W = np.frombuffer(raw, dtype="<f8", count=in_w * out_w, offset=off)
                off += 8 * in_w * out_w
                b = np.frombuffer(raw, dtype="<f8", count=out_w, offset=off)
                off += 8 * out_w
                layers.append(Layer(W.reshape(out_w, in_w), b, _ACT_NAMES[act]))  # Network copies them
            nets.append(Network(layers))
        if off != len(raw):
            raise ValueError(f"{len(raw) - off} trailing bytes")
    except (ValueError, KeyError, IndexError, struct.error) as e:
        raise ShapeError(f"{path}: malformed network checkpoint: {e}") from None
    return nets, header
