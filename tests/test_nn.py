"""Network, gradient and optimizer tests."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedae import nn
from mixedae.errors import DimensionError, MixedAEError, ShapeError
from mixedae.losses import mse_loss
from mixedae.rng import make_rng

from oracles import LayerwiseAdam, reference_forward_backward


def finite_difference_grads(net, x, target, h=1e-5):
    """Central finite differences of the MSE loss over every parameter."""
    out = []
    for layer in net.layers:
        pair = []
        for arr in (layer.W, layer.b):
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                old = arr[ix]
                arr[ix] = old + h
                vp = mse_loss(nn.forward(net, x).output, target)[0]
                arr[ix] = old - h
                vm = mse_loss(nn.forward(net, x).output, target)[0]
                arr[ix] = old
                g[ix] = (vp - vm) / (2 * h)
            pair.append(g)
        out.append(tuple(pair))
    return out


def rel_err(a, b):
    return abs(a - b) / max(1e-8, abs(a), abs(b))


class TestInit:
    def test_bounds(self):
        net = nn.init_network([4, 2], [nn.TANH], seed=1)
        W = net.layers[0].W
        assert W.shape == (2, 4)
        assert np.all(np.abs(W) < 1.0)

    def test_deterministic(self):
        a = nn.init_network([5, 3, 2], [nn.TANH, nn.IDENTITY], seed=9)
        b = nn.init_network([5, 3, 2], [nn.TANH, nn.IDENTITY], seed=9)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.W, lb.W)
            assert np.array_equal(la.b, lb.b)

    def test_zero_biases(self):
        net = nn.init_network([6, 4, 2], [nn.TANH, nn.TANH], seed=0)
        assert all(np.all(l.b == 0.0) for l in net.layers)

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            nn.init_network([4], [], seed=0)
        with pytest.raises(DimensionError):
            nn.init_network([4, 2], [nn.TANH, nn.TANH], seed=0)
        with pytest.raises(DimensionError):
            nn.init_network([4, 0], [nn.TANH], seed=0)
        with pytest.raises(DimensionError):
            nn.init_network([4, 2], ["relu"], seed=0)


class TestForward:
    def test_zero_net_outputs_zero(self):
        net = nn.init_network([3, 2], [nn.TANH], seed=0)
        net.layers[0].W[:] = 0.0
        out = nn.forward(net, np.ones((4, 3))).output
        assert np.all(out == 0.0)

    def test_identity_layer(self):
        net = nn.Network([nn.Layer(np.eye(3), np.zeros(3), nn.IDENTITY)])
        x = make_rng(0).random((5, 3))
        assert np.array_equal(nn.forward(net, x).output, x)

    def test_tanh_value_against_series(self):
        # reference value from the odd Taylor series of tanh at 0.5
        x = 0.5
        terms = [
            x, -(x**3) / 3, 2 * x**5 / 15, -17 * x**7 / 315,
            62 * x**9 / 2835, -1382 * x**11 / 155925, 21844 * x**13 / 6081075,
        ]
        reference = sum(terms)
        net = nn.Network([nn.Layer(np.array([[1.0]]), np.zeros(1), nn.TANH)])
        out = nn.forward(net, np.array([[0.5]])).output[0, 0]
        assert out == pytest.approx(reference, abs=1e-6)
        assert out == pytest.approx(0.462117, abs=1e-6)

    def test_shape_error(self):
        net = nn.init_network([3, 2], [nn.TANH], seed=0)
        with pytest.raises(ShapeError):
            nn.forward(net, np.ones((4, 7)))

    def test_forward_is_pure(self):
        net = nn.init_network([3, 3, 2], [nn.TANH, nn.TANH], seed=2)
        before = [l.W.copy() for l in net.layers]
        nn.forward(net, np.ones((2, 3)))
        assert all(np.array_equal(a, l.W) for a, l in zip(before, net.layers))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_output_only_pass_equals_the_trace_output(self, stacked):
        nets = arm_nets(dims=(6, 5, 4, 3))
        net = nn.Network.stack(nets) if stacked else nets[0]
        x = make_rng(4).random((3, 7, 6) if stacked else (7, 6))
        got, want = nn.forward_output(net, x), nn.forward(net, x).output
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        with pytest.raises(ShapeError):
            nn.forward_output(net, np.ones((4, 7)))


class TestBackward:
    def test_zero_output_gradient(self):
        net = nn.init_network([3, 4, 2], [nn.TANH, nn.TANH], seed=3)
        trace = nn.forward(net, np.ones((5, 3)))
        g = nn.backward(net, trace, np.zeros((5, 2)))
        assert all(np.all(dW == 0) and np.all(db == 0) for dW, db in g.layers)
        assert np.all(g.wrt_input == 0)

    def test_matches_finite_differences(self):
        rng = make_rng(7)
        for trial in range(5):
            dims = [4, 6, 3, 2][: rng.integers(2, 5)]
            if len(dims) < 2:
                dims = [4, 2]
            acts = [nn.TANH] * (len(dims) - 2) + [nn.IDENTITY]
            net = nn.init_network(dims, acts, seed=trial)
            x = rng.random((3, dims[0]))
            t = rng.random((3, dims[-1]))
            trace = nn.forward(net, x)
            _, dout = mse_loss(trace.output, t)
            analytic = nn.backward(net, trace, dout)
            numeric = finite_difference_grads(net, x, t)
            for (aW, ab), (nW, nb) in zip(analytic.layers, numeric):
                assert np.max(np.abs(aW - nW)) < 1e-7 + 1e-4 * np.max(np.abs(nW))
                assert np.max(np.abs(ab - nb)) < 1e-7 + 1e-4 * np.max(np.abs(nb) + 1e-12)

    def test_linear_mse_closed_form(self):
        # single identity layer under MSE: dW = (2/B) err^T x for one output
        rng = make_rng(11)
        B = 6
        net = nn.Network([nn.Layer(rng.random((1, 3)), np.zeros(1), nn.IDENTITY)])
        x = rng.random((B, 3))
        t = rng.random((B, 1))
        trace = nn.forward(net, x)
        _, dout = mse_loss(trace.output, t)
        g = nn.backward(net, trace, dout)
        err = trace.output - t
        expected = (2.0 / B) * err.T @ x
        assert np.allclose(g.layers[0][0], expected, atol=1e-12)

    def test_backward_does_not_mutate(self):
        net = nn.init_network([3, 3], [nn.TANH], seed=2)
        before = net.layers[0].W.copy()
        trace = nn.forward(net, np.ones((2, 3)))
        nn.backward(net, trace, np.ones((2, 3)))
        assert np.array_equal(before, net.layers[0].W)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        net = nn.init_network([3, 2], [nn.TANH], seed=0)
        before = net.layers[0].W.copy()
        state = nn.AdamState.like(net.params)
        for _ in range(10):
            nn.adam_step(state, net.params, np.zeros(8), lr=0.1)
        assert np.array_equal(before, net.layers[0].W)

    def test_first_step_size(self):
        # constant unit gradient: bias-corrected m/sqrt(v) = 1, step ~ lr
        net = nn.Network([nn.Layer(np.array([[1.0]]), np.zeros(1), nn.IDENTITY)])
        state = nn.AdamState.like(net.params)
        nn.adam_step(state, net.params, np.array([1.0, 0.0]), lr=0.1)
        assert net.layers[0].W[0, 0] == pytest.approx(1.0 - 0.1, abs=1e-8)

    def test_identical_streams_identical_trajectories(self):
        rng = make_rng(5)
        nets = [nn.init_network([3, 2], [nn.IDENTITY], seed=4) for _ in range(2)]
        states = [nn.AdamState.like(n.params) for n in nets]
        for _ in range(20):
            g = np.concatenate([rng.random(6), np.zeros(2)])  # dW, then db
            for net, st in zip(nets, states):
                nn.adam_step(st, net.params, g, lr=0.01)
        assert np.array_equal(nets[0].layers[0].W, nets[1].layers[0].W)

    def test_loss_monotone_after_warmup(self):
        # 1-layer identity net, MSE on a linear target, full batch
        rng = make_rng(8)
        X = rng.random((50, 4))
        true_w = rng.random((2, 4))
        Y = X @ true_w.T
        net = nn.init_network([4, 2], [nn.IDENTITY], seed=1)
        state = nn.AdamState.like(net.params)
        losses = []
        for _ in range(200):
            trace = nn.forward(net, X)
            value, dout = mse_loss(trace.output, Y)
            losses.append(value)
            nn.adam_step(state, net.params, nn.backward(net, trace, dout).flat, lr=0.01)
        tail = np.array(losses[10:])
        assert np.all(np.diff(tail) <= 1e-12)

    def test_flat_update_matches_layerwise_reference(self):
        # 3-layer net, 50 steps: the one-buffer update equals Adam applied
        # layer by layer, bit for bit
        rng = make_rng(12)
        dims, acts = [6, 5, 4, 3], [nn.TANH, nn.TANH, nn.IDENTITY]
        net = nn.init_network(dims, acts, seed=2)
        ref = [a.copy() for l in net.layers for a in (l.W, l.b)]
        state = nn.AdamState.like(net.params)
        oracle = LayerwiseAdam(ref)
        for _ in range(50):
            x, t = rng.random((8, 6)), rng.random((8, 3))
            ref_net = nn.Network([nn.Layer(W, b, act) for W, b, act in zip(ref[::2], ref[1::2], acts)])
            trace = nn.forward(ref_net, x)
            g_ref = nn.backward(ref_net, trace, mse_loss(trace.output, t)[1])
            oracle.update(ref, [a for pair in g_ref.layers for a in pair], lr=0.01)

            trace = nn.forward(net, x)
            g = nn.backward(net, trace, mse_loss(trace.output, t)[1])
            nn.adam_step(state, net.params, g.flat, lr=0.01)
            got = [a for l in net.layers for a in (l.W, l.b)]
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))


class TestParameterBuffer:
    def test_layers_are_views_of_params(self, tmp_path):
        net = nn.init_network([5, 4, 3, 2], [nn.TANH, nn.TANH, nn.IDENTITY], seed=1)
        path = tmp_path / "net.ckpt"
        nn.write_networks(path, [net])
        (loaded,), _ = nn.read_networks(path)
        for n in (net, nn.Network(net.layers), loaded):
            assert n.params.size == sum(l.W.size + l.b.size for l in n.layers)
            for layer in n.layers:
                assert np.shares_memory(layer.W, n.params)
                assert np.shares_memory(layer.b, n.params)
            n.params[:] = 0.25
            assert all(np.all(l.W == 0.25) and np.all(l.b == 0.25) for l in n.layers)

    @pytest.mark.parametrize("stack", [False, True])
    def test_shared_buffer_steps_equal_per_network_steps(self, stack):
        # two networks in one buffer, one gradient written per network by
        # backward's out=, one Adam state: each equals its own update
        def nets():
            pair = [nn.init_network([6, 5, 4], [nn.TANH, nn.IDENTITY], seed=1),
                    nn.init_network([4, 3], [nn.TANH], seed=2)]
            return [nn.Network.stack([n, n]) for n in pair] if stack else pair

        rng = make_rng(3)
        shared, alone = nets(), nets()
        buffer, spans = nn.Network.share(shared)
        assert buffer.shape == (*shared[0].params.shape[:-1], sum(n.params.shape[-1] for n in alone))
        for net, span, ref in zip(shared, spans, alone):
            assert np.array_equal(buffer[..., span], ref.params)
            assert all(np.shares_memory(a, buffer) for l in net.layers for a in (l.W, l.b))
        state, states = nn.AdamState.like(buffer), [nn.AdamState.like(n.params) for n in alone]
        for _ in range(20):
            x = rng.random((7, 6))
            grad = np.empty_like(buffer)
            for net, span, ref, st in zip(shared, spans, alone, states):
                trace, ref_trace = nn.forward(net, x), nn.forward(ref, x)
                d_out = rng.random(trace.output.shape)
                g = nn.backward(net, trace, d_out, out=grad[..., span])
                g_ref = nn.backward(ref, ref_trace, d_out)
                assert np.shares_memory(g.flat, grad)
                assert np.array_equal(g.flat, g_ref.flat)
                assert np.array_equal(g.wrt_input, g_ref.wrt_input)
                nn.adam_step(st, ref.params, g_ref.flat, lr=0.01)
                x = trace.output
            nn.adam_step(state, buffer, grad, lr=0.01)
            for net, ref in zip(shared, alone):
                assert np.array_equal(net.params, ref.params)


def arm_nets(n_arms=3, dims=(6, 5, 4, 3), acts=(nn.TANH, nn.TANH, nn.IDENTITY)):
    return [nn.init_network(list(dims), list(acts), seed=s) for s in range(n_arms)]


class TestStackedNetwork:
    def test_layout(self):
        nets = arm_nets()
        stacked = nn.Network.stack(nets)
        assert stacked.params.shape == (3, nets[0].params.size)
        for k, layer in enumerate(stacked.layers):
            assert layer.W.shape == (3, *nets[0].layers[k].W.shape)
            assert layer.b.shape == (3, nets[0].layers[k].b.size)
            assert np.shares_memory(layer.W, stacked.params)
            assert np.shares_memory(layer.b, stacked.params)
        for i, net in enumerate(nets):
            assert np.array_equal(stacked.params[i], net.params)

    def test_shape_check(self):
        with pytest.raises(DimensionError):
            nn.Network.stack([nn.init_network([4, 3], [nn.TANH], seed=0),
                              nn.init_network([4, 2], [nn.TANH], seed=0)])
        with pytest.raises(DimensionError):
            nn.Network.stack([nn.init_network([4, 3], [nn.TANH], seed=0),
                              nn.init_network([4, 3], [nn.IDENTITY], seed=0)])

    def test_arm_is_an_independent_copy(self):
        nets = arm_nets()
        stacked = nn.Network.stack(nets)
        arm = stacked.arm(1)
        assert arm.params.shape == nets[1].params.shape
        assert np.array_equal(arm.params, nets[1].params)
        assert not np.shares_memory(arm.params, stacked.params)
        arm.params[:] = 7.0
        stacked.params[1] = -7.0
        assert np.array_equal(stacked.arm(1).params, np.full_like(arm.params, -7.0))
        assert np.all(arm.params == 7.0)
        assert np.array_equal(stacked.arm(0).params, nets[0].params)

    def test_batch_shape_checked(self):
        stacked = nn.Network.stack(arm_nets())
        with pytest.raises(ShapeError):
            nn.forward(stacked, np.ones((2, 4, 6)))
        with pytest.raises(ShapeError):
            nn.forward(stacked, np.ones(6))

    def test_plain_network_equals_reference_loop(self):
        # in-place forward/backward against fresh temporaries, bit for bit
        rng = make_rng(9)
        net = arm_nets(1)[0]
        net.params[:] = rng.random(net.params.size) - 0.5  # non-zero biases too
        for rows in (8, 1):
            x, d_out = rng.random((rows, 6)), rng.random((rows, 3))
            trace = nn.forward(net, x)
            g = nn.backward(net, trace, d_out)
            layers = [(l.W, l.b, l.activation) for l in net.layers]
            outs, grads, wrt_input = reference_forward_backward(layers, x, d_out)
            assert all(np.array_equal(a, r) for a, r in zip(trace.activations[1:], outs))
            for (dW, db), (rW, rb) in zip(g.layers, grads):
                assert np.array_equal(dW, rW) and np.array_equal(db, rb)
            assert np.array_equal(g.wrt_input, wrt_input)

    @pytest.mark.parametrize("per_arm", [False, True])
    def test_steps_equal_per_arm_networks(self, per_arm):
        # 30 Adam steps on varying batch sizes: the stacked forward,
        # backward and update equal each arm's own, bit for bit
        rng = make_rng(4)
        nets = arm_nets()
        stacked = nn.Network.stack(nets)
        states = [nn.AdamState.like(n.params) for n in nets]
        stacked_state = nn.AdamState.like(stacked.params)
        for step in range(30):
            rows = (8, 5, 1)[step % 3]
            x = rng.random((3, rows, 6)) if per_arm else rng.random((rows, 6))
            t = rng.random((3, rows, 3))
            trace = nn.forward(stacked, x)
            g = nn.backward(stacked, trace, trace.output - t)
            for i, net in enumerate(nets):
                xi = x[i] if per_arm else x
                trace_i = nn.forward(net, xi)
                g_i = nn.backward(net, trace_i, trace_i.output - t[i])
                for a, a_i in zip(trace.activations[1:], trace_i.activations[1:]):
                    assert np.array_equal(a[i], a_i)
                assert np.array_equal(g.flat[i], g_i.flat)
                assert np.array_equal(g.wrt_input[i], g_i.wrt_input)
                nn.adam_step(states[i], net.params, g_i.flat, lr=0.01)
            nn.adam_step(stacked_state, stacked.params, g.flat, lr=0.01)
            for i, net in enumerate(nets):
                assert np.array_equal(stacked.params[i], net.params)

    @pytest.mark.parametrize("stack", [False, True])
    def test_skipping_input_gradient_keeps_parameter_gradients(self, stack):
        net = nn.Network.stack(arm_nets()) if stack else arm_nets(1)[0]
        x = make_rng(6).random((7, 6))
        trace = nn.forward(net, x)
        d_out = np.ones_like(trace.output)
        full = nn.backward(net, trace, d_out)
        skipped = nn.backward(net, trace, d_out, need_input=False)
        assert skipped.wrt_input is None
        assert np.array_equal(full.flat, skipped.flat)
        # the input gradient itself, against central differences of sum(output)
        h, numeric = 1e-6, np.zeros(full.wrt_input.shape)
        for ix in np.ndindex(*x.shape):
            for sign in (1.0, -1.0):
                xs = x.copy()
                xs[ix] += sign * h
                numeric[(..., *ix)] += sign * nn.forward(net, xs).output.sum(axis=(-2, -1)) / (2 * h)
        assert np.allclose(full.wrt_input, numeric, atol=1e-7)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        nets = [
            nn.init_network([5, 3, 2], [nn.TANH, nn.IDENTITY], seed=3),
            nn.init_network([2, 2], [nn.TANH], seed=4),
        ]
        path = tmp_path / "nets.ckpt"
        nn.write_networks(path, nets, {"note": "test", "value": 7})
        back, header = nn.read_networks(path)
        assert header == {"note": "test", "value": 7}
        assert len(back) == 2
        for a, b in zip(nets, back):
            for la, lb in zip(a.layers, b.layers):
                assert np.array_equal(la.W, lb.W)
                assert np.array_equal(la.b, lb.b)
                assert la.activation == lb.activation

    def test_bad_file(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(ShapeError):
            nn.read_networks(p)

    def test_every_truncation_raises_shape_error(self, tmp_path):
        path = tmp_path / "net.ckpt"
        nn.write_networks(path, [nn.init_network([3, 2, 2], [nn.TANH, nn.IDENTITY], seed=1)],
                          {"kind": "test"})
        raw = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(ShapeError):
                nn.read_networks(cut)

    @pytest.mark.parametrize("damage", [
        lambda raw, h: raw + b"\0",                                  # trailing byte
        lambda raw, h: raw[:10] + b"\xff" + raw[11:],                # non-UTF-8 header
        lambda raw, h: raw[:10] + b"[" + raw[11:],                    # bad JSON
        lambda raw, h: raw[: 6 + 4 + h + 4 + 4 + 8] + b"\x07" + raw[6 + 4 + h + 4 + 4 + 9 :],
    ], ids=["trailing", "utf8", "json", "activation"])
    def test_malformed_files_raise_shape_error(self, tmp_path, damage):
        path = tmp_path / "net.ckpt"
        nn.write_networks(path, [nn.init_network([3, 2], [nn.TANH], seed=1)], {"k": 1})
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 6)
        path.write_bytes(damage(raw, hlen))
        with pytest.raises(ShapeError):
            nn.read_networks(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_byte_flips_round_trip_or_raise(self, tmp_path_factory, data):
        # a flip anywhere after the magic: in the header length, the JSON
        # header, the counts or a layer record
        path = tmp_path_factory.mktemp("flip") / "net.ckpt"
        nets = [nn.init_network([3, 2, 2], [nn.TANH, nn.IDENTITY], seed=1),
                nn.init_network([2, 1], [nn.IDENTITY], seed=2)]
        nn.write_networks(path, nets, {"kind": "test", "n": 2})
        raw = bytearray(path.read_bytes())
        pos = data.draw(st.integers(6, len(raw) - 1))
        raw[pos] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(raw))
        try:
            back, header = nn.read_networks(path)
        except MixedAEError:
            return
        nn.write_networks(path, back, header)
        again, header_again = nn.read_networks(path)
        assert header_again == header
        assert [n.params.tobytes() for n in again] == [n.params.tobytes() for n in back]
