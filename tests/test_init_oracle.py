"""Reference oracle for the parameter initialisers.

Every trained or reconstructed output starts from init_stt_params or
init_uar_params, so the order in which they draw from the generator is
part of the output.  The reference initialisers below draw in that order
directly with kaiming_conv and trunc_normal; the shipped ones must give
the same names, in the same order, with bitwise equal tensors.  The UAR
generator's last convs draw their weights and are then zeroed.
"""

import numpy as np
import pytest

from tcrtomo.layers import kaiming_conv, trunc_normal
from tcrtomo.stt import SttConfig, init_stt_params
from tcrtomo.uar import MODES, STEP_INIT, UarConfig, init_uar_params


class _Ref:
    """Ordered name -> array dict built from one generator."""

    def __init__(self, rng):
        self.rng = rng
        self.arrays = {}

    def conv(self, name, cin, cout, kernel):
        self.arrays[name + ".w"] = kaiming_conv(self.rng, cout, cin, kernel)
        self.arrays[name + ".b"] = np.zeros(cout, dtype=np.float32)

    def linear(self, name, din, dout):
        self.arrays[name + ".w"] = trunc_normal(self.rng, (din, dout))
        self.arrays[name + ".b"] = np.zeros(dout, dtype=np.float32)

    def norm(self, name, dim):
        self.arrays[name + ".g"] = np.ones(dim, dtype=np.float32)
        self.arrays[name + ".b"] = np.zeros(dim, dtype=np.float32)


def ref_init_stt(cfg, seed):
    ref = _Ref(np.random.default_rng(seed))
    c0, c1, c2 = cfg.enc_channels
    d = cfg.model_dim
    ref.conv("enc0", 1, c0, (3, 3, 3))
    ref.conv("enc1", c0, c1, (3, 3, 3))
    ref.conv("enc2", c1, c2, (3, 3, 3))
    ref.conv("embed", c2, d, (1, 1, 1))
    for i in range(cfg.layers):
        ref.norm(f"blk{i}.ln1", d)
        ref.linear(f"blk{i}.qkv", d, 3 * d)
        ref.linear(f"blk{i}.proj", d, d)
        ref.norm(f"blk{i}.ln2", d)
        ref.linear(f"blk{i}.mlp1", d, 4 * d)
        ref.linear(f"blk{i}.mlp2", 4 * d, d)
    ref.norm("final_ln", d)
    ref.conv("dec0", d, c2, (3, 3))
    ref.conv("skip1", d, c1, (1, 1))
    ref.conv("dec1", c2 + c1, c1, (3, 3))
    ref.conv("skip2", d, c0, (1, 1))
    ref.conv("dec2", c1 + c0, c0, (3, 3))
    ref.conv("head", c0 + 1, 1, (1, 1))
    return ref.arrays


def ref_init_uar(mode, cfg, seed):
    ref = _Ref(np.random.default_rng(np.random.SeedSequence([seed, 404])))
    k = (3, 3) if mode == "static2d" else (3, 3, 3)
    gc = cfg.gamma_channels
    for layer in range(cfg.unroll):
        ref.conv(f"gen.d{layer}.c0", 4, gc, k)
        ref.conv(f"gen.d{layer}.c1", gc, gc, k)
        ref.conv(f"gen.d{layer}.c2", gc, 1, k)
        ref.conv(f"gen.p{layer}.c0", 3, gc, k)
        ref.conv(f"gen.p{layer}.c1", gc, gc, k)
        ref.conv(f"gen.p{layer}.c2", gc, 1, k)
        # Fixup: each residual branch's last conv starts at zero
        for net in ("d", "p"):
            ref.arrays[f"gen.{net}{layer}.c2.w"][...] = 0.0
        for step in ("sigma", "tau"):
            ref.arrays[f"gen.{step}{layer}"] = np.full(
                (1,), STEP_INIT, dtype=np.float32)
    in_ch = 1
    for j, ch in enumerate(cfg.critic_channels):
        ref.conv(f"reg.c{j}", in_ch, ch, k)
        in_ch = ch
    ref.linear("reg.fc1", in_ch, cfg.critic_hidden)
    ref.linear("reg.fc2", cfg.critic_hidden, 1)
    return ref.arrays


def assert_same(params, arrays):
    assert list(params) == list(arrays)
    for name, want in arrays.items():
        got = params[name]
        assert got.requires_grad, name
        assert got.data.dtype == want.dtype, name
        assert got.data.shape == want.shape, name
        assert np.array_equal(got.data, want), name


STT_CONFIGS = {
    "desk": SttConfig(image_size=32),
    "paper": SttConfig(model_dim=512, heads=8, layers=6, image_size=64),
}


@pytest.mark.parametrize("name", sorted(STT_CONFIGS))
def test_stt_init_matches_reference(name):
    cfg = STT_CONFIGS[name]
    assert_same(init_stt_params(cfg, seed=7), ref_init_stt(cfg, 7))


@pytest.mark.parametrize("mode", MODES)
def test_uar_init_matches_reference(mode):
    cfg = UarConfig()
    assert_same(init_uar_params(mode, cfg, seed=3), ref_init_uar(mode, cfg, 3))
