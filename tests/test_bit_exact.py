"""Pinned binary outputs of the evaluation path and the optimizer.

The finite-size optimum moves when any input to it changes in its last bit,
so a rewrite of a formula on the evaluation path, or of a step of the
search, must reproduce these values exactly, not merely within a tolerance.
The hex strings were recorded from the library and are compared with
``float.hex``.
"""

import dataclasses
import math

import pytest

from snsqkd import (
    VARIANTS,
    OptimizationSpec,
    ProtocolParams,
    arm_transmittance,
    evaluate,
    optimize,
    preset,
)
from snsqkd.channel import x_window_rates

POINTS = {
    "rowC@100": ("rowC", 100.0, dict(p_z=0.9, p_send=0.1, mu_z=0.4,
                                     decoy_intensities=(0.0, 0.05, 0.15))),
    "rowF@240": ("rowF", 240.0, dict(p_z=0.8, p_send=0.05, mu_z=0.3,
                                     decoy_intensities=(0.0, 0.02, 0.08),
                                     delta=2.0 * math.pi / 23.0)),
    "table2@502": ("table2", 502.0, dict(p_z=0.99, p_send=0.25, mu_z=0.5,
                                         decoy_intensities=(0.0, 0.005, 0.1),
                                         delta=2.0 * math.pi / 23.0)),
}

# (point, convention, vacuum_credit) -> key length per variant
KEY_LENGTH_HEX = {
    ("rowC@100", "visibility", False): {
        "original": "-0x1.2ae6d816fc280p+28", "refined": "0x1.65d6cdbaa6c40p+24",
        "bfer": "0x1.a89b500995b00p+27", "oddsift": "0x1.3888d8792d86ap+27",
        "aopp": "0x1.1c6049f5f7e9bp+28", "finite": "0x1.6e67c6bb549c4p+27"},
    ("rowC@100", "visibility", True): {
        "original": "-0x1.2ae65dec88798p+28", "refined": "0x1.65de7061e1ac0p+24",
        "bfer": "0x1.a89b500995b00p+27", "oddsift": "0x1.3888d8792d86ap+27",
        "aopp": "0x1.1c6049f5f7e9bp+28", "finite": "0x1.6e67c6bb549c4p+27"},
    ("rowC@100", "mixing", False): {
        "original": "-0x1.2c0164290cc3cp+28", "refined": "0x1.58c0a5794c600p+24",
        "bfer": "0x1.a8468797c8580p+27", "oddsift": "0x1.388142ff2049cp+27",
        "aopp": "0x1.1c53bdf0f867fp+28", "finite": "0x1.6d4bff1bb48acp+27"},
    ("rowC@100", "mixing", True): {
        "original": "-0x1.2c00e9fe99154p+28", "refined": "0x1.58c8482087480p+24",
        "bfer": "0x1.a8468797c8580p+27", "oddsift": "0x1.388142ff2049cp+27",
        "aopp": "0x1.1c53bdf0f867fp+28", "finite": "0x1.6d4bff1bb48acp+27"},
    ("rowF@240", "visibility", False): {
        "original": "-0x1.a159cee968ddcp+20", "refined": "-0x1.a906e94412b80p+19",
        "bfer": "0x1.548f5f92118a6p+19", "oddsift": "0x1.b791916d1c25ap+18",
        "aopp": "0x1.a4550ca4bf54bp+19", "finite": "0x1.21d6828d93cf6p+19"},
    ("rowF@240", "visibility", True): {
        "original": "-0x1.9f97640bf3964p+20", "refined": "-0x1.a582138928290p+19",
        "bfer": "0x1.548f5f92118a6p+19", "oddsift": "0x1.b791916d1c25ap+18",
        "aopp": "0x1.a4550ca4bf54bp+19", "finite": "0x1.21d6828d93cf6p+19"},
    ("rowF@240", "mixing", False): {
        "original": "-0x1.a169ad0b896c8p+20", "refined": "-0x1.a92072a9dbc40p+19",
        "bfer": "0x1.548c6dca349bdp+19", "oddsift": "0x1.b790b33ccc44ep+18",
        "aopp": "0x1.a453ff065d26bp+19", "finite": "0x1.21cf25477a12dp+19"},
    ("rowF@240", "mixing", True): {
        "original": "-0x1.9fa7422e14250p+20", "refined": "-0x1.a59b9ceef1350p+19",
        "bfer": "0x1.548c6dca349bdp+19", "oddsift": "0x1.b790b33ccc44ep+18",
        "aopp": "0x1.a453ff065d26bp+19", "finite": "0x1.21cf25477a12dp+19"},
    ("table2@502", "visibility", False): {
        "original": "-0x1.30abfa26245e2p+26", "refined": "-0x1.9fa530d39c4f8p+25",
        "bfer": "-0x1.0adcb2695019fp+23", "oddsift": "0x1.45e92210ae989p+20",
        "aopp": "0x1.055c7113b5b0bp+21", "finite": "-0x1.0eeaf14fc0bcfp+23"},
    ("table2@502", "visibility", True): {
        "original": "-0x1.303e41e18efb4p+26", "refined": "-0x1.9ec9c04a7189bp+25",
        "bfer": "-0x1.0adcb2695019fp+23", "oddsift": "0x1.45e92210ae989p+20",
        "aopp": "0x1.055c7113b5b0bp+21", "finite": "-0x1.0eeaf14fc0bcfp+23"},
    ("table2@502", "mixing", False): {
        "original": "-0x1.30ac0c8881f2cp+26", "refined": "-0x1.9fa54940680c6p+25",
        "bfer": "-0x1.0adcce4acb6cep+23", "oddsift": "0x1.45e9118c1a938p+20",
        "aopp": "0x1.055c60ff09a17p+21", "finite": "-0x1.0eeb0e17643bfp+23"},
    ("table2@502", "mixing", True): {
        "original": "-0x1.303e5443ec8fep+26", "refined": "-0x1.9ec9d8b73d469p+25",
        "bfer": "-0x1.0adcce4acb6cep+23", "oddsift": "0x1.45e9118c1a938p+20",
        "aopp": "0x1.055c60ff09a17p+21", "finite": "-0x1.0eeb0e17643bfp+23"},
}

# (preset, distance, mu_k, delta, convention) -> t_x
X_WINDOW_HEX = {
    ("rowC", 100.0, 0.05, 2.0 * math.pi / 16.0, "visibility"): "0x1.13f04832e2954p-12",
    ("rowC", 100.0, 0.05, 2.0 * math.pi / 16.0, "mixing"): "0x1.148d1f9431623p-12",
    ("table2", 502.0, 0.005, 2.0 * math.pi / 23.0, "visibility"): "0x1.4083e3ff997d6p-25",
    ("rowF", 0.0, 0.3, 2.0 * math.pi, "mixing"): "0x1.49c7aa834a2ddp-4",
    ("rowA", 50.0, 0.0, 1.0, "mixing"): "0x1.5798ede9635e7p-27",
}


@pytest.mark.parametrize("point, convention, vacuum_credit", sorted(KEY_LENGTH_HEX))
def test_key_length_bits(point, convention, vacuum_credit):
    preset_name, distance, kwargs = POINTS[point]
    exp = preset(preset_name, distance)
    proto = ProtocolParams(**kwargs)
    got = {
        variant: evaluate(exp, proto, variant, vacuum_credit, convention).key.key_length.hex()
        for variant in VARIANTS
    }
    assert got == KEY_LENGTH_HEX[point, convention, vacuum_credit]


@pytest.mark.parametrize("case", sorted(X_WINDOW_HEX, key=repr))
def test_x_window_rates_bits(case):
    preset_name, distance, mu_k, delta, convention = case
    exp = preset(preset_name, distance)
    t_x = x_window_rates(mu_k, delta, exp, arm_transmittance(exp), convention)
    assert type(t_x) is float
    assert t_x.hex() == X_WINDOW_HEX[case]


SEARCHES = {
    "aopp@rowF240": (OptimizationSpec(variant="aopp"), preset("rowF", 240.0)),
    # four slice widths: the delta rescan runs, then the budget ends it
    "finite@table2-400": (
        OptimizationSpec(variant="finite", grid_mu=4, grid_p=4, grid_pz=2, restarts=2,
                         budget=1500,
                         delta_values=tuple(2.0 * math.pi / k for k in (8, 12, 16, 20))),
        preset("table2", 400.0),
    ),
    "finite@rowA600-zero-rate": (
        OptimizationSpec(variant="finite", grid_mu=6, grid_p=6, grid_pz=2, restarts=2,
                         delta_values=(2.0 * math.pi / 16.0,)),
        preset("rowA", 600.0),
    ),
    # the abstract's headline finite-size point, with the default spec; most
    # of its restarts end at their evaluation cap
    "finite@table2-502": (OptimizationSpec(variant="finite"), preset("table2", 502.0)),
    # every cell is invalid: the result falls back to the first grid cell
    "bfer@one-pulse": (
        OptimizationSpec(variant="bfer"),
        dataclasses.replace(preset("rowF", 100.0), total_pulses=1.0),
    ),
}

# search -> (rate, key length, evaluations, evaluations answered from the
# memo, (mu_z, p_send, delta) of the result); the memo's key decides which
# points repeat, so a change to it moves the fourth entry
SEARCH_HEX = {
    "aopp@rowF240": (
        "0x1.0c0403c12989ep-18", "0x1.e7848713008e2p+21", 97, 1,
        ("0x1.f99582103a090p-2", "0x1.1f8d83c29afe7p-2", "0x1.921fb54442d18p-2")),
    "finite@table2-400": (
        "0x1.948b987cd835ap-22", "0x1.cbea2d4b58ab1p+22", 1498, 45,
        ("0x1.5c53647901316p-2", "0x1.3c56550d9bbf1p-4", "0x1.41b2f769cf0e0p-2")),
    "finite@table2-502": (
        "0x1.5ea2c72914251p-25", "0x1.8ea076b6bc044p+19", 20022, 8750,
        ("0x1.6e360788e11aap-2", "0x1.233bfbad10063p-4", "0x1.015bf9217271ap-2")),
    "finite@rowA600-zero-rate": (
        "0x0.0p+0", "-0x1.4c511123fd4a0p+7", 105, 7,
        ("0x1.999999999999bp-5", "0x1.47ae147ae147dp-8", "0x1.921fb54442d18p-2")),
    "bfer@one-pulse": (
        "0x0.0p+0", "-0x1.93e5939a08ceap+99", 36, 0,
        ("0x1.999999999999ap-5", "0x1.47ae147ae147bp-8", "0x1.921fb54442d18p-2")),
}


@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_optimizer_bits(search):
    result = optimize(*SEARCHES[search])
    params = tuple(getattr(result.params, name).hex() for name in ("mu_z", "p_send", "delta"))
    got = (result.rate.hex(), result.key_length.hex(), result.evaluations, result.repeated,
           params)
    assert got == SEARCH_HEX[search]
