"""Reference tables for the acceptance, CLI and simulator tests.

``REFERENCE_ENCODER_ERRORS``: one row per configuration index (0-63) of the
full 2^6 factor grid, giving the mean B56 / H56 / P56 test errors reported by
an external replicated study of the same factor design.  Entries published
only as a bound (">x") are floored to x, so the table supports sign and
ranking checks, not magnitude reproduction.

The ``*_MEANS`` and ``TRACK_SEED_42_METRICS`` tables pin this tracker's own
metrics and ``TRACK_SEED_7_DIGESTS`` the bytes of its outputs;
:func:`assert_pinned` checks a result against them.
``BOUNCE_HEAVY_TRUTH_DIGESTS`` pins the simulator's bytes where bounces are
dense.
"""

import math

REFERENCE_ENCODER_ERRORS = {
    0: (7.7, 7.8, 6.9),
    1: (20.0, 20.0, 20.0),
    2: (50.0, 50.0, 20.0),
    3: (50.0, 50.0, 50.0),
    4: (1.1, 1.1, 1.1),
    5: (2.0, 2.1, 2.0),
    6: (1.2, 1.2, 1.2),
    7: (1.4, 1.5, 1.5),
    8: (10.0, 10.0, 10.0),
    9: (10.0, 10.0, 10.0),
    10: (9.3, 9.8, 9.2),
    11: (10.0, 10.0, 20.0),
    12: (1.1, 1.2, 1.1),
    13: (1.4, 1.4, 1.4),
    14: (1.1, 1.2, 1.1),
    15: (1.7, 1.8, 1.7),
    16: (8.4, 9.3, 10.0),
    17: (5.9, 6.4, 4.9),
    18: (1.8, 2.5, 1.7),
    19: (10.0, 20.0, 10.0),
    20: (1.3, 1.7, 1.3),
    21: (1.5, 1.9, 1.4),
    22: (1.3, 1.8, 1.2),
    23: (8.6, 9.2, 10.0),
    24: (5.0, 6.0, 4.8),
    25: (10.0, 20.0, 10.0),
    26: (20.0, 20.0, 10.0),
    27: (10.0, 10.0, 10.0),
    28: (1.3, 1.8, 1.2),
    29: (1.2, 1.6, 1.2),
    30: (1.2, 1.5, 1.1),
    31: (1.6, 2.2, 1.5),
    32: (50.0, 50.0, 50.0),
    33: (50.0, 50.0, 50.0),
    34: (50.0, 50.0, 50.0),
    35: (50.0, 50.0, 50.0),
    36: (20.0, 20.0, 20.0),
    37: (50.0, 50.0, 50.0),
    38: (10.0, 10.0, 10.0),
    39: (20.0, 20.0, 20.0),
    40: (50.0, 50.0, 50.0),
    41: (50.0, 50.0, 50.0),
    42: (50.0, 50.0, 50.0),
    43: (50.0, 50.0, 50.0),
    44: (1.2, 1.3, 1.2),
    45: (50.0, 50.0, 50.0),
    46: (50.0, 50.0, 50.0),
    47: (1.7, 1.9, 1.6),
    48: (50.0, 50.0, 50.0),
    49: (50.0, 50.0, 50.0),
    50: (50.0, 50.0, 50.0),
    51: (20.0, 20.0, 20.0),
    52: (20.0, 20.0, 20.0),
    53: (50.0, 50.0, 50.0),
    54: (10.0, 10.0, 10.0),
    55: (10.0, 10.0, 10.0),
    56: (50.0, 50.0, 50.0),
    57: (50.0, 50.0, 50.0),
    58: (50.0, 50.0, 50.0),
    59: (50.0, 50.0, 50.0),
    60: (10.0, 10.0, 10.0),
    61: (50.0, 50.0, 50.0),
    62: (20.0, 20.0, 20.0),
    63: (20.0, 20.0, 20.0),
}


# The tracker's own numbers, pinned as ``.17g`` values.  A hard-argmax tie
# that flips moves one frame by a whole pixel, and a split mean by far more
# than PIN_TOLERANCE; last-bit drift of the FFTs on another CPU stays inside it.
PIN_TOLERANCE = 1e-9

# numpy's complex128 multiply kernel on the machine that recorded the pins.
# The spectral products of ``ncc_heatmap`` take its bits: the X86_V3 kernel
# fuses a multiply and an add, the baseline one does not, and one last bit of
# a map can flip an argmax tie.
PINNED_KERNEL = "X86_V3"


def multiply_kernel():
    """The complex128 multiply kernel numpy dispatches to on this machine."""
    from numpy.lib.introspect import opt_func_info
    (kernel,) = opt_func_info(func_name="^multiply$", signature="complex128")["multiply"].values()
    return kernel["current"]


# criteria 7 and 8: the 15 split means of the default 100-sequence test split,
# at sigma 0 and at sigma 1 with the temporal mean
CRITERION_7_MEANS = {
    "B56": 2.99708188368239,
    "B112": 1.0001702884184329,
    "B224": 0.16983117410484638,
    "H56": 3.1957377391714115,
    "H112": 1.3213333637627542,
    "H224": 0.53639841643626229,
    "P56": 3.0941628797458391,
    "P112": 1.1149485920975732,
    "P224": 0.32640814226126025,
    "V56": 1.0238110562835545,
    "V112": 0.83225141996453988,
    "V224": 0.82948068731729063,
    "bounce56": 0.072499999999999995,
    "bounce112": 0.073249999999999996,
    "bounce224": 0.073249999999999996,
}
CRITERION_8_MEANS = {
    "B56": 2.9987774876163229,
    "B112": 1.0017551601064592,
    "B224": 0.17498804499182077,
    "H56": 3.1326436259018973,
    "H112": 1.2688377641870889,
    "H224": 0.53893559038908823,
    "P56": 3.0956025141695118,
    "P112": 1.1140548608685841,
    "P224": 0.33075824006436932,
    "V56": 1.0256357564653742,
    "V112": 0.83853572154355138,
    "V224": 0.83316387812031567,
    "bounce56": 0.072499999999999995,
    "bounce112": 0.073249999999999996,
    "bounce224": 0.073249999999999996,
}

# metrics.csv of ``track`` on the test split of ``gen --train 1 --val 1 --test 4
# --seed 42``: sigma 0, sigma 1 with --temporal-mean, and dense sigma 1
TRACK_SEED_42_METRICS = {
    (0.0, False): {
        "B56": 3.022974519704805,
        "B112": 1.0221185356529126,
        "B224": 0.19332647629212368,
        "H56": 3.1627551522701034,
        "H112": 1.2748185756870398,
        "H224": 0.54787651600432941,
        "P56": 3.0484560402140746,
        "P112": 1.0721743938207495,
        "P224": 0.31947683557076512,
        "V56": 1.3073238475542779,
        "V112": 1.506604636476959,
        "V224": 1.5023770382941399,
        "bounce56": 0.0625,
        "bounce112": 0.087500000000000008,
        "bounce224": 0.087500000000000008,
    },
    (1.0, True): {
        "B56": 3.0229745214423929,
        "B112": 1.0221185359925773,
        "B224": 0.19332647779806267,
        "H56": 3.2210549232645098,
        "H112": 1.2484980863038608,
        "H224": 0.55283459729229134,
        "P56": 3.0484560422239815,
        "P112": 1.0721743946295794,
        "P224": 0.31947683683625999,
        "V56": 1.3073238538067171,
        "V112": 1.5066046413742316,
        "V224": 1.5023770428414673,
        "bounce56": 0.0625,
        "bounce112": 0.087500000000000008,
        "bounce224": 0.087500000000000008,
    },
    (1.0, False): {
        "B56": 168.95960768394201,
        "B112": 100.56504876322403,
        "B224": 100.34496557260184,
        "H56": 171.47598224333657,
        "H112": 160.43579597960638,
        "H224": 113.96050198273731,
        "P56": 165.02443120830679,
        "P112": 100.6475355024798,
        "P224": 100.42880573358758,
        "V56": 38.530175680469895,
        "V112": 20.043326199422882,
        "V224": 20.043239837787084,
        "bounce56": 0.09375,
        "bounce112": 0.09375,
        "bounce224": 0.09375,
    },
}


# sha256 of the outputs of ``track`` on the test split of ``gen --train 1 --val 1
# --test 3 --frames 12 --seed 7``: sigma 0, sigma 1 with --temporal-mean, and
# dense sigma 1.  Every byte of B, P and V is pinned, which the metric pins
# above leave free to move by rounding
TRACK_SEED_7_DIGESTS = {
    (0.0, False): {
        "predictions.bin": "1eadf7774894973aa8e3395eefb4de3b9eda87d4a889eeb8427333f8259731c5",
        "metrics.csv": "4ba6a63dae01c8cb2c3eceff153a57033d02bdf9960b10c49930631f8ce266fa",
        "per_sequence_metrics.csv": "c2192ef3ef7aa656e73798de5e322b9576ba07ed70a3fb7c46ddf0c914de9c96",
    },
    (1.0, True): {
        "predictions.bin": "0a9e94cb440b33a000d59f87b488b91ee6fc4e5c8305ffbb838a9cd58428a3d9",
        "metrics.csv": "00a534ff89081f42b5f953766de10e7083c27f0ad7c831439b061141d26fbbf0",
        "per_sequence_metrics.csv": "42648f99b20f64193a2ae637b860cb85dfb6262979105b64da0f4933ce12d697",
    },
    (1.0, False): {
        "predictions.bin": "77b8da5353eb66a0b2c435dcdc62c9365f1120533c3e8c3f1f853cc2c609550f",
        "metrics.csv": "e309592708cda10e043253804bdc67e2936c65d2c83c9292617de460d340677c",
        "per_sequence_metrics.csv": "6d6264e38cc236e1f16c287662c76304d4788c30cbb9692ac503b64961120b2c",
    },
}

# sha256 of ``test_truth.bin`` of the test split of configurations where bounces
# are dense: SimConfig keyword arguments, digest.  Of their 252, 1016 and 510
# steps, 171, 741 and 78 bounce; 17 steps of "both_walls" cross both walls.
BOUNCE_HEAVY_TRUTH_DIGESTS = {
    "elastic": (dict(image_size=32, restitution=1.0, frames_per_video=64, n_test=4, seed=11),
                "900caf1580e0148035a40cdbea52f1d1e998f656ad126b7a6f1039246d68180f"),
    "both_walls": (dict(image_size=16, v_max=5.4, restitution=1.0, frames_per_video=128, n_test=8, seed=21),
                   "582cafdc5105bc1b5157903a7a8422bd1959d0de7c905d986ee3b579b49a7152"),
    "long": (dict(image_size=48, frames_per_video=256, n_test=2, seed=13),
             "163995c328e480b0306897cd097372a530c4846e1105ab1afa3ad521323e6889"),
}

def assert_pinned(got, pinned):
    """Each metric of ``got`` within PIN_TOLERANCE of its pinned value, and
    each digest (a string) equal to its pinned one; on failure, name the
    entry with the largest deviation and the multiply kernels of the pins and
    of this run."""
    assert list(got) == list(pinned)
    deviation = {key: _deviation(got[key], value) for key, value in pinned.items()}
    worst = max(deviation, key=deviation.get)
    assert deviation[worst] <= PIN_TOLERANCE, (
        f"largest deviation from the pinned values: {worst} = {_shown(got[worst])}, "
        f"pinned {_shown(pinned[worst])} (|deviation| {deviation[worst]:.3g} > {PIN_TOLERANCE:g}); the pins were "
        f"recorded on the {PINNED_KERNEL} complex128 multiply kernel, this run has {multiply_kernel()}")


def _deviation(got, pinned):
    if isinstance(pinned, str):  # a digest matches or not
        return 0.0 if got == pinned else math.inf
    d = abs(float(got) - pinned)
    return math.inf if math.isnan(d) else d


def _shown(value):
    return value if isinstance(value, str) else f"{float(value):.17g}"
