"""End-to-end tracking on a few sequences, clean and noisy.

The matched-filter detector correlates a disk template with every frame,
extracts sub-pixel landmarks at three pyramid scales (B), integer argmax
positions (H), and physics-refined windows (P) with velocities and bounce
indicators.  With sigma=1 the ball is invisible to the eye; the
temporal-mean flag cancels the static noise and restores clean accuracy.
"""

from balltrack import SimConfig
from balltrack.tracker import SCALES, track_split
from balltrack.video import generate_sequence, split_stream

N = 8

for sigma, tmean in ((0.0, False), (1.0, False), (1.0, True)):
    cfg = SimConfig(noise_sigma=sigma)
    sequences = (generate_sequence(cfg, split_stream(cfg, "test", i)) for i in range(N))
    per_sequence, _ = track_split(sequences, cfg, temporal_mean=tmean)
    mean = {metric: float(v.mean()) for metric, v in per_sequence.items()}
    flag = " + temporal-mean" if tmean else ""
    print(f"\nsigma={sigma:g}{flag}  ({N} sequences, mean L1 errors)")
    print("  scale   B [px]   H [px]   P [px]   V [px/f]  bounce")
    for s in SCALES:
        print(
            f"  {s:5d} {mean[f'B{s}']:8.3f} {mean[f'H{s}']:8.3f}"
            f" {mean[f'P{s}']:8.3f} {mean[f'V{s}']:9.3f}"
            f" {mean[f'bounce{s}']:7.3f}"
        )

print(
    "\nnotes: raw sigma=1 tracking fails (the matched filter cannot see "
    "through static noise of the same amplitude as the ball), while the "
    "temporal-mean variant matches the clean runs; 56-scale positions carry "
    "the average-pooling offset bias of the heatmap pyramid."
)
