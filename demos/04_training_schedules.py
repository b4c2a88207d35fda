"""Training schedules and a miniature refinement run.

Two models get trained in sequence. The refinement model cleans up the
two densely-measured bootstrap frames; the prediction model then learns
next-frame extrapolation on mixtures of ground truth and its own
rollouts, with the mixing controlled by the schedules printed below.
"""

import numpy as np

from tcrtomo.geometry import ScanGeometry
from tcrtomo.phantoms import generate_dataset
from tcrtomo.stt import SttConfig
from tcrtomo.training import (TrainConfig, gt_ratio, lr_cosine, max_rollout,
                              rollout_prob, teacher_forcing_ratio,
                              train_refinement)

print("epoch   gt_ratio  tf_ratio  rollout<=  p(rollout)  lr(refine)")
for e in (0, 5, 10, 25, 40, 70, 85, 99):
    print(f"{e:5d}   {gt_ratio(e):8.3f}  {teacher_forcing_ratio(e):8.3f}"
          f"  {max_rollout(e):9d}  {rollout_prob(e):10.3f}"
          f"  {lr_cosine(e, 10, 100, 1e-6, 1e-4):10.2e}")

# a deliberately tiny run: 8 sequences, 16x16 frames, 6 epochs. The loss
# trace is the point here, not the model quality.
geom = ScanGeometry(image_size=16, n_steps=4, n_angles_init=8,
                    n_angles_rest=3, n_offsets=23)
ds = generate_dataset(geom, 8, seed=3)
model_cfg = SttConfig(model_dim=16, heads=2, layers=1, image_size=16)
cfg = TrainConfig(epochs=6, batch_size=4, seed=0, warmup=2)
params, log = train_refinement(ds, cfg, model_cfg)

print("\nrefinement loss per epoch:")
for row in log:
    print(f"  epoch {row['epoch']}: loss {row['loss']:.5f} "
          f"lr {row['lr']:.2e}")
first, last = log[0]["loss"], log[-1]["loss"]
print(f"loss moved {first:.5f} -> {last:.5f}")
