"""The two-output partial least squares baseline.

Gender and age rank are stacked into a two-column target and regressed
jointly; the decoded prediction takes the sign of the first output and
rounds the second into the rank range.  The extracted input weights are
unit-norm and the component scores come out mutually orthogonal.
"""

import numpy as np

from genage import SynthConfig, fit_pls_dataset, generate, mae, predict_pls_batch, select_pls_components

ds = generate(SynthConfig(discrepancy=2.0, seed=42))

n_comp = select_pls_components(ds)
print(f"components picked by 5-fold rank MAE: {n_comp}")

model = fit_pls_dataset(ds, n_comp)
print("input-weight norms:", np.round(np.linalg.norm(model.x_weights, axis=0), 12))

genders, ranks = predict_pls_batch(model, ds.features)
print(f"training gender accuracy: {np.mean(genders == ds.gender):.3f}")
print(f"training rank MAE: {mae(ranks, ds.age_rank):.3f}")

# the two regression directions are generally far from orthogonal, unlike
# the coupled estimator's pair
from genage import angle_deg

print(f"angle between the two coefficient columns: "
      f"{angle_deg(model.coefficients[:, 0], model.coefficients[:, 1]):.1f} degrees")
