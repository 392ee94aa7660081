"""Walk through the kernel building blocks on a small point cloud.

Shows bandwidth selection by sparsity target, the row-stochastic Markov
operator, the degree-normalized diffusion kernel and its conjugation to a
symmetric matrix, and the out-of-sample expansion with its nearest-point
fallback.
"""

import numpy as np
from scipy.spatial.distance import cdist

import kerneldrift as kd
from kerneldrift.kernels import markov_apply

rng = np.random.default_rng(0)
# a noisy ring, the kind of geometry the estimators see in practice
angles = rng.uniform(0, 2 * np.pi, size=400)
cloud = np.stack([np.cos(angles), np.sin(angles)], axis=1)
cloud += 0.05 * rng.standard_normal(cloud.shape)

print("bandwidths by sparsity target:")
for eta in (0.003, 0.01, 0.1, 0.5):
    eps = kd.select_bandwidth(cloud, eta=eta)
    print(f"  eta={eta:<6} -> epsilon={eps:.3e} "
          f"(kernel support radius {np.sqrt(eps * np.log(1e14)):.3f})")

eps = kd.select_bandwidth(cloud, eta=0.1)

# the Markov operator applied to the identity is the matrix itself
markov = markov_apply(cloud, cloud, eps, np.eye(len(cloud)))
row_sums = markov.sum(axis=1)
print(f"\nmarkov matrix: {markov.shape}, {np.count_nonzero(markov)} nonzero entries "
      f"({np.count_nonzero(markov) / markov.size:.1%} fill), "
      f"row sums within {np.abs(row_sums - 1).max():.1e} of 1")

model = kd.diffusion_model(cloud, eps)
# kernel sections at the centers are the rows of the diffusion matrix
kdiff, _ = kd.section_matrix(model, cloud)
# left degrees at the centers: deg_l(x) = mean_j g(x, c_j) / deg_r(c_j)
raw = np.exp(-cdist(cloud, cloud, "sqeuclidean") / eps)
raw[raw < kd.kernels.THETA_ZERO] = 0.0
deg_l = (raw * (1.0 / model.deg_r)).sum(axis=1) / len(cloud)
rho = np.sqrt(deg_l / model.deg_r)
ktilde = rho[:, None] * kdiff / rho[None, :]
asym = np.abs(ktilde - ktilde.T).max()
print(f"diffusion kernel: deg_r in [{model.deg_r.min():.3f}, {model.deg_r.max():.3f}], "
      f"conjugated matrix asymmetry {asym:.1e}")

# an expansion sum_j a_j k(x, c_j) is a row-wise sum over the section rows
coeffs = rng.normal(size=len(cloud))
sections, flags = kd.section_matrix(model, np.array([[1.0, 0.0], [50.0, 0.0]]))
(inside, outside), (flag_in, flag_out) = (sections * coeffs).sum(axis=1), flags
print(f"\nexpansion at (1,0): {inside:.4f} (extrapolated={flag_in})")
print(f"expansion at (50,0): {outside:.4f} (extrapolated={flag_out}) "
      "<- nearest-point fallback")
