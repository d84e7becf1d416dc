"""From-scratch NumPy deep-learning stack.

The paper trains its models with a mainstream framework on GPUs; everything
here is re-implemented on NumPy so the reproduction has no ML dependencies:

- :mod:`repro.ml.layers` / :mod:`repro.ml.network` — dense layers and MLPs
  with explicit backprop;
- :mod:`repro.ml.optim` — Adam;
- :mod:`repro.ml.vae` — the Variational Autoencoder of §3.1 (Bernoulli
  reconstruction + KL, reparameterisation trick);
- :mod:`repro.ml.joint` — joint VAE + K-means training (§3.2: "integrates
  the VAE's reconstruction loss and the K-means clustering loss");
- :mod:`repro.ml.lstm` — the LSTM used by learned padding (§4.1.3), for
  Figures 14 and 15 only: import it from its module;
- :mod:`repro.ml.kmeans` / :mod:`repro.ml.pca` — classic baselines used by
  PNW [26];
- :mod:`repro.ml.metrics` — SSE and the elbow method of Figure 8.
"""

from repro.ml.kmeans import KMeans
from repro.ml.pca import PCA
from repro.ml.vae import VAE
from repro.ml.joint import JointVAEKMeans
from repro.ml.metrics import elbow_k, sum_squared_error
from repro.ml.serialization import (
    load_joint,
    load_vae,
    save_joint,
    save_vae,
)

__all__ = [
    "KMeans",
    "PCA",
    "VAE",
    "JointVAEKMeans",
    "elbow_k",
    "sum_squared_error",
    "save_vae",
    "load_vae",
    "save_joint",
    "load_joint",
]
