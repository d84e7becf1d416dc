"""Model persistence: save/load for the VAE and joint models.

A trained placement model outlives any single process (the paper retrains
"in the background lazily" and swaps models); snapshots let a deployment
train elsewhere and ship weights.  Format: a single ``.npz`` holding every
parameter array in a deterministic order plus a JSON metadata header.
"""

from __future__ import annotations

import json

import numpy as np

from repro.ml.joint import JointVAEKMeans
from repro.ml.kmeans import KMeans
from repro.ml.vae import VAE


def _pack(path, meta: dict, arrays: list[np.ndarray]) -> None:
    payload = {f"param_{i}": arr for i, arr in enumerate(arrays)}
    payload["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **payload)


def _unpack(path) -> tuple[dict, list[np.ndarray]]:
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        arrays = [
            archive[f"param_{i}"]
            for i in range(sum(1 for k in archive.files if k.startswith("param_")))
        ]
    return meta, arrays


def _load_params(model_params: list[np.ndarray], arrays: list[np.ndarray]) -> None:
    if len(model_params) != len(arrays):
        raise ValueError(
            f"snapshot has {len(arrays)} arrays, model expects "
            f"{len(model_params)}"
        )
    for param, arr in zip(model_params, arrays):
        if param.shape != arr.shape:
            raise ValueError(f"shape mismatch: {param.shape} vs {arr.shape}")
        param[:] = arr


def save_vae(vae: VAE, path) -> None:
    """Snapshot a VAE's architecture and weights."""
    meta = {
        "kind": "vae",
        "input_dim": vae.input_dim,
        "latent_dim": vae.latent_dim,
        "hidden": [layer.W.shape[1] for layer in vae.trunk.layers],
        "kl_weight": vae.kl_weight,
    }
    _pack(path, meta, vae.params)


def load_vae(path) -> VAE:
    """Restore a VAE saved by :func:`save_vae`."""
    meta, arrays = _unpack(path)
    if meta.get("kind") != "vae":
        raise ValueError(f"not a VAE snapshot: {meta.get('kind')!r}")
    vae = VAE(
        meta["input_dim"],
        latent_dim=meta["latent_dim"],
        hidden=tuple(meta["hidden"]),
        kl_weight=meta["kl_weight"],
        seed=0,
    )
    _load_params(vae.params, arrays)
    return vae


def save_joint(model: JointVAEKMeans, path) -> None:
    """Snapshot a joint VAE+K-means model (weights + centroids)."""
    if model.kmeans.cluster_centers_ is None:
        raise ValueError("cannot save an untrained joint model")
    meta = {
        "kind": "joint",
        "input_dim": model.input_dim,
        "latent_dim": model.vae.latent_dim,
        "hidden": [layer.W.shape[1] for layer in model.vae.trunk.layers],
        "kl_weight": model.vae.kl_weight,
        "n_clusters": model.n_clusters,
        "gamma": model.gamma,
    }
    arrays = model.vae.params + [model.kmeans.cluster_centers_]
    _pack(path, meta, arrays)


def load_joint(path) -> JointVAEKMeans:
    """Restore a joint model saved by :func:`save_joint`."""
    meta, arrays = _unpack(path)
    if meta.get("kind") != "joint":
        raise ValueError(f"not a joint snapshot: {meta.get('kind')!r}")
    model = JointVAEKMeans(
        meta["input_dim"],
        meta["n_clusters"],
        latent_dim=meta["latent_dim"],
        hidden=tuple(meta["hidden"]),
        gamma=meta["gamma"],
        kl_weight=meta["kl_weight"],
        seed=0,
    )
    centroids = arrays[-1]
    _load_params(model.vae.params, arrays[:-1])
    model.kmeans = KMeans(meta["n_clusters"], seed=0)
    model.kmeans.cluster_centers_ = centroids
    return model
