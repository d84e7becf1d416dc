"""E2-NVM core: the paper's primary contribution.

- :mod:`repro.core.config` — hyperparameters of the whole stack;
- :mod:`repro.core.pipeline` — the VAE+K-means prediction model;
- :mod:`repro.core.address_pool` — the cluster-to-memory Dynamic Address
  Pool (DAP) of §3.3.1;
- :mod:`repro.core.padding` — the padding strategies of §4, for Figures 14
  and 15 only (the store zero-pads); import it from its module;
- :mod:`repro.core.e2nvm` — the paper's placement engine (Algorithms 1
  and 2), over :mod:`repro.core.engine`'s shared write path;
- :mod:`repro.core.sketch` — the durable store's model-free engine:
  nearest free segment by a bit-sampled content sketch;
- :mod:`repro.core.retraining` — lazy retrain policy (§4.1.4, §5.3);
- :mod:`repro.core.kvstore` — the persistent key/value store of Figure 3.
"""

from repro.core.address_pool import DynamicAddressPool, PoolExhaustedError
from repro.core.batching import BatchLocator, WriteBatcher
from repro.core.config import E2NVMConfig
from repro.core.e2nvm import E2NVM
from repro.core.kvstore import (
    CorruptValueError,
    KVStore,
    RecoveryReport,
    StoreReadOnlyError,
)
from repro.core.pipeline import EncoderPipeline
from repro.core.retraining import RetrainDecision, RetrainPolicy, RetrainStats

__all__ = [
    "E2NVM",
    "E2NVMConfig",
    "KVStore",
    "CorruptValueError",
    "RecoveryReport",
    "DynamicAddressPool",
    "PoolExhaustedError",
    "StoreReadOnlyError",
    "EncoderPipeline",
    "RetrainDecision",
    "RetrainPolicy",
    "RetrainStats",
    "WriteBatcher",
    "BatchLocator",
]
