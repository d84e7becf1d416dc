"""Offline maintenance tools, runnable as ``python -m repro.tools.<name>``.

- :mod:`repro.tools.fsck` — offline consistency checker for a device
  snapshot holding a durable KV store (catalog slots and value CRCs,
  ECP table sanity, health/catalog agreement).
"""
