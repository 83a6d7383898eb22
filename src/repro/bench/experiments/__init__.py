"""One module per experiment, each declaring its registry entry as
``EXPERIMENT`` (see :mod:`repro.bench.registry`)."""
