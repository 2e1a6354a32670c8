"""First-class paper artifacts: one declarative object per table/figure.

This package is the single registry behind every way of regenerating a
paper artifact — the :mod:`repro.api` facade, ``python -m repro.campaign
figure`` / ``card-campaign figure`` and the HTTP service all resolve ids
here:

* :mod:`repro.artifacts.result` — :class:`ExperimentResult`, the
  renderable table every producer returns;
* :mod:`repro.artifacts.tables` — the row/header/plot assembly the
  campaign reducers share;
* :mod:`repro.artifacts.registry` — :class:`Artifact` (CampaignSpec
  builder + store reducer + metadata: paper section, snapshot|series
  regime, default scale profile, seed tuple) and the :data:`ARTIFACTS`
  registry, executed through the cached/parallel/resumable campaign
  engine.

``registry`` is exposed lazily: it imports the campaign layer (which
imports :mod:`repro.artifacts.tables` back), so an eager edge here would
be a cycle whenever ``repro.campaign.figures`` is the first module
loaded.
"""

from repro.artifacts.result import ExperimentResult

__all__ = [
    "ExperimentResult",
    # resolved lazily (see module docstring)
    "registry",
    "tables",
    "Artifact",
    "ARTIFACTS",
    "artifact_ids",
    "get_artifact",
]

_LAZY_REGISTRY = ("Artifact", "ARTIFACTS", "artifact_ids", "get_artifact")


def __getattr__(name):
    if name == "registry" or name in _LAZY_REGISTRY:
        import repro.artifacts.registry as registry

        return registry if name == "registry" else getattr(registry, name)
    if name == "tables":
        import repro.artifacts.tables as tables

        return tables
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
