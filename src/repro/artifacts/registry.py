"""The single artifact registry: id → :class:`Artifact`.

An :class:`Artifact` is the declarative bundle behind one paper
table/figure (or campaign-native extension): the
:class:`~repro.campaign.spec.CampaignSpec` *builder*, the store
*reducer* that assembles the exact table, the *renderer*, and metadata —
paper section, measurement regime (``snapshot`` | ``series``), default
scale profile and seed tuple.  :meth:`Artifact.run` executes the spec
through the campaign engine (cached, parallel, shardable, resumable) and
reduces the store back into an
:class:`~repro.artifacts.result.ExperimentResult`.

Everything resolves ids here: :func:`repro.api.run`, ``python -m
repro.campaign figure`` and the HTTP service.  Output stability is
enforced by the pinned golden fixtures under ``tests/golden/``
(``pytest -m parity``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.artifacts.result import ExperimentResult
from repro.campaign import figures
from repro.campaign.runner import CampaignReport, CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import StoreLike, open_store
from repro.scenarios.factory import SCALE_PROFILES, resolve_scale

__all__ = [
    "Artifact",
    "ARTIFACTS",
    "artifact_ids",
    "get_artifact",
    "campaign_note",
    "ensure_report_ok",
]

#: CLI-style knobs silently dropped when an artifact's builder/reducer
#: does not take them (e.g. ``num_sources`` for table1, ``duration`` for
#: snapshot artifacts); any *other* unknown keyword is an error.
_COMMON_KNOBS = frozenset({"scale", "seed", "num_sources", "duration"})


def _accepted(fn: Callable) -> Optional[frozenset]:
    """Keyword names ``fn`` accepts, or None when it takes ``**kwargs``."""
    params = inspect.signature(fn).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return None
    return frozenset(
        name
        for name, p in params.items()
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    )


def _filtered(fn: Callable, kwargs: Mapping[str, object]) -> Dict[str, object]:
    accepted = _accepted(fn)
    if accepted is None:
        return dict(kwargs)
    return {k: v for k, v in kwargs.items() if k in accepted}


@dataclass(frozen=True)
class Artifact:
    """One reproducible artifact, declaratively.

    Attributes
    ----------
    id:
        Registry id (``"fig07"``, ``"table1"``, ``"mobility_rate"``).
    title:
        The rendered table's title line.
    section:
        Paper anchor (``"§IV.A, Fig 7"``) or ``"extension"``.
    regime:
        ``"snapshot"`` (static topology, one selection run per cell),
        ``"series"`` (mobility + maintenance, binned over time) or
        ``"des"`` (event-driven message-level simulation).
    build_spec:
        ``(**kwargs) -> CampaignSpec`` — the declarative sweep.
    reduce:
        ``(spec, store, **kwargs) -> ExperimentResult`` — stored cells
        back into the exact table.
    renderer:
        ``(result) -> str``; the default renders the ASCII table+plots.
    defaults:
        Per-artifact keyword overrides layered under caller kwargs
        (e.g. fig04's ``max_noc=5`` axis).
    xl_defaults:
        Extra overrides applied when the resolved scale reaches the
        ``"xl"`` profile — bounded sampling knobs (``num_sources``,
        ``num_queries``, ``duration``) that keep N=10⁴ runs
        query-bound rather than measurement-bound.  Layered over
        ``defaults`` but under caller kwargs, so an explicit option
        always wins.
    default_scale, default_seeds:
        The scale profile and root seed a bare ``run()``/``spec()``
        uses (applied when the caller passes neither) — the paper's own
        configuration.
    multi_seed:
        True for artifacts whose spec intentionally spans several seeds
        and whose reducer aggregates over them (the registered mean ± CI
        variants, e.g. ``fig07_ci``).  Single-seed artifacts keep the
        bit-for-bit guard that rejects multi-seed specs.
    """

    id: str
    title: str
    section: str
    regime: str
    build_spec: Callable[..., CampaignSpec]
    reduce: Callable[..., ExperimentResult]
    renderer: Callable[[ExperimentResult], str] = ExperimentResult.render
    description: str = ""
    defaults: Mapping[str, object] = field(default_factory=dict)
    xl_defaults: Mapping[str, object] = field(default_factory=dict)
    default_scale: float = 1.0
    default_seeds: Tuple[int, ...] = (0,)
    multi_seed: bool = False

    def __post_init__(self) -> None:
        if self.regime not in ("snapshot", "series", "des"):
            raise ValueError(
                f"artifact {self.id!r}: regime must be snapshot|series|des, "
                f"got {self.regime!r}"
            )

    # ------------------------------------------------------------------
    @property
    def exp_id(self) -> str:
        """Alias kept for pre-redesign ``FigurePort`` consumers."""
        return self.id

    def _resolve_kwargs(self, kwargs: Mapping[str, object]) -> Dict[str, object]:
        merged = {**self.defaults, **kwargs}
        merged.setdefault("scale", self.default_scale)
        # named profiles ("xl", "paper") resolve to numbers here, so every
        # spec builder keeps seeing a plain float
        merged["scale"] = resolve_scale(merged["scale"])
        if merged["scale"] >= SCALE_PROFILES["xl"]:
            for k, v in self.xl_defaults.items():
                if k not in kwargs:
                    merged[k] = v
        merged.setdefault("seed", self.default_seeds[0])
        build = _accepted(self.build_spec)
        reduce_ = _accepted(self.reduce)
        if build is None or reduce_ is None:
            return merged
        unknown = [
            k
            for k in merged
            if k not in build and k not in reduce_ and k not in _COMMON_KNOBS
        ]
        if unknown:
            known = sorted((build | reduce_) - {"spec", "store"})
            raise TypeError(
                f"artifact {self.id!r} got unknown options {sorted(unknown)}; "
                f"it accepts: {known}"
            )
        return merged

    def spec(self, **kwargs) -> CampaignSpec:
        """Build this artifact's campaign spec (unknown options rejected)."""
        merged = self._resolve_kwargs(kwargs)
        return self.build_spec(**_filtered(self.build_spec, merged))

    def reducer_only_options(self) -> frozenset:
        """Option names only the exact reducer consumes (not the spec).

        These shape the reduction, not the cells (e.g. fig14's
        ``validation_rounds``) — paths that bypass the reducer, like the
        multi-seed ``group_reduce`` variant, must reject rather than
        silently drop them.
        """
        build = _accepted(self.build_spec) or frozenset()
        reduce_ = _accepted(self.reduce) or frozenset()
        return reduce_ - build - {"spec", "store"}

    def run(
        self,
        *,
        store: StoreLike = None,
        n_workers: int = 1,
        force: bool = False,
        telemetry: object = None,
        **kwargs,
    ) -> ExperimentResult:
        """Execute missing cells, then reduce the store to the artifact.

        A warm ``store`` turns execution into cache hits (cells are
        keyed by content hash, so overlapping artifacts share work);
        ``force`` re-executes cached cells too.  ``telemetry`` (see
        :meth:`repro.obs.ObsConfig.coerce`) traces every executed cell
        and attaches the aggregated summary to the result's
        ``telemetry`` field; stored metrics are identical either way.
        """
        merged = self._resolve_kwargs(kwargs)
        spec = self.build_spec(**_filtered(self.build_spec, merged))
        if not self.multi_seed:
            # fail before paying for the sweep: single-seed reducers are
            # exact; averaging is the facade's seeds= job (or a
            # registered multi_seed artifact like fig07_ci)
            figures.require_single_seed(spec)
        store = open_store(store)
        report = CampaignRunner(
            spec, store=store, n_workers=n_workers, telemetry=telemetry
        ).run(force=force)
        ensure_report_ok(report, spec.name)
        result = self.reduce(spec, store, **_filtered(self.reduce, merged))
        result.notes = list(result.notes) + [campaign_note(report)]
        result.campaign = report.counts()
        if report.traces:
            from repro.obs import summarize

            result.telemetry = summarize(report.traces).as_dict()
        return result

    def render(self, result: ExperimentResult) -> str:
        """Render a result through this artifact's renderer."""
        return self.renderer(result)


def campaign_note(report: CampaignReport) -> str:
    """The provenance note every campaign-produced result carries."""
    return (
        f"via repro.campaign ({report.executed} cells executed, "
        f"{report.cached} cached)"
    )


def ensure_report_ok(report: CampaignReport, spec_name: str) -> None:
    """Raise with the first failed cell's traceback on a failed run."""
    if not report.ok:
        errors = [o.error for o in report.outcomes if o.error]
        raise RuntimeError(
            f"{spec_name} campaign had {report.failed} failed cells:\n"
            f"{errors[0]}"
        )


# ----------------------------------------------------------------------
def _snapshot(id, title, section, build_spec, reduce, **kw) -> Artifact:
    return Artifact(
        id=id, title=title, section=section, regime="snapshot",
        build_spec=build_spec, reduce=reduce, **kw,
    )


def _series(id, title, section, build_spec, reduce, **kw) -> Artifact:
    return Artifact(
        id=id, title=title, section=section, regime="series",
        build_spec=build_spec, reduce=reduce, **kw,
    )


def _des(id, title, section, build_spec, reduce, **kw) -> Artifact:
    return Artifact(
        id=id, title=title, section=section, regime="des",
        build_spec=build_spec, reduce=reduce, **kw,
    )


#: id → Artifact, in ``python -m repro.campaign figure all`` execution order.
ARTIFACTS: Dict[str, Artifact] = {
    a.id: a
    for a in (
        _snapshot(
            "table1",
            "Table 1 — Scenario connectivity statistics (paper vs measured)",
            "§IV, Table 1",
            figures.table1_spec,
            figures.reduce_table1,
            description="Connectivity statistics of the eight scenarios",
        ),
        _snapshot(
            "fig03",
            "Figs 3 & 4 — PM vs EM: reachability and backtracking overhead",
            "§IV.A, Fig 3",
            figures.fig03_04_spec,
            figures.reduce_fig03,
            description="PM vs EM mean reachability vs NoC",
        ),
        _snapshot(
            "fig04",
            "Figs 3 & 4 — PM vs EM: reachability and backtracking overhead",
            "§IV.A, Fig 4",
            figures.fig03_04_spec,
            figures.reduce_fig04,
            description="PM vs EM backtracking overhead vs NoC",
            defaults={"max_noc": 5},
        ),
        _snapshot(
            "fig03_04",
            "Figs 3 & 4 — PM vs EM: reachability and backtracking overhead",
            "§IV.A, Figs 3-4",
            figures.fig03_04_spec,
            figures.reduce_fig03_04,
            description="Joint PM vs EM sweep (shared selection runs)",
        ),
        _snapshot(
            "fig05",
            "Fig 5 — Effect of Neighborhood Radius (R) on Reachability",
            "§IV.A, Fig 5",
            figures.fig05_spec,
            figures.reduce_fig05,
            description="Reachability distribution vs neighborhood radius",
            xl_defaults={"num_sources": 400},
        ),
        _snapshot(
            "fig06",
            "Fig 6 — Effect of Maximum Contact Distance (r) on Reachability",
            "§IV.A, Fig 6",
            figures.fig06_spec,
            figures.reduce_fig06,
            description="Reachability distribution vs contact distance",
            xl_defaults={"num_sources": 400},
        ),
        _snapshot(
            "fig07",
            "Fig 7 — Effect of Number of Contacts (NoC) on Reachability",
            "§IV.A, Fig 7",
            figures.fig07_spec,
            figures.reduce_fig07,
            description="Reachability distribution vs number of contacts",
            xl_defaults={"num_sources": 400},
        ),
        _snapshot(
            "fig08",
            "Fig 8 — Effect of Depth of Search (D) on Reachability",
            "§IV.A, Fig 8",
            figures.fig08_spec,
            figures.reduce_fig08,
            description="Reachability distribution vs depth of search",
            xl_defaults={"num_sources": 400},
        ),
        _snapshot(
            "fig09",
            "Fig 9 — Reachability for different network sizes",
            "§IV.A, Fig 9",
            figures.fig09_spec,
            figures.reduce_fig09,
            description="Density-matched sizes with per-size tuned (R, r, NoC)",
            xl_defaults={"num_sources": 400},
        ),
        _series(
            "fig10",
            "Fig 10 — Effect of Number of Contacts (NoC) on Overhead",
            "§IV.B, Fig 10",
            figures.fig10_spec,
            figures.reduce_fig10,
            description="Maintenance overhead over time vs NoC",
            xl_defaults={"num_sources": 250, "duration": 6.0},
        ),
        _series(
            "fig11",
            "Fig 11 — Effect of Maximum Contact Distance (r) on Total Overhead",
            "§IV.B, Fig 11",
            figures.fig11_spec,
            figures.reduce_fig11,
            description="Total overhead over time vs contact distance",
            xl_defaults={"num_sources": 250, "duration": 6.0},
        ),
        _series(
            "fig12",
            "Fig 12 — Effect of Maximum Contact Distance (r) on Backtracking",
            "§IV.B, Fig 12",
            figures.fig12_spec,
            figures.reduce_fig12,
            description="Backtracking component of the Fig 11 runs",
            xl_defaults={"num_sources": 250, "duration": 6.0},
        ),
        _series(
            "fig13",
            "Fig 13 — Variation of overhead with time",
            "§IV.B, Fig 13",
            figures.fig13_spec,
            figures.reduce_fig13,
            description="Maintenance decay as sources settle on stable contacts",
            xl_defaults={"num_sources": 250, "duration": 10.0},
        ),
        _snapshot(
            "fig14",
            "Fig 14 — Trade-off between reachability and contact overhead",
            "§IV.B, Fig 14",
            figures.fig14_spec,
            figures.reduce_fig14,
            description="Normalized reachability vs overhead against NoC",
        ),
        _snapshot(
            "fig15",
            "Fig 15 — Comparison of CARD with flooding and bordercasting",
            "§IV.C, Fig 15",
            figures.fig15_spec,
            figures.reduce_fig15,
            description="Querying traffic and success across schemes and sizes",
        ),
        _snapshot(
            "ablation_pm_eq",
            "Ablation — PM admission equation (1) vs (2) vs EM",
            "extension (§III.B ablation)",
            figures.ablation_pm_eq_spec,
            figures.reduce_ablation_pm_eq,
            description="Overlap/reachability cost of the PM admission rules",
        ),
        _snapshot(
            "ablation_overlap",
            "Ablation — contribution of the EM overlap checks",
            "extension (§III.B ablation)",
            figures.ablation_overlap_spec,
            figures.reduce_ablation_overlap,
            description="EM Contact_List/Edge_List checks individually disabled",
        ),
        _series(
            "ablation_recovery",
            "Ablation — local recovery during contact validation",
            "extension (§III.C.3 ablation)",
            figures.ablation_recovery_spec,
            figures.reduce_ablation_recovery,
            description="Local recovery on/off under RWP mobility",
        ),
        _snapshot(
            "ablation_query",
            "Ablation — DSQ escalation vs expanding-ring search",
            "extension (§III.C.4 ablation)",
            figures.ablation_query_spec,
            figures.reduce_ablation_query,
            description="Directed DSQ vs TTL-escalated flooding (+ dedup)",
            xl_defaults={"num_queries": 60},
        ),
        _series(
            "ablation_mobility",
            "Ablation — contact stability across mobility models",
            "extension (§IV.B footnote)",
            figures.ablation_mobility_spec,
            figures.reduce_ablation_mobility,
            description="RWP vs random-walk vs Gauss-Markov contact stability",
        ),
        _snapshot(
            "ablation_failures",
            "Ablation — robustness to node crashes (requirement c)",
            "extension (requirement c)",
            figures.ablation_failures_spec,
            figures.reduce_ablation_failures,
            description="Query success before/after a crash wave and repair",
            xl_defaults={"num_queries": 60},
        ),
        _snapshot(
            "ablation_edge_policy",
            "Ablation — CSQ edge-launch heuristics (future work §V)",
            "extension (§V future work)",
            figures.ablation_edge_policy_spec,
            figures.reduce_ablation_edge_policy,
            description="RANDOM vs SPREAD vs DEGREE edge-launch order",
        ),
        _snapshot(
            "smallworld",
            "Extension — small-world statistics of the contact structure",
            "extension (§I motivation)",
            figures.smallworld_spec,
            figures.reduce_smallworld,
            description="Clustering/path-length contraction contacts induce",
        ),
        _series(
            "mobility_rate",
            "Extension — overhead vs mobility rate (RWP speed sweep)",
            "extension (ROADMAP: overhead vs mobility rate)",
            figures.mobility_rate_spec,
            figures.reduce_mobility_rate,
            description="Link churn, overhead and substrate refresh vs speed",
        ),
        _des(
            "fig_des_latency",
            "Extension — discovery latency under the event-driven regime",
            "extension (ROADMAP: message-level DES regime)",
            figures.fig_des_latency_spec,
            figures.reduce_fig_des_latency,
            description="Discovery latency/loss/staleness vs link latency",
            xl_defaults={"num_sources": 250, "duration": 6.0,
                         "num_queries": 60},
        ),
        _snapshot(
            "fig07_ci",
            "Fig 7 (CI) — Reachability vs NoC, mean ± 95% CI over seeds",
            "§IV.A, Fig 7 (multi-seed extension)",
            figures.fig07_ci_spec,
            figures.reduce_fig07_ci,
            description="Fig 7's sweep × seeds, group-reduced to mean ± CI",
            default_seeds=figures.DEFAULT_CI_SEEDS,
            multi_seed=True,
        ),
        _snapshot(
            "table1_ci",
            "Table 1 (CI) — Scenario statistics, mean ± 95% CI over seeds",
            "§IV, Table 1 (multi-seed extension)",
            figures.table1_ci_spec,
            figures.reduce_table1_ci,
            description="Table 1 × seeds, per-scenario mean ± CI",
            default_seeds=figures.DEFAULT_CI_SEEDS,
            multi_seed=True,
        ),
    )
}


def artifact_ids() -> List[str]:
    """All registered artifact ids, sorted."""
    return sorted(ARTIFACTS)


def get_artifact(artifact_id: str) -> Artifact:
    """Look an artifact up by id, with the valid ids in the error."""
    try:
        return ARTIFACTS[artifact_id]
    except KeyError:
        known = ", ".join(artifact_ids())
        raise ValueError(
            f"unknown artifact {artifact_id!r}; known: {known}"
        ) from None
