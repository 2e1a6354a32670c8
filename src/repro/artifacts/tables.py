"""Table assembly shared by every campaign reducer.

Every paper artifact is ultimately a table (plus ASCII plots).  The
reducers in :mod:`repro.campaign.figures` feed this module values out of
the result store; the row/header/plot assembly lives here, once, and the
golden matrix (``pytest -m parity``) pins its output bit-for-bit.

This module must not import :mod:`repro.campaign` (the reducers import
us).  It knows nothing about how values were measured — only how each
figure's table is laid out.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.artifacts.result import ExperimentResult
from repro.core.reachability import DIST_BIN_EDGES
from repro.metrics.summary import normalized_tradeoff
from repro.scenarios.table1 import Scenario
from repro.util.ascii_plot import ascii_histogram, ascii_series

__all__ = [
    # Figs 3/4
    "pm_em_table",
    # Figs 5-9
    "distribution_table",
    # Figs 10-13
    "DEFAULT_SPEED",
    "DEFAULT_PAUSE",
    "FIG13_SPEED",
    "series_table",
    "fig13_hop_params",
    "fig13_table",
    # Figs 14/15
    "tradeoff_table",
    "fig15_table",
    # Table 1
    "TABLE1_HEADERS",
    "scenario_row",
    "table1_notes",
    # ablations + extensions
    "PM_EQ_VARIANTS",
    "OVERLAP_VARIANTS",
    "ABLATION_MOBILITY_CONFIGS",
    "pm_eq_row",
    "pm_eq_table",
    "overlap_row",
    "overlap_table",
    "recovery_row",
    "recovery_table",
    "query_row",
    "query_table",
    "mobility_row",
    "mobility_table",
    "edge_policy_row",
    "edge_policy_table",
    "smallworld_row",
    "smallworld_table",
    "failures_table",
    "mobility_rate_table",
    # event-driven regime
    "des_latency_table",
]


# ----------------------------------------------------------------------
# Figs 3 & 4 — PM vs EM
# ----------------------------------------------------------------------
def pm_em_table(
    noc_values: List[int],
    pm: List[tuple],
    em: List[tuple],
    *,
    scale: float,
) -> ExperimentResult:
    """Assemble the joint Fig 3 + Fig 4 table from per-method sweep rows.

    ``pm``/``em`` are ``(noc, mean_reach, fwd, back)`` rows as produced by
    :meth:`SnapshotRunner.sweep_noc` — shared by the campaign reducer and
    the historical runners, so the artifact output never drifted.
    """
    headers = [
        "NoC",
        "Reach% PM",
        "Reach% EM",
        "Backtrack/node PM",
        "Backtrack/node EM",
        "Fwd/node PM",
        "Fwd/node EM",
    ]
    rows: List[List[object]] = []
    for i, k in enumerate(noc_values):
        rows.append(
            [
                k,
                round(pm[i][1], 2),
                round(em[i][1], 2),
                round(pm[i][3], 1),
                round(em[i][3], 1),
                round(pm[i][2], 1),
                round(em[i][2], 1),
            ]
        )
    plot_reach = ascii_series(
        {"PM": [row[1] for row in pm], "EM": [row[1] for row in em]},
        noc_values,
        title="Fig 3 — Reachability (%) vs NoC",
    )
    plot_back = ascii_series(
        {"PM": [row[3] for row in pm], "EM": [row[3] for row in em]},
        noc_values,
        title="Fig 4 — Backtracking msgs/node vs NoC",
    )
    notes = [
        "paper: EM dominates PM in reachability; PM saturates earlier and "
        "backtracks far more",
        "R=3, r=20, D=1, N=500 (scaled by "
        f"{scale:g}), PM uses eq.(2)",
    ]
    return ExperimentResult(
        exp_id="fig03_04",
        title="Figs 3 & 4 — PM vs EM: reachability and backtracking overhead",
        headers=headers,
        rows=rows,
        notes=notes,
        plots=[plot_reach, plot_back],
        raw={"noc": noc_values, "pm": pm, "em": em},
    )


# ----------------------------------------------------------------------
# Figs 5-9 — reachability distributions
# ----------------------------------------------------------------------
def distribution_table(
    columns: Dict[str, np.ndarray],
    means: Dict[str, float],
    *,
    exp_id: str,
    title: str,
    notes: List[str],
    plot_key: Optional[str] = None,
) -> ExperimentResult:
    """Assemble the bins × sweep-values table shared by Figs 5-9."""
    headers = ["Reach% bin"] + list(columns)
    rows: List[List[object]] = []
    for b, edge in enumerate(DIST_BIN_EDGES):
        rows.append([int(edge)] + [int(columns[c][b]) for c in columns])
    rows.append(["mean%"] + [round(means[c], 2) for c in columns])
    plots = []
    if plot_key is not None and plot_key in columns:
        plots.append(
            ascii_histogram(
                [int(e) for e in DIST_BIN_EDGES],
                columns[plot_key].tolist(),
                title=f"{title} — distribution at {plot_key}",
            )
        )
    return ExperimentResult(
        exp_id=exp_id,
        title=title,
        headers=headers,
        rows=rows,
        notes=notes,
        plots=plots,
        raw={"columns": columns, "means": means},
    )


# ----------------------------------------------------------------------
# Figs 10-13 — overhead over time
# ----------------------------------------------------------------------
#: mobility defaults for the overhead experiments (Figs 10-12): moderate
#: pedestrian-to-vehicle speeds with short pauses.  The paper does not
#: print its setdest parameters; this regime keeps churn low enough that
#: re-selection cost is governed by the admission-region geometry (the
#: effect Figs 11/12 isolate) rather than by raw path breakage.
DEFAULT_SPEED = (0.5, 5.0)
DEFAULT_PAUSE = 2.0
#: Fig 13's stability study instead uses the classic heterogeneous-speed
#: RWP (min speed 0): the slow tail of the speed distribution supplies the
#: "stable contacts" whose accumulation decays maintenance overhead — the
#: paper's own footnote credits the RWP model for exactly this effect.
FIG13_SPEED = (0.0, 10.0)


def series_table(
    times: Sequence[float],
    series_by_label: Dict[str, Sequence[float]],
    *,
    exp_id: str,
    title: str,
    ylabel: str,
    notes: List[str],
    raw: Dict[str, object],
) -> ExperimentResult:
    """Assemble a per-bin series table (the Figs 10-12 template).

    ``series_by_label`` maps curve label → one value per bin; this is
    shared by the historical runners (values straight from
    :class:`TimeSeriesResult`) and the campaign reducers (values out of
    the JSONL store), so both paths emit identical artifacts.
    """
    labels = list(series_by_label)
    headers = ["t (s)"] + labels
    rows: List[List[object]] = []
    for i, t in enumerate(times):
        rows.append([t] + [round(series_by_label[l][i], 2) for l in labels])
    plot = ascii_series(
        {l: list(series_by_label[l]) for l in labels},
        list(times),
        title=f"{title} — {ylabel}",
    )
    return ExperimentResult(
        exp_id=exp_id,
        title=title,
        headers=headers,
        rows=rows,
        notes=notes,
        plots=[plot],
        raw=raw,
    )


def fig13_hop_params(n: int) -> tuple:
    """Fig 13's (R, r), shrunk with the network's hop diameter.

    The paper's R=4, r=16 assume the full N=250 diameter; scaled-down CI
    runs shrink the network's hop diameter by ~sqrt(scale), so the hop
    parameters shrink with it (otherwise the (2R, r] band falls off the
    edge of the network and no contacts can exist at all).
    """
    hop_factor = float(np.sqrt(n / 250.0))
    R = max(2, int(round(4 * hop_factor)))
    r = max(2 * R + 2, int(round(16 * hop_factor)))
    return R, r


def fig13_table(
    times: Sequence[float],
    maintenance: Sequence[float],
    total_contacts: Sequence[int],
    lost_per_bin: Sequence[int],
    *,
    n: int,
    R: int,
    r: int,
    raw: Dict[str, object],
) -> ExperimentResult:
    """Assemble the Fig 13 stability table (shared campaign/legacy)."""
    headers = ["t (s)", "Maintenance/node", "Total contacts", "Lost this bin"]
    rows: List[List[object]] = []
    for i, t in enumerate(times):
        rows.append(
            [
                t,
                round(maintenance[i], 2),
                total_contacts[i],
                lost_per_bin[i],
            ]
        )
    plot = ascii_series(
        {
            "maintenance/node": list(maintenance),
            "contacts/10": [c / 10.0 for c in total_contacts],
        },
        list(times),
        title="Fig 13 — maintenance decays while contacts stabilise",
    )
    return ExperimentResult(
        exp_id="fig13",
        title="Fig 13 — Variation of overhead with time (N=250, NoC=6, R=4, r=16)",
        headers=headers,
        rows=rows,
        notes=[
            "paper: maintenance overhead decreases steadily over time while "
            "held contacts rise slightly — sources settle on stable contacts",
            f"N={n}, R={R}, r={r}, RWP speeds {FIG13_SPEED} m/s (min 0: the "
            f"slow tail provides the stable contacts), pause {DEFAULT_PAUSE}s",
        ],
        plots=[plot],
        raw=raw,
    )


# ----------------------------------------------------------------------
# Figs 14/15 — trade-off and scheme comparison
# ----------------------------------------------------------------------
def tradeoff_table(
    noc_values: List[int],
    reach: List[float],
    overhead: List[float],
    frac50: List[float],
    *,
    n: int,
    R: int,
    r: int,
    validation_rounds: int,
    raw: Dict[str, object],
) -> ExperimentResult:
    """Assemble the Fig 14 trade-off table (shared campaign/legacy)."""
    rows_norm = normalized_tradeoff(noc_values, reach, overhead)
    headers = ["NoC", "Reach (norm)", "Overhead (norm)", "Reach %", "Ovh msgs/node", ">=50% frac"]
    rows: List[List[object]] = []
    for i, (k, rn, on) in enumerate(rows_norm):
        rows.append(
            [k, round(rn, 3), round(on, 3), round(reach[i], 2), round(overhead[i], 1), round(frac50[i], 3)]
        )
    plot = ascii_series(
        {
            "reachability": [row[1] for row in rows_norm],
            "overhead": [row[2] for row in rows_norm],
        },
        noc_values,
        title="Fig 14 — normalized reachability vs overhead",
    )
    return ExperimentResult(
        exp_id="fig14",
        title="Fig 14 — Trade-off between reachability and contact overhead",
        headers=headers,
        rows=rows,
        notes=[
            "paper: a desirable region exists where reachability >= 50 % at "
            "moderate overhead (reachability saturates, overhead keeps rising)",
            f"N={n}, R={R}, r={r}, D=1; maintenance term = "
            f"{validation_rounds} validation cycles over stored routes",
        ],
        plots=[plot],
        raw=raw,
    )


def fig15_table(
    rows: List[List[object]],
    series: Dict[str, List[float]],
    *,
    num_queries: int,
    raw: Dict[str, object],
) -> ExperimentResult:
    """Assemble the Fig 15 comparison table (shared campaign/legacy)."""
    headers = [
        "N",
        "Flood msgs",
        "Border msgs",
        "CARD msgs",
        "Flood events",
        "Border events",
        "CARD events",
        "CARD overhead",
        "Flood succ%",
        "Border succ%",
        "CARD succ%",
    ]
    plot = ascii_series(
        series,
        [row[0] for row in rows],
        title="Fig 15 — querying traffic vs network size",
    )
    return ExperimentResult(
        exp_id="fig15",
        title="Fig 15 — Comparison of CARD with flooding and bordercasting",
        headers=headers,
        rows=rows,
        notes=[
            "paper: CARD's querying traffic is far below bordercasting and "
            "flooding; CARD succeeds ~95 % at D=3, the blind schemes ~100 %",
            f"workload: {num_queries} random (source, target) pairs per size; "
            "msgs = transmissions (the paper's §III.B control-message count), "
            "events = tx+rx on the broadcast medium (flood/bordercast "
            "transmissions are heard by ~node-degree radios, CARD's unicast "
            "DSQ hops by one) — the NS-2-style metric behind the paper's gap",
            "bordercasting uses QD1+QD2; zone radius equals CARD's R per size",
        ],
        plots=[plot],
        raw=raw,
    )


# ----------------------------------------------------------------------
# Table 1 — scenario connectivity statistics
# ----------------------------------------------------------------------
#: Column order of the reproduced Table 1.
TABLE1_HEADERS = [
    "No.",
    "Nodes",
    "Area",
    "Tx",
    "Links",
    "Links(paper)",
    "Degree",
    "Degree(paper)",
    "Diam",
    "Diam(paper)",
    "AvHops",
    "AvHops(paper)",
    "GiantComp",
]


def scenario_row(
    sc: Scenario,
    num_nodes: int,
    *,
    num_links: int,
    mean_degree: float,
    diameter: int,
    mean_hops: float,
    giant_size: int,
) -> List[object]:
    """One Table 1 row: scenario identity, measured stats, paper stats."""
    return [
        sc.index,
        num_nodes,
        f"{sc.area[0]:g}x{sc.area[1]:g}",
        f"{sc.tx_range:g}",
        num_links,
        sc.paper_links,
        round(mean_degree, 3),
        sc.paper_degree,
        diameter,
        sc.paper_diameter,
        round(mean_hops, 3),
        sc.paper_avg_hops,
        giant_size,
    ]


def table1_notes(scale: float) -> List[str]:
    """The standard interpretation notes beneath the reproduced table."""
    notes = [
        "topologies regenerated from the paper's (N, area, tx) with uniform "
        "placement; per-draw statistics differ, cross-scenario scaling holds",
        "diameter/avg-hops computed over the largest connected component",
    ]
    if scale != 1.0:
        notes.append(f"scaled run: node counts multiplied by {scale:g}")
    return notes


# ----------------------------------------------------------------------
# ablations
# ----------------------------------------------------------------------
#: (label, CARDParams overrides) per admission variant — the campaign
#: reducer sweeps exactly these configs (pinned by the golden matrix).
PM_EQ_VARIANTS = (
    ("PM eq.1", {"method": "PM", "pm_equation": 1}),
    ("PM eq.2", {"method": "PM", "pm_equation": 2}),
    ("EM", {"method": "EM"}),
)

OVERLAP_VARIANTS = (
    ("full EM", {"check_contact_overlap": True, "check_edge_overlap": True}),
    ("no edge check", {"check_contact_overlap": True, "check_edge_overlap": False}),
    ("no contact check", {"check_contact_overlap": False, "check_edge_overlap": True}),
    ("source check only", {"check_contact_overlap": False, "check_edge_overlap": False}),
)

#: label → declarative mobility configuration for the mobility ablation;
#: the legacy factories and the campaign port both derive from it.
ABLATION_MOBILITY_CONFIGS = {
    "RWP": {"model": "rwp", "min_speed": 0.5, "max_speed": 5.0, "pause": 2.0},
    "RandomWalk": {
        "model": "walk", "min_speed": 0.5, "max_speed": 5.0, "mean_epoch": 5.0,
    },
    "GaussMarkov": {
        "model": "gauss_markov", "alpha": 0.85, "mean_speed": 2.5, "sigma": 1.0,
    },
}


def pm_eq_row(
    label: str,
    overlap_fraction: float,
    mean_reachability: float,
    mean_contacts: float,
    forward_per_node: float,
    backtrack_per_node: float,
) -> List[object]:
    return [
        label,
        round(100 * overlap_fraction, 2),
        round(mean_reachability, 2),
        round(mean_contacts, 2),
        round(forward_per_node, 1),
        round(backtrack_per_node, 1),
    ]


def pm_eq_table(rows: List[List[object]], *, n, R, r, noc, raw) -> ExperimentResult:
    return ExperimentResult(
        exp_id="ablation_pm_eq",
        title="Ablation — PM admission equation (1) vs (2) vs EM",
        headers=[
            "variant",
            "overlap %",
            "mean reach %",
            "mean contacts",
            "fwd/node",
            "backtrack/node",
        ],
        rows=rows,
        notes=[
            "eq.(1) admits inside (R, 2R] → overlapping contacts (Fig 1's "
            "pathology); eq.(2) shrinks but cannot eliminate overlap (walk "
            "distance != true distance); EM eliminates it",
            f"N={n}, R={R}, r={r}, NoC={noc}",
        ],
        raw=raw,
    )


def overlap_row(
    label: str,
    overlap_fraction: float,
    mean_reachability: float,
    mean_contacts: float,
    backtrack_per_node: float,
) -> List[object]:
    return [
        label,
        round(100 * overlap_fraction, 2),
        round(mean_reachability, 2),
        round(mean_contacts, 2),
        round(backtrack_per_node, 1),
    ]


def overlap_table(rows: List[List[object]], *, n, R, r, noc) -> ExperimentResult:
    return ExperimentResult(
        exp_id="ablation_overlap",
        title="Ablation — contribution of the EM overlap checks",
        headers=["variant", "overlap %", "mean reach %", "mean contacts", "backtrack/node"],
        rows=rows,
        notes=[
            "dropping the edge check reintroduces source-contact overlap; "
            "dropping the contact check lets contacts crowd each other — "
            "more contacts admitted, less reachability per contact",
            f"N={n}, R={R}, r={r}, NoC={noc}",
        ],
    )


def recovery_row(
    label: str,
    lost_per_bin: List[int],
    maintenance: List[float],
    selection: List[float],
    backtracking: List[float],
    overhead: List[float],
    total_contacts: List[int],
) -> List[object]:
    return [
        label,
        sum(lost_per_bin),
        round(float(np.mean(maintenance)), 2),
        round(float(np.mean(selection)) + float(np.mean(backtracking)), 2),
        round(float(np.mean(overhead)), 2),
        total_contacts[-1] if total_contacts else 0,
    ]


def recovery_table(rows: List[List[object]], *, n, duration) -> ExperimentResult:
    return ExperimentResult(
        exp_id="ablation_recovery",
        title="Ablation — local recovery during contact validation",
        headers=[
            "variant",
            "contacts lost",
            "maint/node/bin",
            "reselect/node/bin",
            "total ovh/node/bin",
            "contacts at end",
        ],
        rows=rows,
        notes=[
            "without local recovery every broken hop kills the contact, "
            "forcing expensive re-selection — §III.C.3's motivation",
            f"N={n}, R=3, r=12, NoC=5, {duration:g}s RWP",
        ],
    )


def query_row(label: str, msgs: int, successes: int, num_queries: int) -> List[object]:
    return [
        label,
        msgs,
        round(msgs / num_queries, 1),
        round(100 * successes / num_queries, 1),
    ]


def query_table(rows: List[List[object]], *, n, num_queries) -> ExperimentResult:
    return ExperimentResult(
        exp_id="ablation_query",
        title="Ablation — DSQ escalation vs expanding-ring search",
        headers=["scheme", "total msgs", "msgs/query", "success %"],
        rows=rows,
        notes=[
            "§III.C.4's claim: depth escalation through contacts beats "
            "TTL-escalated flooding because queries are directed, not flooded",
            f"N={n}, R=3, r=12, NoC=6, D<=3, {num_queries} queries",
        ],
    )


def mobility_row(
    label: str,
    lost_per_bin: List[int],
    maintenance: List[float],
    overhead: List[float],
    total_contacts: List[int],
) -> List[object]:
    return [
        label,
        sum(lost_per_bin),
        round(float(np.mean(maintenance)), 2),
        round(float(np.mean(overhead)), 2),
        total_contacts[-1] if total_contacts else 0,
    ]


def mobility_table(rows: List[List[object]], *, n, duration) -> ExperimentResult:
    return ExperimentResult(
        exp_id="ablation_mobility",
        title="Ablation — contact stability across mobility models",
        headers=["model", "contacts lost", "maint/node/bin", "ovh/node/bin", "contacts at end"],
        rows=rows,
        notes=[
            "the paper's §IV.B footnote conjectures mobility-model "
            "sensitivity; models with higher relative velocities (random "
            "walk) lose more contacts than momentum-dominated ones",
            f"N={n}, R=3, r=12, NoC=5, {duration:g}s",
        ],
    )


# ----------------------------------------------------------------------
# extensions
# ----------------------------------------------------------------------
def edge_policy_row(
    label: str,
    mean_reachability: float,
    mean_contacts: float,
    forward_per_node: float,
    backtrack_per_node: float,
) -> List[object]:
    return [
        label,
        round(mean_reachability, 2),
        round(mean_contacts, 2),
        round(forward_per_node, 1),
        round(backtrack_per_node, 1),
    ]


def edge_policy_table(rows: List[List[object]], *, n, R, r, noc, raw) -> ExperimentResult:
    return ExperimentResult(
        exp_id="ablation_edge_policy",
        title="Ablation — CSQ edge-launch heuristics (future work §V)",
        headers=["policy", "mean reach %", "contacts", "fwd/node", "backtrack/node"],
        rows=rows,
        notes=[
            "SPREAD = farthest-point sampling over the edge set's hop "
            "metric (GPS-free); DEGREE = densest-region first",
            f"N={n}, R={R}, r={r}, NoC={noc}",
        ],
        raw=raw,
    )


def smallworld_row(
    k: int,
    clustering: float,
    path_length: float,
    augmented_path_length: float,
    shortcut_gain: float,
    mean_separation: float,
    coverage: float,
) -> List[object]:
    return [
        int(k),
        round(clustering, 3),
        round(path_length, 2),
        round(augmented_path_length, 2),
        round(shortcut_gain, 3),
        round(mean_separation, 2),
        round(100 * coverage, 1),
    ]


def smallworld_table(rows: List[List[object]], *, n, R, r, raw) -> ExperimentResult:
    return ExperimentResult(
        exp_id="smallworld",
        title="Extension — small-world statistics of the contact structure",
        headers=[
            "NoC",
            "clustering C",
            "path length L",
            "L w/ shortcuts",
            "gain",
            "mean separation",
            "coverage %",
        ],
        rows=rows,
        notes=[
            "unit-disk MANets are clustered but long-pathed; contacts are "
            "Watts-Strogatz shortcuts — L shrinks as NoC grows while C is a "
            "property of the physical graph (unchanged)",
            f"N={n}, R={R}, r={r}",
        ],
        raw=raw,
    )


def failures_table(
    rows: List[List[object]], *, n, fail_fraction, num_failed, lost, raw
) -> ExperimentResult:
    return ExperimentResult(
        exp_id="ablation_failures",
        title="Ablation — robustness to node crashes (requirement c)",
        headers=["phase", "queries ok", "query msgs", "repair msgs", "contacts held"],
        rows=rows,
        notes=[
            f"{num_failed} of {n} nodes crashed ({100 * fail_fraction:.0f}%); "
            f"repair = one validation+replenish round per surviving source "
            f"({lost} contacts dropped)",
            "success counted over workload pairs whose endpoints survive",
        ],
        raw=raw,
    )


def des_latency_table(
    labels: Sequence[str],
    metrics_by_label: Dict[str, Dict[str, object]],
    *,
    n: int,
    notes: List[str],
    raw: Dict[str, object],
) -> ExperimentResult:
    """Assemble the event-driven latency table (campaign-native).

    One row per link configuration: discovery success split (zone hits
    vs contact-path answers vs timeouts), the end-to-end discovery
    latency distribution in milliseconds, the staleness-vs-loss drop
    split, and the overhead in messages and byte·seconds — the
    quantities only the message-level ``des`` regime can measure.
    """
    headers = [
        "case",
        "success %",
        "zone hits",
        "lat mean (ms)",
        "lat p50 (ms)",
        "lat p95 (ms)",
        "timeouts",
        "stale drops",
        "loss drops",
        "query msgs",
        "byte·s",
    ]
    rows: List[List[object]] = []
    for label in labels:
        m = metrics_by_label[label]
        rows.append(
            [
                label,
                round(100.0 * float(m["success_rate"]), 1),
                int(m["zone_hits"]),
                round(1000.0 * float(m["latency_mean"]), 2),
                round(1000.0 * float(m["latency_p50"]), 2),
                round(1000.0 * float(m["latency_p95"]), 2),
                int(m["timeouts"]),
                int(m["stale_drops"]),
                int(m["loss_drops"]),
                int(m["query_msgs"]) + int(m["reply_msgs"]),
                round(float(m["byte_seconds"]), 2),
            ]
        )
    plot = ascii_histogram(
        list(labels),
        [1000.0 * float(metrics_by_label[l]["latency_p95"]) for l in labels],
        title="p95 discovery latency (ms) per link configuration",
    )
    return ExperimentResult(
        exp_id="fig_des_latency",
        title="Extension — discovery latency under the event-driven regime",
        headers=headers,
        rows=rows,
        notes=notes
        + [
            f"N={n}; latencies are query-launch → reply-received on the "
            "DES clock (zone hits answer locally at latency 0)",
            "stale drops = forwards onto links the contact table still "
            "advertises but mobility already broke; loss drops = channel "
            "loss draws",
        ],
        plots=[plot],
        raw=raw,
    )


def mobility_rate_table(
    rows: List[List[object]],
    churn_by_label: Dict[str, float],
    overhead_by_label: Dict[str, float],
    *,
    n: int,
    duration: float,
    raw: Dict[str, object],
) -> ExperimentResult:
    """Assemble the overhead-vs-mobility-rate table (campaign-native).

    One row per swept RWP speed band: link churn per mobility step, the
    per-bin overhead/maintenance means, contacts lost, and the distance
    substrate's refresh split (incremental vs full rebuilds) at that
    churn level.
    """
    labels = list(churn_by_label)
    plot = ascii_series(
        {
            "links changed/step": [churn_by_label[l] for l in labels],
            "ovh/node/bin": [overhead_by_label[l] for l in labels],
        },
        list(range(len(labels))),
        title="overhead and link churn vs mobility rate (case index)",
    )
    return ExperimentResult(
        exp_id="mobility_rate",
        title="Extension — overhead vs mobility rate (RWP speed sweep)",
        headers=[
            "max speed",
            "links changed/step",
            "ovh/node/bin",
            "maint/node/bin",
            "contacts lost",
            "substrate incr",
            "substrate full",
        ],
        rows=rows,
        notes=[
            "faster nodes churn more links per mobility step, which costs "
            "twice: more failed validations (maintenance/re-selection "
            "overhead) and more substrate refresh work per step",
            f"N={n}, R=3, r=12, NoC=5, {duration:g}s RWP per speed band; "
            "churn/substrate figures from the `churn` metric family "
            "(link_churn + substrate_stats, stored per cell)",
        ],
        plots=[plot],
        raw=raw,
    )
