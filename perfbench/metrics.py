"""Metric tables: what the benchmark reports, and what each should move.

BENCHMARK.json lists the same names, units and directions; the
`moves` / `on` columns of PER_LAYER (which end-to-end metric a layer metric
should move, and on which workload) live only here because that file has
no field for them. `python3 perfbench/run.py --list` prints both tables.
"""

from __future__ import annotations

from spans import LAYERS, summarize

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("instance_s_p50", "s", "lower", 0.24),
    ("instance_s_tail", "s", "lower", 0.24),
    ("instances_per_s", "1/s", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
# Reported beside the end-to-end metrics but kept out of BENCHMARK.json:
# fail_frac is 0 by the choice of workloads, and that file's metrics must
# never be 0 (the result line carries it as `failed / attempted`); the
# tail's percentile and sample count describe instance_s_tail; the `_wall`
# values are the times before scaling to the reference speed, and
# speed_factor is the run's median scale (calibrate.py).
END_TO_END_EXTRA = [("fail_frac", "ratio"), ("tail_percentile", "%"), ("samples", "count"),
                    ("speed_factor", "ratio"), ("setup_s_wall", "s"),
                    ("instance_s_p50_wall", "s"), ("instance_s_tail_wall", "s"),
                    ("instances_per_s_wall", "1/s")]

E2E_TIME = "instance_s_p50, instance_s_tail"
ROUND_TRIPS = "measure_roundtrip, expsum_roundtrip (by hand)"
SOLVES = "cli_demos, pop_ball (by hand)"

# name, unit, better, should move, on workload
PER_LAYER = [
    ("linalg.hermitian_eig.calls", "count", "lower", E2E_TIME, ROUND_TRIPS),
    ("linalg.hermitian_eig.self_s", "s", "lower", E2E_TIME, ROUND_TRIPS),
    ("linalg.hermitian_eig.n3", "count", "lower", E2E_TIME, ROUND_TRIPS),
    ("linalg.takagi.calls", "count", "lower", E2E_TIME, "expsum_roundtrip (by hand), cli_demos"),
    ("linalg.takagi.self_s", "s", "lower", E2E_TIME, "expsum_roundtrip (by hand), cli_demos"),
    ("linalg.takagi.incl_s", "s", "lower", E2E_TIME, "expsum_roundtrip (by hand), cli_demos"),
    ("linalg.psd_root_factor.self_s", "s", "lower", E2E_TIME, ROUND_TRIPS),
    ("linalg.column_basis.self_s", "s", "lower", E2E_TIME, ROUND_TRIPS),
    ("linalg.self_s", "s", "lower", E2E_TIME, ROUND_TRIPS),
    ("moment.moment_matrix.calls", "count", "lower", "instance_s_p50", "measure_roundtrip"),
    ("moment.moment_matrix.self_s", "s", "lower", "instance_s_p50, setup_s", "measure_roundtrip"),
    ("moment.hyponormality_block.calls", "count", "lower", "instance_s_p50", "measure_roundtrip"),
    ("moment.hyponormality_block.self_s", "s", "lower", "instance_s_p50", "measure_roundtrip"),
    ("moment.hankel_matrix.self_s", "s", "lower", "instance_s_p50", "expsum_roundtrip (by hand), cli_demos"),
    ("moment.read_sequence.self_s", "s", "lower", "instance_s_p50", "cli_demos"),
    ("moment.write_sequence.self_s", "s", "lower", "instance_s_p50", "cli_demos"),
    ("moment.self_s", "s", "lower", "instance_s_p50, setup_s", "measure_roundtrip"),
    ("hierarchy.parse_problem.self_s", "s", "lower", "instance_s_p50", "cli_demos"),
    ("hierarchy.assemble_relaxation.self_s", "s", "lower", "instance_s_p50, setup_s", SOLVES),
    ("hierarchy.realify.self_s", "s", "lower", "instance_s_p50", SOLVES),
    ("hierarchy.sequence_from_values.self_s", "s", "lower", "instance_s_p50", SOLVES),
    ("hierarchy.sdp_vars", "count", "lower", "none unless the relaxation changes", SOLVES),
    ("hierarchy.block_rows", "count", "lower", "none unless the relaxation changes", SOLVES),
    ("hierarchy.self_s", "s", "lower", "instance_s_p50, setup_s", SOLVES),
    ("sdp.solve.calls", "count", "lower", "none", SOLVES),
    ("sdp.solve.self_s", "s", "lower", f"{E2E_TIME}, peak_rss_mb", SOLVES),
    ("sdp.iterations", "count", "lower", "instance_s_tail", "cli_demos (flat on pop_ball)"),
    ("sdp.s_per_iter", "s", "lower", f"{E2E_TIME}, peak_rss_mb", "pop_ball (by hand)"),
    ("sdp.optimal_frac", "ratio", "higher", "instance_s_tail", "cli_demos"),
    ("sdp.max_iter_frac", "ratio", "lower", "instance_s_tail", "cli_demos"),
    ("sdp.raised", "count", "lower", "fail_frac", SOLVES),
    ("extraction.extract_measure.calls", "count", "lower", "none", "all"),
    ("extraction.extract_measure.self_s", "s", "lower", "instance_s_p50", ROUND_TRIPS),
    ("extraction.check_flatness.self_s", "s", "lower", "instance_s_p50", ROUND_TRIPS),
    ("extraction.compute_shifts.self_s", "s", "lower", "instance_s_p50", ROUND_TRIPS),
    ("extraction.check_hyponormality.self_s", "s", "lower", "instance_s_p50", "measure_roundtrip"),
    ("extraction.simultaneous_diagonalize.self_s", "s", "lower", "instance_s_p50", ROUND_TRIPS),
    ("extraction.verify_measure.self_s", "s", "lower", "instance_s_p50", "measure_roundtrip"),
    ("extraction.data_hyponormality_min_eig.self_s", "s", "lower", "instance_s_p50", "measure_roundtrip"),
    ("extraction.feasibility_report.self_s", "s", "lower", "instance_s_p50", "cli_demos"),
    ("extraction.certified_frac", "ratio", "higher", "fail_frac", "all"),
    ("extraction.raised", "count", "lower", "fail_frac", "all"),
    ("extraction.self_s", "s", "lower", "instance_s_p50", ROUND_TRIPS),
    ("interp.sample_grid.self_s", "s", "lower", "instance_s_p50", "expsum_roundtrip (by hand), cli_demos"),
    ("interp.interpolate.calls", "count", "lower", "none", "expsum_roundtrip (by hand), cli_demos"),
    ("interp.interpolate.self_s", "s", "lower", "instance_s_p50", "expsum_roundtrip (by hand), cli_demos"),
    ("interp.self_s", "s", "lower", "instance_s_p50", "expsum_roundtrip (by hand), cli_demos"),
    ("cli.main.calls", "count", "lower", "none", "cli_demos"),
    ("cli.main.self_s", "s", "lower", "instance_s_p50", "cli_demos"),
    ("trace.overhead_frac", "ratio", "lower", "none", "all"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(spans, counts, overhead_frac):
    """Every PER_LAYER metric from one traced pass (0 where a layer is idle)."""
    calls, self_s, incl_s = summarize(spans)
    values = {}
    for name, *_ in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if tail == "calls":
            values[name] = calls[head]
        elif tail == "self_s" and head in LAYERS:
            values[name] = sum(v for k, v in self_s.items() if k.split(".")[0] == head)
        elif tail == "self_s":
            values[name] = self_s[head]
        elif tail == "incl_s":
            values[name] = incl_s[head]
    solves = calls["sdp.solve"]
    extractions = calls["extraction.extract_measure"]
    values.update({
        "linalg.hermitian_eig.n3": counts["linalg.hermitian_eig.n3"],
        "hierarchy.sdp_vars": counts["hierarchy.sdp_vars"],
        "hierarchy.block_rows": counts["hierarchy.block_rows"],
        "sdp.iterations": counts["sdp.iterations"],
        "sdp.s_per_iter": _ratio(self_s["sdp.solve"], counts["sdp.iterations"]),
        "sdp.optimal_frac": _ratio(counts["sdp.status.optimal"], solves),
        "sdp.max_iter_frac": _ratio(counts["sdp.status.max_iter"], solves),
        "sdp.raised": counts["sdp.solve.raised"],
        "extraction.certified_frac": _ratio(
            counts["extraction.certification.certified"], extractions),
        "extraction.raised": counts["extraction.extract_measure.raised"],
        "trace.overhead_frac": overhead_frac,
    })
    return values
