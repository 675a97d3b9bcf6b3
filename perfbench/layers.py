"""Per-layer metrics of the traced run.

They are computed from the spans soft_bench writes with --trace --spans
(one TSV row per span: source kind id parent start_ns dur_ns pattern
outcome verdict) and from its campaign records. Layer names are the
repository's module names; perfbench/NOTES.md maps each metric to the
end-to-end metric it should move. A metric a workload does not exercise
reads 0.
"""

import collections

import stats

WORKLOADS = ("fleet_units", "logic_oracles", "baseline_tools")
SOFT_WORKLOADS = ("fleet_units", "logic_oracles")
PATTERNS = ("P1.2", "P1.3", "P1.4", "P2.1", "P2.2", "P2.3", "P3.1", "P3.2", "P3.3", "seed")
TOOLS = (("SQLsmith*", "sqlsmith"), ("SQLancer*", "sqlancer"), ("SQUIRREL*", "squirrel"))
ORACLES = ("eet", "diff", "norec", "tlp")
FLEET_WORKERS = 2
STAGES = ("parse", "optimize", "execute")

PER_LAYER = (
    [("dialects.construct_ms", "ms"),
     ("dialects.first_construct_ms", "ms"),
     ("soft.collect_ms", "ms"),
     ("soft.corpus_exprs", "count"),
     ("soft.generate_ms", "ms"),
     ("soft.pool_cases", "count"),
     ("soft.pool_unique_ratio", "ratio")]
    + [("soft.bugs_per_cpu_s." + p, "1/s") for p in PATTERNS]
    + [("soft.sql_error_ratio", "ratio"),
       ("sqlparser.parse_s", "s"),
       ("sqlparser.parse_us.p50", "us"),
       ("sqlparser.parse_us.tail", "us"),
       ("sqlparser.parse_us.n", "count"),
       ("engine.optimize_s", "s"),
       ("engine.execute_s", "s"),
       ("engine.execute_us.p50", "us"),
       ("engine.execute_us.tail", "us"),
       ("engine.execute_us.max", "us"),
       ("engine.execute_us.n", "count")]
    + [("engine.execute_s." + p, "s") for p in PATTERNS]
    + [("engine.top1pct_share", "ratio"),
       ("oracle.self_s", "s"),
       ("oracle.self_share", "ratio")]
    + [("oracle.%s.self_s" % o, "s") for o in ORACLES]
    + [("oracle.checks", "count"),
       ("oracle.false_positives", "count"),
       ("fleet.unit_ms.p50", "ms"),
       ("fleet.unit_ms.max", "ms"),
       ("fleet.worker_busy_share", "ratio"),
       ("fleet.setup_cpu_share", "ratio"),
       ("fleet.coordinator_cpu_s", "s"),
       ("fleet.leases_reclaimed", "count"),
       ("fleet.grants_redelivered", "count"),
       ("fleet.worker_deaths", "count")]
    + [("baselines.%s.gen_s" % t, "s") for _, t in TOOLS]
    + [("baselines.%s.stmts_per_s" % t, "1/s") for _, t in TOOLS]
    + [("telemetry.trace_overhead_pct", "%")]
)

Span = collections.namedtuple(
    "Span", "source kind id parent start dur pattern outcome verdict")


def load_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            source, kind, sid, parent, start, dur, pattern, outcome, verdict = (
                line.rstrip("\n").split("\t"))
            spans.append(Span(source, kind, int(sid), int(parent), int(start), int(dur),
                              pattern, outcome, verdict))
    return spans


def children_of(spans):
    """{(source, parent id): [child spans]}."""
    children = collections.defaultdict(list)
    for s in spans:
        children[(s.source, s.parent)].append(s)
    return children


def span_self_ns(span, children):
    kids = children.get((span.source, span.id), ())
    return stats.self_time(span.start, span.dur, [(c.start, c.dur) for c in kids])


def statement_self_s(spans):
    """Summed self time of statement spans (duration minus stage children)
    and summed statement time, in seconds."""
    children = children_of(spans)
    statements = [s for s in spans if s.kind == "statement"]
    self_ns = sum(span_self_ns(s, children) for s in statements)
    return self_ns / 1e9, sum(s.dur for s in statements) / 1e9


def add_stage_metrics(m, spans):
    """sqlparser.* and engine.* from the stage children of statement spans."""
    pattern_of = {(s.source, s.id): s.pattern for s in spans if s.kind == "statement"}
    durs = {stage: [] for stage in STAGES}
    execute_by_pattern = collections.Counter()
    for s in spans:
        if s.kind in durs and (s.source, s.parent) in pattern_of:
            durs[s.kind].append(s.dur)
            if s.kind == "execute":
                execute_by_pattern[pattern_of[(s.source, s.parent)]] += s.dur
    for stage, prefix in (("parse", "sqlparser.parse"), ("execute", "engine.execute")):
        values = durs[stage]
        m[prefix + "_s"] = sum(values) / 1e9
        if values:
            m[prefix + "_us.p50"] = stats.median(values) / 1e3
            m[prefix + "_us.n"] = len(values)
            tail = stats.tail(values)
            if tail is not None:
                m[prefix + "_us.tail"] = tail[1] / 1e3
    m["engine.optimize_s"] = sum(durs["optimize"]) / 1e9
    execute = sorted(durs["execute"], reverse=True)
    if execute:
        m["engine.execute_us.max"] = execute[0] / 1e3
        top = execute[:max(1, len(execute) // 100)]
        m["engine.top1pct_share"] = sum(top) / sum(execute) if sum(execute) else 0.0
    for p in PATTERNS:
        m["engine.execute_s." + p] = execute_by_pattern[p] / 1e9


def add_soft_metrics(m, record, spans, layers_record):
    campaigns = record["campaigns"]
    statements = sum(c["statements"] for c in campaigns)
    m["soft.sql_error_ratio"] = (
        sum(c["sql_errors"] for c in campaigns) / statements if statements else 0.0)
    if layers_record:
        m["soft.collect_ms"] = layers_record["collect_ms"]
        m["soft.corpus_exprs"] = layers_record["corpus_exprs"]
        m["soft.generate_ms"] = layers_record["generate_ms"]
        m["soft.pool_cases"] = layers_record["pool_cases"]
        if layers_record["pool_cases"]:
            m["soft.pool_unique_ratio"] = (
                layers_record["pool_unique"] / layers_record["pool_cases"])
    bugs = collections.Counter()
    for c in campaigns:
        bugs.update(c["bugs_by_pattern"])
    time_ns = collections.Counter()
    for s in spans:
        if s.kind == "statement":
            time_ns[s.pattern] += s.dur
    for p in PATTERNS:
        if time_ns[p]:
            m["soft.bugs_per_cpu_s." + p] = bugs[p] / (time_ns[p] / 1e9)


def add_fleet_metrics(m, spans, untraced, setup_cpu_s):
    units = [s.dur for s in spans if s.kind == "shard"]
    runs = [s.dur for s in spans if s.kind == "bench.run"]
    if units:
        m["fleet.unit_ms.p50"] = stats.median(units) / 1e6
        m["fleet.unit_ms.max"] = max(units) / 1e6
    if units and runs:
        m["fleet.worker_busy_share"] = sum(units) / (runs[0] * FLEET_WORKERS)
    fleet = [it["record"]["fleet"] for it in untraced if it["record"]["fleet"]]
    if not fleet:
        return
    cpu = stats.median([it["cpu_s"] for it in untraced])
    m["fleet.setup_cpu_share"] = setup_cpu_s / cpu
    m["fleet.coordinator_cpu_s"] = stats.median([f["coordinator_cpu_s"] for f in fleet])
    for key in ("leases_reclaimed", "grants_redelivered", "worker_deaths"):
        m["fleet." + key] = max(f[key] for f in fleet)


def add_baseline_metrics(m, spans, untraced):
    children = children_of(spans)
    for tool, short in TOOLS:
        runs = [s for s in spans if s.kind == "bench.run" and s.source == tool]
        if runs:
            m["baselines.%s.gen_s" % short] = span_self_ns(runs[0], children) / 1e9
        rates = []
        for it in untraced:
            for c in it["record"]["campaigns"]:
                if c["name"] == tool and c["wall_s"] > 0:
                    rates.append(c["statements"] / c["wall_s"])
        if rates:
            m["baselines.%s.stmts_per_s" % short] = stats.median(rates)


def layer_metrics(workload, traced, untraced, layers_record, oracle_self_s, setup_cpu_s):
    """Every PER_LAYER metric for one traced run.

    traced: {"record", "spans", "walls"} of the traced iterations (spans of
    the last one); untraced: iteration dicts of the untraced iterations run
    alongside; oracle_self_s: {oracle: self seconds} from one traced run per
    oracle; setup_cpu_s: CPU of one setup-mode iteration.
    """
    m = {name: 0.0 for name, _ in PER_LAYER}
    untraced = [it for it in untraced if it["record"]]  # failed ones are gated
    spans = traced["spans"]
    record = traced["record"]
    construct = layers_record["construct_ms"] if layers_record else []
    if construct:
        m["dialects.first_construct_ms"] = construct[0]
        m["dialects.construct_ms"] = stats.median(construct[1:] or construct)
    add_stage_metrics(m, spans)
    if workload in SOFT_WORKLOADS:
        add_soft_metrics(m, record, spans, layers_record)
    if workload == "logic_oracles":
        self_s, total_s = statement_self_s(spans)
        m["oracle.self_s"] = self_s
        m["oracle.self_share"] = self_s / total_s if total_s else 0.0
        for o in ORACLES:
            m["oracle.%s.self_s" % o] = oracle_self_s.get(o, 0.0)
        m["oracle.checks"] = sum(c["logic_checks"] for c in record["campaigns"])
        m["oracle.false_positives"] = sum(
            c["logic_false_positives"] for c in record["campaigns"])
    if workload == "fleet_units":
        add_fleet_metrics(m, spans, untraced, setup_cpu_s)
    if workload == "baseline_tools":
        add_baseline_metrics(m, spans, untraced)
    if untraced:
        untraced_wall = stats.median([it["wall_s"] for it in untraced])
        m["telemetry.trace_overhead_pct"] = (
            (stats.median(traced["walls"]) / untraced_wall - 1.0) * 100.0)
    return m


def notes(m):
    """Table notes for a traced run: which percentile each tail is, and
    each pattern's share of engine execute time."""
    out = {}
    for prefix in ("sqlparser.parse_us", "engine.execute_us"):
        found = stats.tail_percentile(int(m[prefix + ".n"]))
        if found is not None:
            out[prefix + ".tail"] = "p%g of %d samples" % (found[0] * 100, m[prefix + ".n"])
    if m["engine.execute_s"]:
        for p in PATTERNS:
            share = m["engine.execute_s." + p] / m["engine.execute_s"]
            out["engine.execute_s." + p] = "%.1f%% of engine.execute_s" % (share * 100)
    return out
