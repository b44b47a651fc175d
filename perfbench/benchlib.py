"""Statistics, span analysis and metric assembly for the vcsearch benchmark.

Pure functions over the raw JSON that ``vcbench`` writes; ``run.py`` calls
them and ``test_benchlib.py`` tests them.  Nothing here touches the program
under test.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10

# The speed probe's cost of one 1024-bit modexp, in ns, that end-to-end
# timings are scaled to (about the median probe reading on the 4-vCPU VM
# the bounds were set on).  See host_slowdown().
REF_PROBE_NS = 600_000.0


class BenchError(Exception):
    """The run cannot yield a trustworthy metric."""


# ---------------------------------------------------------------------------
# Percentiles


def median(values):
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not values:
        raise BenchError("percentile of no samples")
    if not 0 < q < 100:
        raise BenchError(f"percentile {q} outside (0, 100)")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie strictly above the nearest-rank q-th
    percentile's position."""
    return n - math.ceil(q / 100.0 * n)


def tail_percentile(values, q):
    """percentile(values, q), refusing a tail estimated from fewer than
    MIN_BEYOND samples beyond it."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise BenchError(
            f"p{q:g} of {len(values)} samples has {beyond} beyond it, "
            f"needs {MIN_BEYOND}")
    return percentile(values, q)


# ---------------------------------------------------------------------------
# Spans: [name, start_ns, end_ns, id, parent_id, request]


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Maps span id -> self time in ns: the span's duration minus the part of
    its interval that the union of its children covers."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)
    out = {}
    for name, start, end, sid, _parent, _req in spans:
        clipped = [(max(c[1], start), min(c[2], end)) for c in children.get(sid, [])]
        out[sid] = (end - start) - union_length(clipped)
    return out


def span_durations_ms(spans, name):
    return [(s[2] - s[1]) * 1e-6 for s in spans if s[0] == name]


def layer_of(span_name):
    return span_name.split(".", 1)[0] if "." in span_name else "bench"


def self_time_table(spans, requests):
    """Rows (layer, span name, count, self ms per request, total ms per
    request), sorted by self time, plus per-layer self-time totals."""
    self_ns = self_times(spans)
    rows = {}
    for s in spans:
        row = rows.setdefault(s[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += self_ns[s[3]]
        row[2] += s[2] - s[1]
    per = max(requests, 1)
    table = sorted(
        ((layer_of(n), n, c, selfns * 1e-6 / per, tot * 1e-6 / per)
         for n, (c, selfns, tot) in rows.items()),
        key=lambda r: -r[3])
    layers = {}
    for layer, _n, _c, self_ms, _t in table:
        layers[layer] = layers.get(layer, 0.0) + self_ms
    return table, layers


def render_table(table, layers, requests):
    lines = [f"# self time per request over {requests} requests (ms)",
             f"{'layer':<10} {'span':<28} {'count':>7} {'self':>10} {'total':>10}"]
    for layer, name, count, self_ms, total_ms in table:
        lines.append(f"{layer:<10} {name:<28} {count:>7} {self_ms:>10.4f} {total_ms:>10.4f}")
    lines.append("")
    lines.append(f"{'layer':<10} {'self':>10}")
    for layer, self_ms in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<10} {self_ms:>10.4f}")
    return "\n".join(lines) + "\n"


def chrome_trace(spans):
    """Chrome trace_event JSON (chrome://tracing, Perfetto) for the spans."""
    events = []
    for name, start, end, sid, parent, req in spans:
        events.append({
            "name": name, "cat": layer_of(name), "ph": "X",
            "ts": start / 1000.0, "dur": (end - start) / 1000.0,
            "pid": 1, "tid": sid >> 40,
            "args": {"request": req, "id": sid, "parent": parent},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# Metrics


def validate_metric(name, unit):
    if not NAME_RE.match(name):
        raise BenchError(f"invalid metric name {name!r}")
    if not UNIT_RE.match(unit):
        raise BenchError(f"invalid unit {unit!r} for {name}")


def _ratio(num, den):
    return num / den if den else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def host_slowdown(probes, start_ms, end_ms):
    """How much slower than REF_PROBE_NS the host ran the speed probe
    between start_ms and end_ms: the mean over every probe reading and CPU.

    On a shared host the same work runs up to ~1.8x slower while other
    guests load the physical cores under this machine's CPUs; the share of
    time spent so moves from run to run.  The probe samples it between
    requests, so dividing a run's timings by its slowdown compares runs at
    one host speed."""
    readings = [ns for t, row in zip(probes["t_ms"], probes["wall_ns"])
                if start_ms <= t <= end_ms for ns in row]
    if not readings:
        raise BenchError(f"no speed probe reading between {start_ms} and {end_ms} ms")
    return _mean(readings) / REF_PROBE_NS


def _self_scaled(times, cal_ns):
    """Each time scaled by REF_PROBE_NS over the modexp time its own thread
    measured around it."""
    return [x * REF_PROBE_NS / cal for x, cal in zip(times, cal_ns)]


def timed_slowdown(raw):
    """host_slowdown() over the untraced timed phase."""
    t = raw["timed"]
    return host_slowdown(raw["probes"], t["start_ms"], t["start_ms"] + t["wall_s"] * 1000.0)


def end_to_end(raw):
    """Every end-to-end metric, as (value, unit), from an untraced run.
    Timings are scaled to the reference host speed: those of the timed phase
    by its host_slowdown, the verify and the owner's publish by their own
    thread's modexp time.  Set-up time is as measured."""
    t = raw["timed"]
    if not t["rt_ms"]:
        raise BenchError("no verified request in the timed phase")
    slow = timed_slowdown(raw)
    owner = t if raw["workload"] == "update_stream" else raw["updates"]
    busy_s = t["wall_s"] - t["probe_s"]
    return {
        "setup_s": (raw["setup_s"], "s"),
        "query_p50_ms": (median(t["rt_ms"]) / slow, "ms"),
        "query_p90_ms": (tail_percentile(t["rt_ms"], 90) / slow, "ms"),
        "throughput_qps": (t["verified"] / busy_s * slow, "1/s"),
        # The verify and the owner's publish each run on one thread alone:
        # each is scaled by that thread's own modexp time around it.
        "verify_p50_ms": (median(_self_scaled(t["verify_ms"], t["verify_cal_ns"])), "ms"),
        "cpu_ms_per_query": (
            (t["proc_cpu_s"] - t["client_cpu_s"] - t["probe_cpu_s"]) * 1000.0
            / t["requests"] / slow, "ms"),
        "response_kb": (_mean(t["resp_bytes"]) / 1024.0, "KiB"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MiB"),
        "publish_p50_ms": (
            median(_self_scaled(owner["publish_ms"], owner["publish_cal_ns"])), "ms"),
        "store_mb": (raw["store_bytes"] / (1024.0 * 1024.0), "MiB"),
    }


def _span_p50(spans, name, scale=1.0):
    """Median duration of the named spans in ms (times scale); 0 when the
    run made no such call."""
    d = span_durations_ms(spans, name)
    return median(d) * scale if d else 0.0


def per_layer(raw):
    """Every per-layer metric, as (value, unit), from a traced run."""
    t = raw["timed"]
    tr = raw["traced"]
    spans = raw["spans"]
    c = t["counters"]
    last = t["last_round"]
    layer = raw["layer"]
    req = max(t["requests"], 1)
    update = raw["workload"] == "update_stream"

    # Prover time per replayed request; a request the engine answers
    # without the Prover (single keyword, gap proof) spends 0 there.
    prove = {s[5]: 0 for s in spans if s[0] == "protocol.handle"}
    for s in spans:
        if s[0] == "proof.prove" and s[5] in prove:
            prove[s[5]] += s[2] - s[1]

    rt = {s[5]: s[2] - s[1] for s in spans if s[0] == "protocol.round_trip"}
    handle = {s[5]: s[2] - s[1] for s in spans if s[0] == "protocol.handle"}
    transport = [(rt[r] - handle[r]) * 1e-6 for r in rt if r in handle]

    owner = t if update else raw["updates"]  # the phase with the owner's updates
    open_ms = _span_p50(spans, "store.open") if update else layer["open_ms"]
    first = (median(t["first_after_swap_ms"]) if update and t["first_after_swap_ms"]
             else raw["first_query_ms"])
    return {
        "bigint.pow_per_query": (c["pow"] / req, "count"),
        "bigint.fixedbase_hit_rate": (
            _ratio(c["fixedbase_hit"], c["fixedbase_hit"] + c["fixedbase_miss"]), "ratio"),
        "primes.miss_per_query": (c["prime_miss"] / req, "count"),
        "proof.prove_p50_ms": (
            median([v * 1e-6 for v in prove.values()]) if prove else 0.0, "ms"),
        "search.search_p50_ms": (_span_p50(spans, "search.search"), "ms"),
        "search.execute_p50_us": (_span_p50(spans, "search.execute", 1000.0), "us"),
        "proof.hybrid_bloom_share": (
            _ratio(c["hybrid_bloom"], c["hybrid_bloom"] + c["hybrid_accumulator"]), "ratio"),
        "proof.hybrid_est_ratio": (
            _ratio(c["hybrid_estimated_s"], c["hybrid_actual_s"]), "ratio"),
        "protocol.handle_p50_ms": (_span_p50(spans, "protocol.handle"), "ms"),
        "protocol.transport_p50_ms": (median(transport) if transport else 0.0, "ms"),
        "protocol.response_encode_p50_us": (
            _span_p50(spans, "protocol.response_encode", 1000.0), "us"),
        "protocol.response_decode_p50_us": (
            _span_p50(spans, "protocol.response_decode", 1000.0), "us"),
        "crypto.sign_p50_us": (_span_p50(spans, "crypto.sign", 1000.0), "us"),
        "vindex.add_documents_p50_ms": (_span_p50(spans, "vindex.add_documents"), "ms"),
        "vindex.publish_delta_p50_ms": (_span_p50(spans, "vindex.publish_delta"), "ms"),
        "vindex.touched_terms_per_round": (_mean(owner["touched_terms"]), "count"),
        "store.publish_delta_p50_ms": (_span_p50(spans, "store.publish_delta"), "ms"),
        "store.open_p50_ms": (open_ms, "ms"),
        "store.compact_p50_ms": (_span_p50(spans, "store.compact"), "ms"),
        "store.delta_kb_per_round": (_mean(owner["delta_bytes"]) / 1024.0, "KiB"),
        "protocol.swap_p50_ms": (_span_p50(spans, "protocol.swap"), "ms"),
        "vindex.tier_hit_rate": (
            _ratio(c["tier_hit"], c["tier_hit"] + c["tier_miss"]), "ratio"),
        "vindex.tier_hit_rate_last_round": (
            _ratio(last["tier_hit"], last["tier_hit"] + last["tier_miss"]), "ratio"),
        "protocol.first_query_after_swap_ms": (first, "ms"),
        "vindex.build_s": (layer["build_s"], "s"),
        "vindex.tier_build_s": (layer["tier_build_s"], "s"),
        "index.invert_s": (layer["invert_s"], "s"),
        "bench.trace_overhead_pct": (
            (median(tr["rt_ms"]) / median(t["rt_ms"]) - 1.0) * 100.0, "%"),
    }


def cpu_ticks(stat_text):
    """(steal, total) jiffies from the aggregate "cpu" line of /proc/stat."""
    for line in stat_text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            ticks = [int(x) for x in fields[1:9]]  # user .. steal; guest is inside user
            return ticks[7] if len(ticks) > 7 else 0, sum(ticks)
    raise BenchError("no aggregate cpu line in /proc/stat")


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests between two
    cpu_ticks() readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def layer_order_violations(prove_ms, handle_ms, query_ms):
    """The ways prove <= handle <= query (medians, ms) fails, as messages:
    the Prover runs inside CloudService::handle, which runs inside the
    client's round trip."""
    out = []
    if prove_ms > handle_ms:
        out.append(f"proof.prove_p50_ms {prove_ms:.3f} > protocol.handle_p50_ms {handle_ms:.3f}")
    if handle_ms > query_ms:
        out.append(f"protocol.handle_p50_ms {handle_ms:.3f} > query_p50_ms {query_ms:.3f}")
    return out


def result_line(raw, metrics):
    """The benchmark's one-line verdict object."""
    out = {}
    for name, (value, unit) in metrics.items():
        validate_metric(name, unit)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {name} is not a finite number: {value!r}")
        out[name] = {"value": value, "unit": unit}
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    return {
        "correct": failed == 0 and attempted >= 1,
        "attempted": max(attempted, 1),
        "failed": failed if attempted >= 1 else 1,
        "metrics": out,
    }
