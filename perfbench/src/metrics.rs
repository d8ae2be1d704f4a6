//! The benchmark's metrics: names, units, and how each is computed from a
//! run's passes. `BENCHMARK.json` lists the same names (a test keeps the
//! two in step).

use crate::passes::Pass;
use ebv_telemetry::Snapshot;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("inputs_per_s", "1/s"),
    ("block_p50_ms", "ms"),
    ("block_p99_ms", "ms"),
    ("status_bytes", "B"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`). A layer that
/// does no work on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("chain.inputs", "count"),
    ("chain.block_bytes", "B"),
    ("chain.decode_s", "s"),
    ("ebv_node.process_block_s", "s"),
    ("ebv_node.ev_s", "s"),
    ("ebv_node.uv_s", "s"),
    ("ebv_node.sv_s", "s"),
    ("ebv_node.commit_s", "s"),
    ("ebv_node.others_s", "s"),
    ("baseline_node.process_block_s", "s"),
    ("baseline_node.dbo_s", "s"),
    ("baseline_node.sv_s", "s"),
    ("baseline_node.others_s", "s"),
    ("sighash.pubkey_cache_lookups", "count"),
    ("sighash.pubkey_cache_hit_ratio", "ratio"),
    ("sighash.batch_sigs", "count"),
    ("sighash.batch_fallback_ratio", "ratio"),
    ("store.fetches", "count"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.disk_reads", "count"),
    ("store.disk_writes", "count"),
    ("store.inserts", "count"),
    ("store.disk_writes_per_insert", "ratio"),
    ("sync.transport_s", "s"),
    ("sync.requests", "count"),
    ("sync.retries", "count"),
    ("net.frame.rx", "count"),
    ("net.frame.rx_bytes", "B"),
    ("workload.generate_s", "s"),
    ("intermediary.convert_s", "s"),
    ("telemetry.overhead_ratio", "ratio"),
    ("trace.dropped", "count"),
    ("block_samples", "count"),
    ("unattributed_s", "s"),
];

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of nothing");
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Wall time the leaf layers leave unexplained.
pub fn unattributed_s(pass: &Pass, transport: bool) -> f64 {
    pass.wall_s - pass.leaves(transport).iter().map(|(_, s)| s).sum::<f64>()
}

/// Each block's latency as the median over the passes that replayed it:
/// every pass replays the same chain, so this filters host noise that hit
/// one pass's copy of a block but not the others.
pub fn per_block_medians(passes: &[Pass]) -> Vec<f64> {
    let blocks = passes
        .iter()
        .map(|p| p.latencies_ms.len())
        .min()
        .unwrap_or(0);
    (0..blocks)
        .map(|i| median(&passes.iter().map(|p| p.latencies_ms[i]).collect::<Vec<_>>()))
        .collect()
}

/// What a run measured, beyond the passes themselves.
pub struct RunFacts {
    pub inputs: u64,
    pub block_bytes: f64,
    pub setup_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    pub convert_s: Vec<f64>,
    pub ebv: bool,
    pub transport: bool,
}

/// The end-to-end metrics over a run's untraced passes.
pub fn end_to_end(facts: &RunFacts, passes: &[Pass], peak_rss_mb: f64) -> BTreeMap<String, f64> {
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| facts.inputs as f64 / p.wall_s)
        .collect();
    let latencies = per_block_medians(passes);
    let last = passes.last().expect("at least one pass");
    let mut out = BTreeMap::new();
    out.insert("inputs_per_s".into(), median(&rates));
    out.insert("block_p50_ms".into(), percentile(&latencies, 0.50));
    out.insert("block_p99_ms".into(), percentile(&latencies, 0.99));
    out.insert("status_bytes".into(), last.end.status_bytes as f64);
    out.insert("peak_rss_mb".into(), peak_rss_mb);
    out.insert("setup_s".into(), median(&facts.setup_s));
    out
}

/// The per-layer metrics of one traced pass. `untraced_wall_s` is the wall
/// of the untraced pass run just before it (for the overhead ratio).
pub fn per_layer(
    facts: &RunFacts,
    pass: &Pass,
    snap: &Snapshot,
    untraced_wall_s: f64,
) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|(n, _)| (n.to_string(), 0.0))
        .collect();
    let mut set = |name: &str, v: f64| {
        let slot = out.get_mut(name).expect("name listed in PER_LAYER");
        *slot = v;
    };
    let counter = |name: &str| snap.counter_value(name).unwrap_or(0) as f64;

    set("chain.inputs", facts.inputs as f64);
    set("chain.block_bytes", facts.block_bytes);
    set("chain.decode_s", pass.decode_s);
    let node = if facts.ebv {
        "ebv_node"
    } else {
        "baseline_node"
    };
    set(&format!("{node}.process_block_s"), pass.node_s);
    for (name, s) in &pass.phases {
        set(name, *s);
    }

    let hits = counter("ebv.pubkey_cache.hits");
    let lookups = hits + counter("ebv.pubkey_cache.misses");
    set("sighash.pubkey_cache_lookups", lookups);
    set("sighash.pubkey_cache_hit_ratio", ratio(hits, lookups));
    let sigs = counter("sv.batch.sigs");
    set("sighash.batch_sigs", sigs);
    set(
        "sighash.batch_fallback_ratio",
        ratio(counter("sv.batch.individual_fallbacks"), sigs),
    );

    if let Some(s) = pass.store {
        set("store.fetches", s.fetches as f64);
        set(
            "store.cache_hit_ratio",
            ratio(s.cache_hits as f64, s.fetches as f64),
        );
        set("store.disk_reads", s.disk_reads as f64);
        set("store.disk_writes", s.disk_writes as f64);
        set("store.inserts", s.inserts as f64);
        set(
            "store.disk_writes_per_insert",
            ratio(s.disk_writes as f64, s.inserts as f64),
        );
    }

    if facts.transport {
        set("sync.transport_s", pass.transport_s());
        set("sync.requests", counter("sync.peer.requests{peer=0}"));
        set("sync.retries", counter("sync.peer.retries{peer=0}"));
        set("net.frame.rx", counter("net.frame.rx"));
        set("net.frame.rx_bytes", counter("net.frame.rx_bytes"));
    }

    set("workload.generate_s", median(&facts.generate_s));
    set("intermediary.convert_s", median(&facts.convert_s));
    set("telemetry.overhead_ratio", pass.wall_s / untraced_wall_s);
    set("trace.dropped", counter("trace.dropped"));
    set("block_samples", pass.latencies_ms.len() as f64);
    set("unattributed_s", unattributed_s(pass, facts.transport));
    out
}
