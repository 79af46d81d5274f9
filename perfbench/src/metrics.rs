//! Metrics from pass results: the end-to-end set of a plain run and the
//! per-layer set of a traced run, plus the two ledger reconciliations.

use telemetry::COMPONENTS;

use crate::pass::PassResult;
use crate::probe::peak_rss_mb;
use crate::workload::{DesignKind, DESIGNS};

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    let name = name.into();
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    Metric { name, value, unit }
}

/// `num / den`, or `empty` when nothing was counted.
fn ratio(num: f64, den: f64, empty: f64) -> f64 {
    if den == 0.0 {
        empty
    } else {
        num / den
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` of sorted `xs`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Largest allowed gap between a ledger and the interval it splits.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// Relative gap of the set-up split: `|setup - (cluster_new + build)|`
/// over `setup`, where `setup` is timed as one interval and the two
/// parts by their own timers.
pub fn setup_gap(p: &PassResult) -> f64 {
    let h = &p.host;
    let parts = (h.cluster_new_ns + h.build_ns) as f64;
    (h.setup_ns as f64 - parts).abs() / h.setup_ns.max(1) as f64
}

/// The window's host-time ledger of a timed pass: `(ycsb gen, core
/// polls, simnet residual, window wall)` in ns. The residual is the
/// window's `run_until` wall time outside the client tasks: the executor,
/// server-side tasks, and the timers' own overhead. The benchmark's
/// bookkeeping inside the client tasks belongs to none of the three
/// layers; it is the gap the reconciliation bounds.
pub fn ledger(p: &PassResult) -> (u64, u64, u64, u64) {
    let t = p.timing.as_ref().expect("ledger of a timed pass");
    let wall = p.host.window_ns;
    let tasks = t.gen_ns + t.core_poll_ns + t.bench_ns;
    (t.gen_ns, t.core_poll_ns, wall.saturating_sub(tasks), wall)
}

/// Relative gap between the three-layer ledger and the window wall, as
/// the median over the window's slices: a burst of host interference that
/// lands inside the benchmark's own bookkeeping spoils one slice, not the
/// check. With no client time outside the three layers the gap is the
/// bookkeeping's share of the wall.
pub fn ledger_gap(p: &PassResult) -> f64 {
    let gaps: Vec<f64> = p
        .host
        .slices
        .iter()
        .map(|s| {
            let [gen, core, bench] = s.ledger;
            let residual = s.wall_ns.saturating_sub(gen + core + bench);
            (s.wall_ns as f64 - (gen + core + residual) as f64).abs() / s.wall_ns.max(1) as f64
        })
        .collect();
    median(&gaps)
}

/// Host (on-CPU) µs per completed op: the median over `passes`' window
/// slices.
pub fn host_us_per_op<'a>(passes: impl Iterator<Item = &'a PassResult>) -> f64 {
    let per_op: Vec<f64> = passes
        .flat_map(|p| &p.host.slices)
        .filter(|s| s.completed > 0)
        .map(|s| s.cpu_ns as f64 / 1e3 / s.completed as f64)
        .collect();
    median(&per_op)
}

/// End-to-end metrics of a plain run. `rounds[r][d]` is round `r`'s pass
/// of `DESIGNS[d]`; every round repeats the same seed, so the simulated
/// numbers come from round 0 and the host numbers are medians over
/// rounds (set-up) or over the window slices of all rounds (per op).
pub fn end_to_end(rounds: &[Vec<PassResult>]) -> Vec<Metric> {
    let mut out = Vec::new();
    for (d, kind) in DESIGNS.iter().enumerate() {
        let tag = kind.tag();
        let sim = &rounds[0][d].sim;
        let window_s = sim.window_ns as f64 / 1e9;
        out.push(metric(
            format!("sim_mops.{tag}"),
            sim.completed() as f64 / window_s / 1e6,
            "Mops/sim_s",
        ));
        out.push(metric(
            format!("sim_p99_us.{tag}"),
            percentile(&sim.latencies, 0.99) as f64 / 1e3,
            "us_virtual",
        ));
        out.push(metric(
            format!("host_us_per_op.{tag}"),
            host_us_per_op(rounds.iter().map(|r| &r[d])),
            "us",
        ));
    }
    let setup: Vec<f64> = rounds
        .iter()
        .map(|r| r.iter().map(|p| p.host.setup_ns as f64 / 1e9).sum())
        .collect();
    out.push(metric("setup_s", median(&setup), "s"));
    out.push(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
    let (good, attempted) = rounds[0].iter().fold((0, 0), |(g, a), p| {
        let s = &p.sim;
        (g + s.attempted - s.errors - s.wrong, a + s.attempted)
    });
    out.push(metric(
        "op_ok_ratio",
        ratio(good as f64, attempted as f64, 0.0),
        "ratio",
    ));
    out
}

/// Per-layer metrics of a traced run: `plain[d]`, `timed[d]` and
/// `counted[d]` are the three passes of `DESIGNS[d]` with the same seed.
/// Set-up and memory numbers come from the plain pass, host time from the
/// timed pass, everything else from the counted pass.
pub fn per_layer(
    plain: &[PassResult],
    timed: &[PassResult],
    counted: &[PassResult],
) -> Vec<Metric> {
    let mut out = Vec::new();
    let ops = |p: &PassResult| p.sim.attempted as f64;
    let tr = |p: &PassResult| p.timing.clone().expect("timed pass");
    let cn = |p: &PassResult| p.counts.clone().expect("counted pass");

    out.push(metric(
        "ycsb.gen_ns_per_op",
        ratio(
            timed.iter().map(|p| tr(p).gen_ns as f64).sum(),
            timed.iter().map(ops).sum(),
            0.0,
        ),
        "ns/op",
    ));
    for (d, kind) in DESIGNS.iter().enumerate() {
        let (p, tag) = (&timed[d], kind.tag());
        let t = tr(p);
        let n = ops(p);
        let (_, _, residual, _) = ledger(p);
        out.push(metric(
            format!("core.poll_ns_per_op.{tag}"),
            ratio(t.core_poll_ns as f64, n, 0.0),
            "ns/op",
        ));
        out.push(metric(
            format!("simnet.residual_ns_per_event.{tag}"),
            ratio(residual as f64, p.sim.events as f64, 0.0),
            "ns/event",
        ));
        out.push(metric(
            format!("simnet.events_per_op.{tag}"),
            ratio(p.sim.events as f64, n, 0.0),
            "events/op",
        ));
        out.push(metric(
            format!("racecheck.ns_per_op.{tag}"),
            ratio(t.race_ns as f64, n, 0.0),
            "ns/op",
        ));
        let race = p.sim.race.unwrap_or_default();
        out.push(metric(
            format!("racecheck.reads_checked_per_op.{tag}"),
            ratio(race.reads_checked as f64, n, 0.0),
            "reads/op",
        ));
    }
    // Racy read windows the detector closed by a validation edge, over
    // all it closed: a violation is a window that closed without one.
    let (validated, violations) = counted.iter().fold((0, 0), |(v, x), p| {
        let r = p.sim.race_total.unwrap_or_default();
        (v + r.validated, x + r.violations)
    });
    out.push(metric(
        "racecheck.validated_ratio",
        ratio(validated as f64, (validated + violations) as f64, 1.0),
        "ratio",
    ));

    out.push(metric(
        "nam.cluster_new_s",
        plain
            .iter()
            .map(|p| p.host.cluster_new_ns as f64 / 1e9)
            .sum(),
        "s",
    ));
    for (d, kind) in DESIGNS.iter().enumerate() {
        let h = &plain[d].host;
        out.push(metric(
            format!("core.build_s.{}", kind.tag()),
            h.build_ns as f64 / 1e9,
            "s",
        ));
    }
    out.push(metric(
        "rdma.pool_mb",
        plain.iter().map(|p| p.host.pool_bytes).max().unwrap_or(0) as f64 / (1 << 20) as f64,
        "MiB",
    ));
    for (d, kind) in DESIGNS.iter().enumerate() {
        let h = &plain[d].host;
        out.push(metric(
            format!("mem.build_mb.{}", kind.tag()),
            h.rss_built_mb - h.rss_start_mb,
            "MiB",
        ));
        out.push(metric(
            format!("mem.run_growth_mb.{}", kind.tag()),
            h.rss_end_mb - h.rss_built_mb,
            "MiB",
        ));
    }

    for (d, kind) in DESIGNS.iter().enumerate() {
        let (p, tag) = (&counted[d], kind.tag());
        let (c, n, s) = (cn(p), ops(p), &p.sim);
        let window = s.window_ns as f64;
        let total =
            |f: &dyn Fn(&rdma_sim::ServerStats) -> u64| s.servers.iter().map(f).sum::<u64>() as f64;
        let busiest = |f: &dyn Fn(&rdma_sim::ServerStats) -> u64| {
            s.servers.iter().map(f).max().unwrap_or(0) as f64
        };
        out.push(metric(
            format!("rdma.onesided_per_op.{tag}"),
            ratio(total(&|x| x.onesided_ops), n, 0.0),
            "verbs/op",
        ));
        out.push(metric(
            format!("rdma.rpcs_per_op.{tag}"),
            ratio(total(&|x| x.rpcs), n, 0.0),
            "rpcs/op",
        ));
        out.push(metric(
            format!("rdma.wire_kb_per_op.{tag}"),
            ratio(total(&|x| x.bytes_in + x.bytes_out) / 1024.0, n, 0.0),
            "KiB/op",
        ));
        out.push(metric(
            format!("rdma.cpu_util_max.{tag}"),
            busiest(&|x| x.cpu_busy_nanos) / (window * p.host.rpc_cores as f64),
            "ratio",
        ));
        out.push(metric(
            format!("rdma.nic_util_max.{tag}"),
            busiest(&|x| x.nic_busy_nanos) / window,
            "ratio",
        ));
        out.push(metric(
            format!("rdma.cas_per_op.{tag}"),
            ratio(c.cas as f64, n, 0.0),
            "verbs/op",
        ));
        out.push(metric(
            format!("rdma.alloc_per_kop.{tag}"),
            ratio(c.alloc as f64 * 1e3, n, 0.0),
            "allocs/kop",
        ));
    }
    let (checkouts, reuses) = counted
        .iter()
        .fold((0, 0), |(c, r), p| (c + p.sim.arena.0, r + p.sim.arena.1));
    out.push(metric(
        "rdma.arena_reuse_ratio",
        ratio(reuses as f64, checkouts as f64, 0.0),
        "ratio",
    ));

    for (d, kind) in DESIGNS.iter().enumerate() {
        let components = cn(&counted[d]).components;
        let total: f64 = components.iter().sum();
        for (c, ns) in COMPONENTS.iter().zip(components) {
            out.push(metric(
                format!("telemetry.{}_share.{}", c.label(), kind.tag()),
                ratio(ns, total, 0.0),
                "ratio",
            ));
        }
    }

    let learned = counted
        .iter()
        .zip(DESIGNS)
        .find(|(_, k)| *k == DesignKind::Learned)
        .map(|(p, _)| p)
        .expect("learned pass");
    let l = learned.sim.learned.unwrap_or_default();
    out.push(metric(
        "learned.mispredict_ratio",
        ratio(l.mispredicts as f64, l.predictions as f64, 0.0),
        "ratio",
    ));
    out.push(metric(
        "learned.retrains_per_kop",
        ratio(l.retrains as f64 * 1e3, ops(learned), 0.0),
        "retrains/kop",
    ));
    out.push(metric(
        "learned.fallback_ratio",
        ratio(
            l.fallbacks as f64,
            (l.predictions + l.fallbacks) as f64,
            0.0,
        ),
        "ratio",
    ));

    let wal = |f: &dyn Fn(&rdma_sim::WalStats) -> u64| {
        counted
            .iter()
            .flat_map(|p| p.sim.wal.iter().map(f))
            .sum::<u64>() as f64
    };
    let inserts: f64 = counted.iter().map(|p| p.sim.inserts_in_window as f64).sum();
    let flushes = wal(&|w| w.device_flushes);
    out.push(metric(
        "wal.flushes_per_kinsert",
        ratio(flushes * 1e3, inserts, 0.0),
        "flushes/kinsert",
    ));
    out.push(metric(
        "wal.records_per_flush",
        ratio(wal(&|w| w.records_flushed), flushes, 0.0),
        "records/flush",
    ));
    out.push(metric(
        "wal.bytes_per_insert",
        ratio(wal(&|w| w.flushed_bytes), inserts, 0.0),
        "B/insert",
    ));
    out.push(metric(
        "wal.device_util",
        counted
            .iter()
            .flat_map(|p| {
                let window = p.sim.window_ns as f64;
                p.sim
                    .wal
                    .iter()
                    .map(move |w| w.device_busy_nanos as f64 / window)
            })
            .fold(0.0, f64::max),
        "ratio",
    ));

    out.push(metric(
        "trace.overhead_ratio",
        ratio(
            timed.iter().map(|p| p.host.window_ns as f64).sum(),
            plain.iter().map(|p| p.host.window_ns as f64).sum(),
            0.0,
        ),
        "ratio",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&xs, 0.99), 990);
        assert_eq!(percentile(&xs, 1.0), 1000);
        assert_eq!(percentile(&[7], 0.99), 7);
    }
}
