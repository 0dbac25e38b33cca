//! Turns what a window recorded — client timings, server counters pulled
//! over `GET_METRICS`, `/proc` CPU — into the named metrics.

use std::collections::BTreeMap;

use shadowfax_obs::{HistogramSnapshot, MetricsSnapshot};

use crate::driver::Window;
use crate::procs::{clock_ticks_per_sec, CpuSample};

/// Metrics in output order: name, value, unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1] as f64
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Server counters and histograms over a window, summed across processes.
pub struct ServerDelta {
    before: Vec<MetricsSnapshot>,
    after: Vec<MetricsSnapshot>,
}

impl ServerDelta {
    pub fn new(before: Vec<MetricsSnapshot>, after: Vec<MetricsSnapshot>) -> Self {
        ServerDelta { before, after }
    }

    /// Growth of every counter whose name ends with `suffix`.
    pub fn counter(&self, suffix: &str) -> f64 {
        let sum = |snaps: &[MetricsSnapshot]| -> u64 {
            snaps.iter().map(|s| s.counter_family(suffix)).sum()
        };
        sum(&self.after).saturating_sub(sum(&self.before)) as f64
    }

    /// Samples a histogram gained over the window, merged across processes.
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        let mut buckets: BTreeMap<u32, i64> = BTreeMap::new();
        let (mut count, mut max_ns) = (0i64, 0u64);
        for (snaps, sign) in [(&self.after, 1i64), (&self.before, -1i64)] {
            for h in snaps.iter().filter_map(|s| s.histogram(name)) {
                count += sign * h.count as i64;
                max_ns = max_ns.max(h.max_ns);
                for &(idx, c) in &h.buckets {
                    *buckets.entry(idx).or_default() += sign * c as i64;
                }
            }
        }
        HistogramSnapshot {
            name: name.to_string(),
            count: count.max(0) as u64,
            total_ns: 0,
            max_ns,
            buckets: buckets
                .into_iter()
                .filter(|&(_, c)| c > 0)
                .map(|(idx, c)| (idx, c as u64))
                .collect(),
        }
    }

    /// The migration phases the source recorded for migrations that
    /// started inside the window, as `(phase, milliseconds)`.
    pub fn migration_phases(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (before, after) in self.before.iter().zip(&self.after) {
            let mut by_id: BTreeMap<u64, Vec<(u64, &str)>> = BTreeMap::new();
            for e in after.events.iter().filter(|e| e.name == "migration.phase") {
                by_id
                    .entry(e.id)
                    .or_default()
                    .push((e.at_micros, e.label.as_str()));
            }
            let old: std::collections::BTreeSet<u64> = before.events.iter().map(|e| e.id).collect();
            for (id, mut events) in by_id {
                if old.contains(&id) {
                    continue;
                }
                events.sort_by_key(|&(at, _)| at);
                for pair in events.windows(2) {
                    let ms = (pair[1].0 - pair[0].0) as f64 / 1000.0;
                    out.push((pair[0].1.to_string(), ms));
                }
            }
        }
        out
    }
}

/// What one measured window produced.
pub struct Measured {
    pub win: Window,
    pub server: ServerDelta,
    /// Server CPU at the window's start and end.
    pub cpu: (CpuSample, CpuSample),
    /// Growth of the client's counters over the window: ops issued,
    /// batches sent, bytes sent, batches rejected, ops re-routed.
    pub sessions: [f64; 5],
}

/// The per-layer metrics of a traced window.  Metrics that only migration
/// moves are left out while no migrating workload is in `BENCHMARK.json`
/// (they would read 0 on every run); [`migration_summary`] reports them.
pub fn per_layer(m: &mut Measured, untraced_ops_per_s: f64) -> Metrics {
    let (win, s, (c0, c1)) = (&mut m.win, &m.server, m.cpu);
    let [session_ops, session_batches, session_bytes, ..] = m.sessions;
    let secs = win.seconds();
    let ops = win.completed as f64;
    let hz = clock_ticks_per_sec();
    let cpu_frac = |ticks: u64, threads: u64| ratio(ticks as f64 / hz, secs * threads as f64);
    let batch = s.histogram("rpc.latency.read");
    let user_bytes = win.user_bytes as f64;
    let (mut wait, mut pickup): (Vec<u64>, Vec<u64>) = win
        .trace
        .as_ref()
        .map(|t| {
            t.ops
                .iter()
                .map(|o| (o.wait_ns as u64, o.pickup_ns as u64))
                .unzip()
        })
        .unwrap_or_default();
    let in_place = s.counter(".store.in_place_updates");
    vec![
        (
            "net.client.issue_ns_per_op",
            ratio(win.issue_ns as f64, ops),
            "ns",
        ),
        (
            "net.client.flush_ns_per_op",
            ratio(win.flush_ns as f64, ops),
            "ns",
        ),
        (
            "net.client.poll_ns_per_op",
            ratio(win.poll_ns as f64, ops),
            "ns",
        ),
        (
            "net.session.ops_per_batch",
            ratio(session_ops, session_batches),
            "ops",
        ),
        (
            "net.session.bytes_per_op",
            ratio(session_bytes, session_ops),
            "B",
        ),
        (
            "net.session.inflight_max",
            win.inflight_max as f64,
            "batches",
        ),
        ("rpc.server.batch_p50_us", batch.p50_ns() as f64 / 1e3, "us"),
        ("rpc.server.batch_p99_us", batch.p99_ns() as f64 / 1e3, "us"),
        (
            "rpc.io.cpu_frac",
            cpu_frac(c1.io_ticks.saturating_sub(c0.io_ticks), c1.io_threads),
            "ratio",
        ),
        (
            "core.dispatch.cpu_frac",
            cpu_frac(
                c1.dispatch_ticks.saturating_sub(c0.dispatch_ticks),
                c1.dispatch_threads,
            ),
            "ratio",
        ),
        (
            "faster.inplace_frac",
            ratio(in_place, in_place + s.counter(".store.rcu_appends")),
            "ratio",
        ),
        (
            "faster.stable_read_frac",
            ratio(s.counter(".store.stable_reads"), s.counter(".store.reads")),
            "ratio",
        ),
        (
            "hlog.flush_bytes_per_user_byte",
            ratio(s.counter(".ssd.bytes_written"), user_bytes),
            "B/B",
        ),
        (
            "storage.ssd.reads_per_op",
            ratio(s.counter(".ssd.reads"), ops),
            "count/op",
        ),
        (
            "storage.ssd.read_bytes_per_op",
            ratio(s.counter(".ssd.bytes_read"), ops),
            "B/op",
        ),
        (
            "storage.tier.bytes_written_per_user_byte",
            ratio(s.counter("tier.shared.bytes_written"), user_bytes),
            "B/B",
        ),
        (
            "proc.cpu_s_per_mop",
            ratio(
                c1.total_ticks.saturating_sub(c0.total_ticks) as f64 / hz,
                ops / 1e6,
            ),
            "s/Mop",
        ),
        (
            "bench.gen.late_p99_us",
            percentile(&mut win.late_ns, 99.0) / 1e3,
            "us",
        ),
        (
            "bench.trace.overhead_ops_per_s",
            untraced_ops_per_s - win.ops_per_s(),
            "1/s",
        ),
        (
            "bench.trace.op_wait_p50_us",
            percentile(&mut wait, 50.0) / 1e3,
            "us",
        ),
        (
            "bench.trace.op_pickup_p50_us",
            percentile(&mut pickup, 50.0) / 1e3,
            "us",
        ),
        (
            "bench.read_p99_us",
            percentile(&mut win.read_ns, 99.0) / 1e3,
            "us",
        ),
        (
            "bench.write_p99_us",
            percentile(&mut win.write_ns, 99.0) / 1e3,
            "us",
        ),
    ]
}

/// What migration did over a window of `ops` completed operations, for
/// the diagnostics of the migrating workloads.
pub fn migration_summary(s: &ServerDelta, ops: f64) -> String {
    let phases = s.migration_phases();
    let phase_ms = |label: &str| {
        let v: Vec<f64> = phases
            .iter()
            .filter(|(l, _)| l == label)
            .map(|&(_, ms)| ms)
            .collect();
        median(&v)
    };
    let per_mop = |suffix: &str| ratio(s.counter(suffix), ops / 1e6);
    format!(
        "phases sampling/prepare/transfer/migrate {:.1}/{:.1}/{:.1}/{:.1} ms, \
         cancelled {}, chain fetches {:.0}/Mop (p50 {:.1} us, {:.2} records each), \
         indirection fetches {:.0}/Mop, pended {:.4} of ops",
        phase_ms("sampling"),
        phase_ms("prepare"),
        phase_ms("transfer"),
        phase_ms("migrate"),
        s.counter(".migration.cancelled"),
        per_mop(".chain.remote_fetches"),
        s.histogram("rpc.latency.chain_fetch").p50_ns() as f64 / 1e3,
        ratio(
            s.counter("tier.chain.records_served"),
            s.counter("tier.chain.served")
        ),
        per_mop(".indirection.fetches"),
        ratio(s.counter(".ops.pended_total"), ops),
    )
}

/// The end-to-end metrics of the untraced windows of a run: each rate and
/// latency is the median over the windows, so one window that met a noisy
/// host or an unlucky thread placement does not decide the run.
///
/// The tail is p90: on a 2-vCPU virtual machine the host preempts a vCPU
/// for milliseconds several times a second, and how many of those stalls a
/// run meets moved p99 by 20-200% between identical runs.  The traced run
/// reports p99.
pub fn end_to_end(windows: &mut [Window], setup_s: f64, rss_mb: f64) -> Metrics {
    let mut per_window = |f: &mut dyn FnMut(&mut Window) -> f64| -> f64 {
        median(&windows.iter_mut().map(&mut *f).collect::<Vec<_>>())
    };
    let ops_per_s = per_window(&mut |w| w.ops_per_s());
    let read_p50 = per_window(&mut |w| percentile(&mut w.read_ns, 50.0) / 1e3);
    let read_p90 = per_window(&mut |w| percentile(&mut w.read_ns, 90.0) / 1e3);
    let write_p50 = per_window(&mut |w| percentile(&mut w.write_ns, 50.0) / 1e3);
    let write_p90 = per_window(&mut |w| percentile(&mut w.write_ns, 90.0) / 1e3);
    let reads: usize = windows.iter().map(|w| w.read_ns.len()).sum();
    let writes: usize = windows.iter().map(|w| w.write_ns.len()).sum();
    vec![
        ("setup_s", setup_s, "s"),
        ("ops_per_s", ops_per_s, "1/s"),
        ("read_p50_us", read_p50, "us"),
        ("read_p90_us", read_p90, "us"),
        ("write_p50_us", write_p50, "us"),
        ("write_p90_us", write_p90, "us"),
        ("read_n", reads as f64, "count"),
        ("write_n", writes as f64, "count"),
        ("server_rss_mb", rss_mb, "MB"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut [], 99.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
