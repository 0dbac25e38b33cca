//! Load generator of the repository benchmark.
//!
//! ```text
//! shadowfax-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                     --server-bin PATH [--out DIR]
//! ```
//!
//! Starts `shadowfax-server` processes, drives one workload over loopback
//! TCP from one client thread, and measures every layer from outside: it
//! times its own calls into `RemoteClient`/`CtrlClient`, pulls the servers'
//! counters over `GET_METRICS`, and reads per-thread CPU from `/proc`.
//! After the run it reads every key back and checks it against the writes
//! the servers acknowledged.
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones).  The exit code is non-zero when the correctness check,
//! a regime guard or the liveness guard fails.

mod driver;
mod procs;
mod report;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use shadowfax_net::SessionConfig;
use shadowfax_obs::MetricsSnapshot;
use shadowfax_rpc::{CtrlClient, RemoteClient, RemoteClientConfig};
use shadowfax_workload::{WorkloadConfig, WorkloadGenerator, WorkloadMix};

use driver::{Gen, Ticker, Window};
use procs::Cluster;
use report::{median, Measured, Metrics, ServerDelta};

/// The servers fix `table_bits = 12`; their hash index panics with "overflow
/// pool exhausted" at about 24k distinct keys.  Preloads stay below this.
const MAX_KEYS: u64 = 20_000;

/// Set-ups per run; `setup_s` is their median.  An untraced run measures
/// one window on each.
const SETUPS: usize = 5;

/// Hard limit on one run, set-ups included.
const RUN_DEADLINE: Duration = Duration::from_secs(150);

/// Migrating workloads start a migration this long into the window, and
/// `rebalance` another one every this often after that.
const MIGRATE_EVERY: Duration = Duration::from_secs(1);

#[derive(Clone, Copy)]
enum Load {
    /// Keep this many operations outstanding.
    Closed { outstanding: u64 },
    /// Issue this many operations per second.
    Open { rate: f64 },
}

#[derive(Clone, Copy)]
enum Regime {
    InMemory,
    LargerThanMemory,
    /// Live migrations during the window: one, or a ping-pong for the
    /// whole window.
    Migrating {
        repeat: bool,
    },
}

struct Spec {
    name: &'static str,
    keys: u64,
    mix: WorkloadMix,
    zipfian: bool,
    memory_pages: Option<u64>,
    session: SessionConfig,
    load: Load,
    warmup_ops: u64,
    processes: usize,
    regime: Regime,
    /// Confine the server process to one CPU and the client to another.
    /// Otherwise the scheduler decides, run by run, whether the server's
    /// dispatch and I/O threads share a CPU, and that decides whether a
    /// lone request waits out the reactor's 1 ms poll.
    pinned: bool,
}

/// 256 pages of 64 KiB; the mutable half holds every workload's data.
const IN_MEMORY_PAGES: u64 = 256;

fn spec(name: &str) -> Option<Spec> {
    let pipelined = SessionConfig::default();
    let closed = Load::Closed { outstanding: 8192 };
    let ycsb_f = WorkloadMix {
        reads: 0.5,
        upserts: 0.0,
        rmws: 0.5,
    };
    Some(match name {
        "ycsb-f-inmem" => Spec {
            name: "ycsb-f-inmem",
            keys: MAX_KEYS,
            mix: ycsb_f,
            zipfian: true,
            memory_pages: Some(IN_MEMORY_PAGES),
            session: pipelined,
            load: closed,
            warmup_ops: 200_000,
            processes: 1,
            regime: Regime::InMemory,
            pinned: false,
        },
        // About 20k x 256 B records against the default 8 x 64 KiB log:
        // the data is about ten times memory.
        "ycsb-a-ltm" => Spec {
            name: "ycsb-a-ltm",
            keys: MAX_KEYS,
            mix: WorkloadMix::YCSB_A,
            zipfian: false,
            memory_pages: None,
            session: pipelined,
            load: closed,
            warmup_ops: 200_000,
            processes: 1,
            regime: Regime::LargerThanMemory,
            pinned: false,
        },
        "point-latency" => Spec {
            name: "point-latency",
            keys: 10_000,
            mix: WorkloadMix::YCSB_A,
            zipfian: false,
            memory_pages: Some(IN_MEMORY_PAGES),
            session: SessionConfig {
                max_batch_ops: 1,
                ..pipelined
            },
            load: Load::Open { rate: 1000.0 },
            warmup_ops: 2_000,
            processes: 1,
            regime: Regime::InMemory,
            pinned: true,
        },
        "rebalance" => Spec {
            name: "rebalance",
            keys: MAX_KEYS,
            mix: WorkloadMix::YCSB_A,
            zipfian: false,
            memory_pages: None,
            session: pipelined,
            load: closed,
            warmup_ops: 200_000,
            processes: 2,
            regime: Regime::Migrating { repeat: true },
            pinned: false,
        },
        "scale-out" => Spec {
            name: "scale-out",
            processes: 2,
            regime: Regime::Migrating { repeat: false },
            ..spec("rebalance")?
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        server_bin: PathBuf::new(),
        out: PathBuf::from("perfbench-out"),
    };
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--server-bin" => args.server_bin = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 || args.server_bin.as_os_str().is_empty() {
        return Err("--seconds (above 0) and --server-bin are required".into());
    }
    Ok(args)
}

/// The migrations of a window: half the hash space moves 0 -> 1 and, with
/// `repeat`, back 1 -> 0 and so on, one migration every `MIGRATE_EVERY`.
/// Each is issued through the client's own control connection.
#[derive(Default)]
struct Rebalance {
    enabled: bool,
    repeat: bool,
    next_at: Option<Instant>,
    active: Option<(u64, Instant)>,
    forward: bool,
    last_status: Option<Instant>,
    started: u64,
    durations: Vec<f64>,
    cancelled: u64,
}

impl Rebalance {
    fn tick(&mut self, gen: &mut Gen) -> Result<(), String> {
        let now = Instant::now();
        if let Some((id, started)) = self.active {
            if self
                .last_status
                .is_some_and(|t| now - t < Duration::from_millis(10))
            {
                return Ok(());
            }
            self.last_status = Some(now);
            let state = gen
                .ctrl_call("client.ctrl.migration_status", |c| {
                    c.ctrl().migration_status(id)
                })
                .map_err(|e| format!("migration {id} status: {e}"))?;
            if state.cancelled {
                self.cancelled += 1;
                self.active = None;
            } else if state.complete {
                self.durations.push(started.elapsed().as_secs_f64());
                self.active = None;
            }
            return Ok(());
        }
        if !self.enabled || self.next_at.is_some_and(|t| now < t) {
            return Ok(());
        }
        if !self.repeat && self.started > 0 {
            return Ok(());
        }
        self.started += 1;
        self.forward = !self.forward;
        let (source, target, fraction) = if self.forward {
            (0, 1, 0.5)
        } else {
            (1, 0, 1.0)
        };
        let id = gen
            .ctrl_call("client.ctrl.migrate_fraction", |c| {
                c.ctrl().migrate_fraction(source, target, fraction)
            })
            .map_err(|e| format!("migrate {source}->{target}: {e}"))?;
        self.active = Some((id, Instant::now()));
        self.last_status = None;
        self.next_at = Some(self.next_at.unwrap_or(now) + MIGRATE_EVERY);
        Ok(())
    }
}

/// The periodic work of a run: the liveness guard, the run deadline, and
/// the rebalance cadence.
struct Guard<'a> {
    cluster: &'a mut Cluster,
    deadline: Instant,
    rebalance: Option<&'a mut Rebalance>,
}

impl Ticker for Guard<'_> {
    fn tick(&mut self, gen: &mut Gen) -> Result<(), String> {
        self.cluster.check()?;
        if Instant::now() > self.deadline {
            return Err(format!("run exceeded its {RUN_DEADLINE:?} deadline"));
        }
        match &mut self.rebalance {
            Some(r) => r.tick(gen),
            None => Ok(()),
        }
    }
}

/// One set-up: server processes, a connected client with every key
/// preloaded, and a warm-up pass of the workload.
struct Setup {
    cluster: Cluster,
    gen: Gen,
    /// Control connections to the processes after the first (the client's
    /// own control connection serves process 0).
    ctrls: Vec<CtrlClient>,
    /// Peak RSS of the servers at the end of set-up, after a fixed amount
    /// of work (later the log keeps growing with the data a run writes, so
    /// a faster run would read as a bigger one).
    rss_mb: f64,
}

fn set_up(spec: &Spec, args: &Args, log_dir: &Path, deadline: Instant) -> Result<Setup, String> {
    // Server processes inherit the CPU mask of the thread that starts them.
    let cpus = spec.pinned.then(procs::two_cpus).transpose()?;
    if let Some((server_cpu, _)) = cpus {
        procs::pin_current_thread(server_cpu)?;
    }
    let mut cluster = Cluster::spawn(&args.server_bin, spec.processes, spec.memory_pages, log_dir)?;
    if let Some((_, client_cpu)) = cpus {
        procs::pin_current_thread(client_cpu)?;
    }
    let timeout = Duration::from_secs(10);
    let mut config = RemoteClientConfig::new(cluster.procs[0].addr.clone());
    config.session = spec.session;
    config.timeout = timeout;
    let client = RemoteClient::connect(config).map_err(|e| format!("client connect: {e}"))?;
    let ctrls = cluster.procs[1..]
        .iter()
        .map(|p| CtrlClient::connect(&p.addr, timeout))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("ctrl connect: {e}"))?;
    let workload = WorkloadConfig {
        record_count: spec.keys,
        value_size: driver::VALUE_SIZE,
        mix: spec.mix,
        zipfian_theta: spec.zipfian.then_some(0.99),
        seed: args.seed,
    };
    let rmw = spec.mix.rmws > 0.0;
    let mut gen = Gen::new(client, WorkloadGenerator::new(workload), rmw);
    let cap = match spec.load {
        Load::Closed { outstanding } => outstanding,
        Load::Open { .. } => 8,
    };
    let mut guard = Guard {
        cluster: &mut cluster,
        deadline,
        rebalance: None,
    };
    gen.preload(8192, deadline, &mut guard)?;
    gen.closed_ops(spec.warmup_ops, cap, deadline, &mut guard)?;
    let rss_mb = cluster.peak_rss_mb()?;
    Ok(Setup {
        cluster,
        gen,
        ctrls,
        rss_mb,
    })
}

fn snapshots(s: &mut Setup) -> Result<Vec<MetricsSnapshot>, String> {
    let mut out = vec![s
        .gen
        .ctrl_call("client.ctrl.metrics", |c| c.ctrl().metrics())
        .map_err(|e| format!("metrics: {e}"))?];
    for c in &mut s.ctrls {
        out.push(c.metrics().map_err(|e| format!("metrics: {e}"))?);
    }
    Ok(out)
}

/// Client session counters: (ops issued, batches sent, bytes sent,
/// batches rejected, ops re-routed).
fn session_counters(client: &RemoteClient) -> [f64; 5] {
    let mut c = [0.0; 5];
    for s in client.session_stats() {
        c[0] += s.ops_issued as f64;
        c[1] += s.batches_sent as f64;
        c[2] += s.bytes_sent as f64;
    }
    let stats = client.stats();
    c[3] = stats.batches_rejected as f64;
    c[4] = stats.rerouted as f64;
    c
}

fn measure(
    s: &mut Setup,
    spec: &Spec,
    seconds: f64,
    traced: bool,
    rebalance: &mut Rebalance,
    deadline: Instant,
) -> Result<Measured, String> {
    let before = snapshots(s)?;
    let cpu0 = s.cluster.cpu()?;
    let sess0 = session_counters(&s.gen.client);
    s.gen.start_window(seconds, traced);
    let win = s.gen.win.as_ref().expect("window started");
    let until = win.end;
    if let Regime::Migrating { repeat } = spec.regime {
        rebalance.enabled = true;
        rebalance.repeat = repeat;
    }
    rebalance.next_at = Some(win.start + MIGRATE_EVERY);
    rebalance.started = 0;
    rebalance.durations.clear();
    rebalance.cancelled = 0;
    let mut guard = Guard {
        cluster: &mut s.cluster,
        deadline,
        rebalance: Some(&mut *rebalance),
    };
    match spec.load {
        Load::Closed { outstanding } => s.gen.closed_loop(until, outstanding, &mut guard)?,
        Load::Open { rate } => s.gen.open_loop(until, rate, &mut guard)?,
    }
    guard.rebalance.as_mut().expect("set above").enabled = false;
    let cpu1 = guard.cluster.cpu()?;
    let sess1 = session_counters(&s.gen.client);
    // Counters at the end of the window, before the tail drains.
    let after = snapshots(s)?;
    let mut guard = Guard {
        cluster: &mut s.cluster,
        deadline,
        rebalance: Some(&mut *rebalance),
    };
    s.gen.drain(deadline, &mut guard)?;
    // Let the last migration settle before anything else runs.
    while guard.rebalance.as_ref().is_some_and(|r| r.active.is_some()) {
        guard.tick(&mut s.gen)?;
        s.gen.drain(deadline, &mut guard)?;
        std::thread::sleep(Duration::from_millis(2));
    }
    let win = s.gen.take_window();
    let mut sessions = [0.0; 5];
    for i in 0..5 {
        sessions[i] = sess1[i] - sess0[i];
    }
    Ok(Measured {
        win,
        server: ServerDelta::new(before, after),
        cpu: (cpu0, cpu1),
        sessions,
    })
}

/// The regime guard: a workload whose counters show it left the regime it
/// claims fails instead of reporting numbers.
fn check_regime(spec: &Spec, m: &Measured, rebalance: &Rebalance) -> Result<(), String> {
    let reads = m.server.counter(".store.reads");
    let stable = if reads > 0.0 {
        m.server.counter(".store.stable_reads") / reads
    } else {
        0.0
    };
    match spec.regime {
        Regime::InMemory if stable > 0.01 => Err(format!(
            "{}: {:.1}% of reads hit stable storage, expected an in-memory run",
            spec.name,
            stable * 100.0
        )),
        Regime::LargerThanMemory if stable < 0.5 => Err(format!(
            "{}: only {:.1}% of reads hit stable storage, expected most",
            spec.name,
            stable * 100.0
        )),
        Regime::Migrating { .. } if rebalance.cancelled > 0 => Err(format!(
            "{}: {} migrations were cancelled",
            spec.name, rebalance.cancelled
        )),
        Regime::Migrating { .. } if rebalance.durations.is_empty() => {
            Err(format!("{}: no migration completed", spec.name))
        }
        _ => Ok(()),
    }
}

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, gen: &Gen) {
        self.attempted += gen.attempted;
        self.failed += gen.failed;
        self.errors.extend(gen.failures.iter().cloned());
    }
}

fn run(spec: &Spec, args: &Args) -> Outcome {
    let deadline = Instant::now() + RUN_DEADLINE;
    let log_dir = args.out.join(format!("logs-{}", spec.name));
    let mut out = Outcome {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut setup_s = Vec::new();
    let mut windows = Vec::new();
    let mut rss_mb = Vec::new();
    if let Err(e) = std::fs::create_dir_all(&log_dir) {
        out.errors.push(format!("{}: {e}", log_dir.display()));
        return out;
    }
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let s = set_up(spec, args, &log_dir, deadline);
        setup_s.push(t0.elapsed().as_secs_f64());
        let mut s = match s {
            Ok(s) => s,
            Err(e) => {
                out.errors.push(e);
                return out;
            }
        };
        rss_mb.push(s.rss_mb);
        // Untraced runs measure a share of the time on every set-up and
        // report medians over the windows, so no one set of server
        // processes (and where the scheduler put their threads) decides
        // the result.  A traced run measures on the last set-up only.
        let result = if !args.trace {
            let seconds = args.seconds / SETUPS as f64;
            measure_untraced(&mut s, spec, seconds, deadline).map(|win| windows.push(win))
        } else if i + 1 == SETUPS {
            measure_traced(&mut s, spec, args, deadline).map(|m| out.metrics = m)
        } else {
            Ok(())
        };
        let result = result.and_then(|()| read_back(&mut s, deadline));
        if let Err(e) = result {
            out.errors.push(e);
            // Operations that never completed are failures.
            s.gen.failed += s.gen.outstanding();
            out.absorb(&s.gen);
            return out;
        }
        out.absorb(&s.gen);
    }
    if !args.trace {
        out.metrics = report::end_to_end(&mut windows, median(&setup_s), median(&rss_mb));
    }
    out
}

/// Reads every key back and checks it; any failed operation of the set-up
/// fails the run.
fn read_back(s: &mut Setup, deadline: Instant) -> Result<(), String> {
    let mut guard = Guard {
        cluster: &mut s.cluster,
        deadline,
        rebalance: None,
    };
    s.gen.readback(8192, deadline, &mut guard)?;
    match s.gen.failed {
        0 => Ok(()),
        n => Err(format!("{n} operations failed")),
    }
}

/// One untraced window.
fn measure_untraced(
    s: &mut Setup,
    spec: &Spec,
    seconds: f64,
    deadline: Instant,
) -> Result<Window, String> {
    let mut rebalance = Rebalance::default();
    let m = measure(s, spec, seconds, false, &mut rebalance, deadline)?;
    check_window(spec, &m, &rebalance)?;
    Ok(m.win)
}

/// Logs a window to stderr, migration details included, and runs the
/// regime guard on it.
fn check_window(spec: &Spec, m: &Measured, rebalance: &Rebalance) -> Result<(), String> {
    eprint!(
        "shadowfax-perfbench: {}: window of {:.1} s: {:.0} ops/s",
        spec.name,
        m.win.elapsed(),
        m.win.ops_per_s()
    );
    if let Regime::Migrating { .. } = spec.regime {
        eprint!(
            "; migrate_s {:?}, {} batches rejected, {} ops re-routed, {}",
            rebalance.durations,
            m.sessions[3],
            m.sessions[4],
            report::migration_summary(&m.server, m.win.completed as f64)
        );
    }
    eprintln!();
    check_regime(spec, m, rebalance)
}

/// The traced run: an untraced and a traced window of equal length (their
/// difference is the tracing overhead), then the per-layer metrics of the
/// traced one.
fn measure_traced(
    s: &mut Setup,
    spec: &Spec,
    args: &Args,
    deadline: Instant,
) -> Result<Metrics, String> {
    let mut rebalance = Rebalance::default();
    let seconds = args.seconds / 2.0;
    let m = measure(s, spec, seconds, false, &mut rebalance, deadline)?;
    check_window(spec, &m, &rebalance)?;
    let mut t = measure(s, spec, seconds, true, &mut rebalance, deadline)?;
    check_window(spec, &t, &rebalance)?;
    let trace = t.win.trace.as_ref().expect("traced window");
    write_trace(&args.out, spec.name, args.seed, trace)?;
    Ok(report::per_layer(&mut t, m.win.ops_per_s()))
}

/// Writes the traced window's spans: `client.op` spans as fixed 32-byte
/// little-endian records (seq, start ns, issue ns, wait ns, pickup ns,
/// delivering poll id) and the call spans as tab-separated lines.
fn write_trace(out: &Path, workload: &str, seed: u64, t: &driver::Trace) -> Result<(), String> {
    let io = |e: std::io::Error| format!("writing trace: {e}");
    let ops_path = out.join(format!("trace-{workload}.ops.bin"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&ops_path).map_err(io)?);
    for o in &t.ops {
        w.write_all(&o.seq.to_le_bytes()).map_err(io)?;
        w.write_all(&o.start_ns.to_le_bytes()).map_err(io)?;
        for v in [o.issue_ns, o.wait_ns, o.pickup_ns, o.poll_id] {
            w.write_all(&v.to_le_bytes()).map_err(io)?;
        }
    }
    w.flush().map_err(io)?;
    let calls_path = out.join(format!("trace-{workload}.calls.tsv"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&calls_path).map_err(io)?);
    writeln!(
        w,
        "# workload={workload} seed={seed} op_spans={}",
        t.ops.len()
    )
    .map_err(io)?;
    writeln!(w, "name\tid\tstart_ns\tend_ns").map_err(io)?;
    for c in &t.calls {
        writeln!(w, "{}\t{}\t{}\t{}", c.name, c.id, c.start_ns, c.end_ns).map_err(io)?;
    }
    w.flush().map_err(io)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("shadowfax-perfbench: {e}");
        std::process::exit(2)
    });
    let Some(spec) = spec(&args.workload) else {
        eprintln!("shadowfax-perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2)
    };
    assert!(
        spec.keys <= MAX_KEYS,
        "preload must stay below the index capacity"
    );
    let outcome = run(&spec, &args);
    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    for e in &outcome.errors {
        eprintln!("shadowfax-perfbench: {}: {e}", spec.name);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    eprintln!(
        "shadowfax-perfbench: workload={} seed={} seconds={} trace={} attempted={} failed={}",
        spec.name, args.seed, args.seconds, args.trace as u8, outcome.attempted, outcome.failed
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
