//! The load generator: one client thread issuing the workload through
//! `RemoteClient`, timing every call it makes into the client library,
//! and keeping the state every key must hold so the run can be checked.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use shadowfax_net::{KvRequest, KvResponse};
use shadowfax_rpc::RemoteClient;
use shadowfax_workload::{Operation, WorkloadGenerator};

/// Bytes per value (the paper's record size).
pub const VALUE_SIZE: usize = 256;

/// How often the loops run the liveness guard and other periodic work.
const TICK: Duration = Duration::from_millis(5);

/// A run fails when no operation completes for this long.
const STALL_LIMIT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Upsert,
    Rmw,
    /// A read of the final state, checked strictly.
    Readback,
}

#[derive(Clone, Copy)]
struct OpInfo {
    key: u64,
    kind: Kind,
    delta: u64,
    /// Where latency is measured from: the issue call, or on the open loop
    /// the time the request was due.
    origin: Instant,
    issue_start: Instant,
    issue_end: Instant,
    done: bool,
}

struct Done {
    seq: u64,
    at: Instant,
    resp: KvResponse,
}

type Sink = Arc<Mutex<Vec<Done>>>;

/// What one key must hold.
#[derive(Default)]
struct KeyState {
    /// Sum of the acknowledged `RmwAdd` deltas.
    rmw_sum: u64,
    /// Acknowledged upserts that no later write supersedes, as
    /// `(seq, first seq issued after the ack was seen)`.  A write is
    /// superseded once a write to the same key issued after its ack has
    /// itself been acknowledged; the stored value must be one of the rest.
    live: Vec<(u64, u64)>,
}

/// Per-op span of the traced run: `client.op` from issue to callback, its
/// `client.issue` child, and the `client.poll` call that delivered it.
#[derive(Clone, Copy)]
pub struct OpSpan {
    pub seq: u64,
    pub start_ns: u64,
    pub issue_ns: u32,
    /// Self time of `client.op`: from the end of the issue call to the start
    /// of the poll that delivered the reply (server and socket).
    pub wait_ns: u32,
    /// From the start of the delivering poll to the callback.
    pub pickup_ns: u32,
    pub poll_id: u32,
}

/// A span around one call into the client library.
#[derive(Clone, Copy)]
pub struct CallSpan {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
pub struct Trace {
    pub ops: Vec<OpSpan>,
    pub calls: Vec<CallSpan>,
}

/// What the measured window recorded.
pub struct Window {
    pub start: Instant,
    pub end: Instant,
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub completed: u64,
    /// When the last operation completed inside the window.
    pub last_done: Instant,
    /// Open loop only: how late each request was issued.
    pub late_ns: Vec<u64>,
    pub issue_ns: u64,
    pub flush_ns: u64,
    pub poll_ns: u64,
    /// Value bytes the acknowledged writes carried (8 per `RmwAdd`).
    pub user_bytes: u64,
    pub inflight_max: usize,
    pub trace: Option<Trace>,
}

impl Window {
    fn new(seconds: f64, traced: bool) -> Window {
        let start = Instant::now();
        Window {
            start,
            end: start + Duration::from_secs_f64(seconds),
            read_ns: Vec::new(),
            write_ns: Vec::new(),
            completed: 0,
            last_done: start,
            late_ns: Vec::new(),
            issue_ns: 0,
            flush_ns: 0,
            poll_ns: 0,
            user_bytes: 0,
            inflight_max: 0,
            trace: traced.then(Trace::default),
        }
    }

    fn contains(&self, t: Instant) -> bool {
        t >= self.start && t < self.end
    }

    fn ns_since_start(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_nanos() as u64
    }

    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Seconds from the window's start to its last completion.
    pub fn elapsed(&self) -> f64 {
        (self.last_done - self.start).as_secs_f64()
    }

    /// Operations completed per second over [`Window::elapsed`].
    pub fn ops_per_s(&self) -> f64 {
        match self.elapsed() {
            e if e > 0.0 => self.completed as f64 / e,
            _ => 0.0,
        }
    }
}

/// Periodic work the loops hand control to: the liveness guard, and on the
/// rebalance workload the migration cadence.
pub trait Ticker {
    fn tick(&mut self, gen: &mut Gen) -> Result<(), String>;
}

pub struct Gen {
    pub client: RemoteClient,
    wl: WorkloadGenerator,
    /// `RmwAdd` workloads keep a counter at the head of each value; the
    /// others keep the seq of the write that stored it.
    rmw: bool,
    sink: Sink,
    ops: VecDeque<OpInfo>,
    base: u64,
    next_seq: u64,
    keys: Vec<KeyState>,
    pub attempted: u64,
    pub failed: u64,
    outstanding: u64,
    pub failures: Vec<String>,
    last_progress: Instant,
    pub win: Option<Window>,
    poll_id: u64,
    call_id: u64,
}

impl Gen {
    pub fn new(client: RemoteClient, wl: WorkloadGenerator, rmw: bool) -> Gen {
        let keys = (0..wl.config().record_count)
            .map(|_| KeyState::default())
            .collect();
        Gen {
            client,
            wl,
            rmw,
            sink: Arc::new(Mutex::new(Vec::new())),
            ops: VecDeque::new(),
            base: 1,
            next_seq: 1,
            keys,
            attempted: 0,
            failed: 0,
            outstanding: 0,
            failures: Vec::new(),
            last_progress: Instant::now(),
            win: None,
            poll_id: 0,
            call_id: 0,
        }
    }

    /// Operations issued and not yet completed.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why);
        }
    }

    /// The value a write stores: `head` (a seq or a counter), the key, then
    /// the workload crate's key-derived fill pattern.
    fn value(&self, head: u64, key: u64) -> Vec<u8> {
        let mut v = self.wl.make_value(key);
        v[..8].copy_from_slice(&head.to_le_bytes());
        v[8..16].copy_from_slice(&key.to_le_bytes());
        v
    }

    /// The head of a well-formed value stored under `key`.
    fn value_head(&self, key: u64, v: &[u8]) -> Option<u64> {
        let pattern = self.wl.make_value(key);
        (v.len() == VALUE_SIZE && v[8..16] == key.to_le_bytes() && v[16..] == pattern[16..])
            .then(|| u64::from_le_bytes(v[..8].try_into().expect("8 bytes")))
    }

    fn issue(&mut self, key: u64, kind: Kind, delta: u64, origin: Instant, value: Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let request = match kind {
            Kind::Read | Kind::Readback => KvRequest::Read { key },
            Kind::Upsert => KvRequest::Upsert { key, value },
            Kind::Rmw => KvRequest::RmwAdd { key, delta },
        };
        let sink = Arc::clone(&self.sink);
        let callback = Box::new(move |resp| {
            let at = Instant::now();
            sink.lock()
                .expect("completion sink poisoned")
                .push(Done { seq, at, resp });
        });
        let issue_start = Instant::now();
        let routed = self.client.issue(request, callback);
        let issue_end = Instant::now();
        if let Some(w) = &mut self.win {
            w.issue_ns += (issue_end - issue_start).as_nanos() as u64;
        }
        self.attempted += 1;
        self.ops.push_back(OpInfo {
            key,
            kind,
            delta,
            origin,
            issue_start,
            issue_end,
            done: !routed,
        });
        if routed {
            self.outstanding += 1;
        } else {
            self.fail(format!("no server owns key {key}"));
        }
    }

    fn issue_workload_op(&mut self, origin: Instant) {
        match self.wl.next_op() {
            Operation::Read { key } => self.issue(key, Kind::Read, 0, origin, Vec::new()),
            Operation::Upsert { key, .. } => {
                let value = self.value(self.next_seq, key);
                self.issue(key, Kind::Upsert, 0, origin, value)
            }
            Operation::ReadModifyWrite { key, delta } => {
                self.issue(key, Kind::Rmw, delta, origin, Vec::new())
            }
        }
    }

    fn flush(&mut self, record_span: bool) {
        let start = Instant::now();
        self.client.flush();
        let end = Instant::now();
        if let Some(w) = &mut self.win {
            w.flush_ns += (end - start).as_nanos() as u64;
            w.inflight_max = w.inflight_max.max(self.client.max_inflight_batches());
            if record_span {
                let (s, e) = (w.ns_since_start(start), w.ns_since_start(end));
                if let Some(t) = &mut w.trace {
                    self.call_id += 1;
                    t.calls.push(CallSpan {
                        name: "client.flush",
                        id: self.call_id,
                        start_ns: s,
                        end_ns: e,
                    });
                }
            }
        }
    }

    fn poll(&mut self) -> Result<(), String> {
        let start = Instant::now();
        let polled = self.client.poll();
        let end = Instant::now();
        polled.map_err(|e| format!("client poll failed: {e}"))?;
        self.poll_id += 1;
        let done = std::mem::take(&mut *self.sink.lock().expect("completion sink poisoned"));
        let delivered = done.len() as u64;
        for d in done {
            self.complete(d, start);
        }
        if let Some(w) = &mut self.win {
            w.poll_ns += (end - start).as_nanos() as u64;
            w.inflight_max = w.inflight_max.max(self.client.max_inflight_batches());
            let (s, e) = (w.ns_since_start(start), w.ns_since_start(end));
            if let (Some(t), true) = (&mut w.trace, delivered > 0) {
                t.calls.push(CallSpan {
                    name: "client.poll",
                    id: self.poll_id,
                    start_ns: s,
                    end_ns: e,
                });
            }
        }
        Ok(())
    }

    /// Runs a control-plane call, recording a span around it on traced runs.
    pub fn ctrl_call<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut RemoteClient) -> T,
    ) -> T {
        let start = Instant::now();
        let out = f(&mut self.client);
        let end = Instant::now();
        if let Some(w) = &mut self.win {
            let (s, e) = (w.ns_since_start(start), w.ns_since_start(end));
            if let Some(t) = &mut w.trace {
                self.call_id += 1;
                t.calls.push(CallSpan {
                    name,
                    id: self.call_id,
                    start_ns: s,
                    end_ns: e,
                });
            }
        }
        out
    }

    fn complete(&mut self, d: Done, poll_start: Instant) {
        let Some(op) = d
            .seq
            .checked_sub(self.base)
            .and_then(|i| self.ops.get_mut(i as usize))
        else {
            return;
        };
        if op.done {
            return;
        }
        op.done = true;
        let op = *op;
        self.outstanding -= 1;
        self.last_progress = d.at;
        let key = op.key;
        let ok = match (op.kind, &d.resp) {
            (Kind::Read, KvResponse::Value(Some(v))) => self.value_head(key, v).is_some(),
            (Kind::Readback, KvResponse::Value(Some(v))) => {
                let head = self.value_head(key, v);
                let ks = &self.keys[key as usize];
                match head {
                    Some(h) if self.rmw => h == ks.rmw_sum,
                    Some(h) => ks.live.iter().any(|&(seq, _)| seq == h),
                    None => false,
                }
            }
            (Kind::Upsert, KvResponse::Ok) => {
                let (seq, next) = (d.seq, self.next_seq);
                let ks = &mut self.keys[key as usize];
                ks.live
                    .retain(|&(_, issued_after_ack)| issued_after_ack > seq);
                ks.live.push((seq, next));
                true
            }
            (Kind::Rmw, KvResponse::Counter(c)) => {
                let ks = &mut self.keys[key as usize];
                ks.rmw_sum += op.delta;
                *c >= op.delta
            }
            _ => false,
        };
        if !ok {
            let ks = &self.keys[key as usize];
            let got = match &d.resp {
                KvResponse::Value(Some(v)) => match self.value_head(key, v) {
                    Some(h) if self.rmw => format!("counter {h}, acknowledged sum {}", ks.rmw_sum),
                    Some(h) => format!(
                        "the value written by op {h}; acknowledged writes not superseded: {:?}",
                        ks.live.iter().map(|&(seq, _)| seq).collect::<Vec<_>>()
                    ),
                    None => format!("a malformed {}-byte value", v.len()),
                },
                other => format!("{other:?}"),
            };
            self.fail(format!(
                "{:?} of key {key} (op {}) returned {got}",
                op.kind, d.seq
            ));
        }
        if let Some(w) = &mut self.win {
            if w.contains(d.at) && op.kind != Kind::Readback {
                w.completed += 1;
                w.last_done = w.last_done.max(d.at);
                let latency = d.at.saturating_duration_since(op.origin).as_nanos() as u64;
                match op.kind {
                    Kind::Read => w.read_ns.push(latency),
                    Kind::Upsert => {
                        w.write_ns.push(latency);
                        w.user_bytes += VALUE_SIZE as u64;
                    }
                    _ => {
                        w.write_ns.push(latency);
                        w.user_bytes += 8;
                    }
                }
                let start_ns = w.ns_since_start(op.issue_start);
                if let Some(t) = &mut w.trace {
                    let ns =
                        |a: Instant, b: Instant| b.saturating_duration_since(a).as_nanos() as u32;
                    let pickup_from = poll_start.max(op.issue_end);
                    t.ops.push(OpSpan {
                        seq: d.seq,
                        start_ns,
                        issue_ns: ns(op.issue_start, op.issue_end),
                        wait_ns: ns(op.issue_end, pickup_from),
                        pickup_ns: ns(pickup_from, d.at),
                        poll_id: self.poll_id as u32,
                    });
                }
            }
        }
        while self.ops.front().is_some_and(|o| o.done) {
            self.ops.pop_front();
            self.base += 1;
        }
    }

    /// Runs the periodic work when it is due; fails a run whose operations
    /// have stopped completing.
    fn maybe_tick(
        &mut self,
        next_tick: &mut Instant,
        ticker: &mut dyn Ticker,
    ) -> Result<(), String> {
        let now = Instant::now();
        if now < *next_tick {
            return Ok(());
        }
        *next_tick = now + TICK;
        if self.outstanding > 0 && now.saturating_duration_since(self.last_progress) > STALL_LIMIT {
            return Err(format!(
                "{} operations made no progress for {STALL_LIMIT:?}",
                self.outstanding
            ));
        }
        ticker.tick(self)
    }

    /// Writes every key's initial value and waits for the acks.
    pub fn preload(
        &mut self,
        cap: u64,
        deadline: Instant,
        ticker: &mut dyn Ticker,
    ) -> Result<(), String> {
        let n = self.keys.len() as u64;
        let mut next_tick = Instant::now();
        self.last_progress = Instant::now();
        for key in 0..n {
            while self.outstanding >= cap {
                self.flush(false);
                self.poll()?;
                self.maybe_tick(&mut next_tick, ticker)?;
            }
            let value = self.value(if self.rmw { 0 } else { self.next_seq }, key);
            self.issue(key, Kind::Upsert, 0, Instant::now(), value);
        }
        self.drain(deadline, ticker)
    }

    /// Closed loop: keeps `cap` operations outstanding until `until`.
    pub fn closed_loop(
        &mut self,
        until: Instant,
        cap: u64,
        ticker: &mut dyn Ticker,
    ) -> Result<(), String> {
        let mut next_tick = Instant::now();
        self.last_progress = Instant::now();
        while Instant::now() < until {
            let mut issued = false;
            while self.outstanding < cap {
                self.issue_workload_op(Instant::now());
                issued = true;
            }
            self.flush(issued);
            self.poll()?;
            self.maybe_tick(&mut next_tick, ticker)?;
        }
        Ok(())
    }

    /// Closed loop for a fixed number of operations (warm-up).
    pub fn closed_ops(
        &mut self,
        ops: u64,
        cap: u64,
        deadline: Instant,
        ticker: &mut dyn Ticker,
    ) -> Result<(), String> {
        let mut next_tick = Instant::now();
        self.last_progress = Instant::now();
        let mut left = ops;
        while left > 0 {
            while self.outstanding < cap && left > 0 {
                self.issue_workload_op(Instant::now());
                left -= 1;
            }
            self.flush(false);
            self.poll()?;
            self.maybe_tick(&mut next_tick, ticker)?;
            if Instant::now() > deadline {
                return Err(format!("warm-up did not finish ({left} operations left)"));
            }
        }
        self.drain(deadline, ticker)
    }

    /// Open loop: one request every `1 / rate` seconds until `until`,
    /// whether or not earlier ones have completed.  Latency counts from the
    /// time each request was due.
    pub fn open_loop(
        &mut self,
        until: Instant,
        rate: f64,
        ticker: &mut dyn Ticker,
    ) -> Result<(), String> {
        let period = Duration::from_secs_f64(1.0 / rate);
        let mut next_tick = Instant::now();
        let mut due = Instant::now();
        self.last_progress = Instant::now();
        while due < until {
            let now = Instant::now();
            if now >= due {
                if let Some(w) = &mut self.win {
                    if w.contains(due) {
                        w.late_ns.push((now - due).as_nanos() as u64);
                    }
                }
                self.issue_workload_op(due);
                self.flush(true);
                due += period;
                continue;
            }
            self.poll()?;
            self.maybe_tick(&mut next_tick, ticker)?;
            std::thread::yield_now();
        }
        Ok(())
    }

    /// Waits for every outstanding operation.  Operations still incomplete
    /// at `deadline`, or lost with a dead session, count as failed.
    pub fn drain(&mut self, deadline: Instant, ticker: &mut dyn Ticker) -> Result<(), String> {
        let mut next_tick = Instant::now();
        self.last_progress = Instant::now();
        while self.outstanding > 0 {
            self.flush(false);
            self.poll()?;
            if Instant::now() > deadline {
                let n = self.outstanding;
                self.failed += n;
                return Err(format!("{n} operations still incomplete at the deadline"));
            }
            self.maybe_tick(&mut next_tick, ticker)?;
        }
        Ok(())
    }

    /// Reads every key back and checks it against the acknowledged writes.
    pub fn readback(
        &mut self,
        cap: u64,
        deadline: Instant,
        ticker: &mut dyn Ticker,
    ) -> Result<(), String> {
        let mut next_tick = Instant::now();
        for key in 0..self.keys.len() as u64 {
            while self.outstanding >= cap {
                self.flush(false);
                self.poll()?;
                self.maybe_tick(&mut next_tick, ticker)?;
            }
            self.issue(key, Kind::Readback, 0, Instant::now(), Vec::new());
        }
        self.drain(deadline, ticker)
    }

    /// Starts recording a measured window of `seconds`.
    pub fn start_window(&mut self, seconds: f64, traced: bool) {
        self.win = Some(Window::new(seconds, traced));
    }

    pub fn take_window(&mut self) -> Window {
        self.win.take().expect("a window was started")
    }
}
