//! The TCP front end of a serving process.
//!
//! [`RpcServer::serve`] binds a listening socket and spawns N I/O threads.
//! Each accepted connection is bound (by its HELLO frame) to one of the
//! cluster's dispatch threads: the I/O thread decodes request-batch frames
//! and forwards them onto the in-process fabric, and pumps the dispatch
//! thread's replies back out as reply frames.  Control frames (ownership
//! snapshots, migration triggers, pings) are answered directly from the
//! metadata store.
//!
//! The serving mechanics — acceptor, per-I/O-thread epoll loops, bounded
//! input and output, slow-reader drops — are the shared
//! [connection loop](crate::connloop); this module supplies its
//! per-connection handler and the [`ClusterControl`] seam behind it.
//!
//! This mirrors the paper's deployment shape — partitioned client sessions
//! terminate on server dispatch threads; no request or reply crosses
//! threads once bound — while keeping the dispatch loop itself transport
//! agnostic.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use shadowfax::{
    ChainFetchError, ChainFetchQuery, ChainFetchReply, Cluster, MigrationMsg, ServerId,
};
use shadowfax_net::{KvLink, KvRequest, MigrationLink, StatusCode, Transport, TransportError};
use shadowfax_obs::{Counter, Histogram, MetricsRegistry};

use crate::codec::{
    WireBrokerStatus, WireMetaReplica, WireMigrationState, WireMsg, WireOwnership, WireServerInfo,
    MAX_FRAME_BYTES,
};
use crate::connloop::{ConnLoop, Handler, LoopSpec, Outbound};
use crate::ctrl::CtrlClient;

/// Budget for relaying a control operation (migrate / cancel) to the peer
/// process that hosts the relevant source server.  Bounded so a
/// partitioned peer cannot wedge the I/O thread serving the relay.
const RELAY_TIMEOUT: Duration = Duration::from_secs(3);

/// What the TCP front end needs from the cluster behind it.
///
/// Implemented by [`Cluster`]; tests can substitute their own.
pub trait ClusterControl: Send + Sync {
    /// A consistent ownership snapshot for clients.
    fn ownership(&self) -> WireOwnership;

    /// Starts a migration; returns the migration id.
    fn migrate(&self, source: u32, target: u32, fraction: f64) -> Result<u64, String>;

    /// The state of migration `migration_id`.
    fn migration_status(&self, migration_id: u64) -> Result<WireMigrationState, String>;

    /// Cancels an in-flight migration: the dependency is cancelled at the
    /// metadata store and every local server involved rolls back to its
    /// checkpoint and re-adopts the post-cancellation ownership map.
    fn cancel_migration(&self, migration_id: u64) -> Result<(), String>;

    /// Opens a fabric link to the dispatch thread at `fabric_addr`.
    fn connect_fabric(&self, fabric_addr: &str) -> Result<Box<dyn KvLink>, TransportError>;

    /// Opens a migration link to dispatch thread `thread` of the local
    /// server `server` (terminating an incoming TCP migration connection).
    fn connect_migration_local(
        &self,
        server: u32,
        thread: u32,
    ) -> Result<Box<dyn MigrationLink<MigrationMsg>>, TransportError>;

    /// Serves a view-tagged chain fetch out of this process's shared tier.
    /// The error carries the typed status reported back to the peer
    /// (`StaleView`, `OutOfRange`, ...).
    fn fetch_chain(&self, query: &ChainFetchQuery)
        -> Result<ChainFetchReply, (StatusCode, String)>;

    /// The process-wide metrics registry: the front end answers
    /// `GET_METRICS` frames from it and records its serving-path latency
    /// histograms into it.
    fn metrics(&self) -> Arc<MetricsRegistry>;

    /// The process's epoch-tagged metadata replica (broker pull path).
    fn meta_replica(&self) -> WireMetaReplica;

    /// Merges a replica pushed by a peer (broker fan-out path); returns
    /// the post-merge `(epoch, changed)` acknowledgement.
    fn merge_meta(&self, replica: &WireMetaReplica) -> (u64, bool);

    /// The coordinator's role and convergence state.  A process running
    /// no coordinator answers `solo` at its current metadata epoch.
    fn broker_status(&self) -> WireBrokerStatus;

    /// The control address of the process hosting `server`, when it is
    /// not hosted here (`None` means the operation runs locally).
    fn remote_source_addr(&self, server: u32) -> Option<String>;

    /// The control address of the process hosting the *source* of
    /// in-flight migration `migration_id`, when that is not this process.
    fn remote_addr_for_migration(&self, migration_id: u64) -> Option<String>;
}

impl ClusterControl for Cluster {
    fn ownership(&self) -> WireOwnership {
        let snapshot = self.meta().snapshot();
        let mut servers: Vec<WireServerInfo> = snapshot
            .servers
            .iter()
            .map(|(id, meta)| WireServerInfo {
                id: id.0,
                address: meta.address.clone(),
                threads: meta.threads as u32,
                view: meta.view,
                ranges: meta
                    .owned
                    .ranges()
                    .iter()
                    .map(|r| (r.start, r.end))
                    .collect(),
            })
            .collect();
        servers.sort_by_key(|s| s.id);
        WireOwnership { servers }
    }

    fn migrate(&self, source: u32, target: u32, fraction: f64) -> Result<u64, String> {
        self.migrate_fraction(ServerId(source), ServerId(target), fraction)
    }

    fn migration_status(&self, migration_id: u64) -> Result<WireMigrationState, String> {
        match self.meta().migration_state(migration_id) {
            // Both sides completed: the dependency has been garbage
            // collected from the metadata store.
            Ok(None) => Ok(WireMigrationState {
                migration_id,
                complete: true,
                source_complete: true,
                target_complete: true,
                cancelled: false,
            }),
            Ok(Some(dep)) => Ok(WireMigrationState {
                migration_id,
                complete: dep.is_complete(),
                source_complete: dep.source_complete,
                target_complete: dep.target_complete,
                cancelled: dep.cancelled,
            }),
            Err(e) => Err(e.to_string()),
        }
    }

    fn cancel_migration(&self, migration_id: u64) -> Result<(), String> {
        Cluster::cancel_migration(self, migration_id)
    }

    fn connect_fabric(&self, fabric_addr: &str) -> Result<Box<dyn KvLink>, TransportError> {
        self.kv_network().connect_link(fabric_addr)
    }

    fn connect_migration_local(
        &self,
        server: u32,
        thread: u32,
    ) -> Result<Box<dyn MigrationLink<MigrationMsg>>, TransportError> {
        let local =
            self.server(ServerId(server))
                .ok_or_else(|| TransportError::ConnectionRefused {
                    addr: format!("sv{server} (not hosted in this process)"),
                })?;
        let addr = local.migration_address(thread as usize);
        match self.migration_network().connect(&addr) {
            Some(conn) => Ok(Box::new(conn)),
            None => Err(TransportError::ConnectionRefused { addr }),
        }
    }

    fn fetch_chain(
        &self,
        query: &ChainFetchQuery,
    ) -> Result<ChainFetchReply, (StatusCode, String)> {
        self.serve_chain_fetch(query).map_err(|e| {
            let status = match &e {
                ChainFetchError::StaleView { .. } | ChainFetchError::UnknownRequester(_) => {
                    StatusCode::StaleView
                }
                ChainFetchError::OutOfRange { .. } | ChainFetchError::UnknownLog(_) => {
                    StatusCode::OutOfRange
                }
                ChainFetchError::Unreadable { .. } => StatusCode::Io,
            };
            (status, e.to_string())
        })
    }

    fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(Cluster::metrics(self))
    }

    fn meta_replica(&self) -> WireMetaReplica {
        WireMetaReplica::from_replica(&self.meta().replica())
    }

    fn merge_meta(&self, replica: &WireMetaReplica) -> (u64, bool) {
        let outcome = self.merge_meta_replica(&replica.to_replica());
        (outcome.epoch, outcome.changed)
    }

    fn broker_status(&self) -> WireBrokerStatus {
        WireBrokerStatus {
            role: WireBrokerStatus::ROLE_SOLO,
            broker_addr: String::new(),
            epoch: self.meta().epoch(),
            peers: Vec::new(),
            tier_addr: String::new(),
            tier_reachable: false,
            cancel_escalated: self.metrics().gauge("broker.cancel.escalated").value(),
        }
    }

    fn remote_source_addr(&self, server: u32) -> Option<String> {
        Cluster::remote_source_addr(self, ServerId(server))
    }

    fn remote_addr_for_migration(&self, migration_id: u64) -> Option<String> {
        Cluster::remote_addr_for_migration(self, migration_id)
    }
}

/// Decorates any [`ClusterControl`] with awareness of the configured
/// `shadowfax-tier` daemon: `broker_status` answers carry the daemon's
/// address and current reachability, so `shadowfax-cli cluster status`
/// shows the tier next to the broker without a second round trip.
pub struct TierAwareControl {
    inner: Arc<dyn ClusterControl>,
    tier: Arc<crate::tier::RemoteSharedTier>,
}

impl TierAwareControl {
    /// Wraps `inner`, stamping `tier`'s endpoint into broker status
    /// answers.
    pub fn new(inner: Arc<dyn ClusterControl>, tier: Arc<crate::tier::RemoteSharedTier>) -> Self {
        TierAwareControl { inner, tier }
    }
}

impl ClusterControl for TierAwareControl {
    fn ownership(&self) -> WireOwnership {
        self.inner.ownership()
    }

    fn migrate(&self, source: u32, target: u32, fraction: f64) -> Result<u64, String> {
        self.inner.migrate(source, target, fraction)
    }

    fn migration_status(&self, migration_id: u64) -> Result<WireMigrationState, String> {
        self.inner.migration_status(migration_id)
    }

    fn cancel_migration(&self, migration_id: u64) -> Result<(), String> {
        self.inner.cancel_migration(migration_id)
    }

    fn connect_fabric(&self, fabric_addr: &str) -> Result<Box<dyn KvLink>, TransportError> {
        self.inner.connect_fabric(fabric_addr)
    }

    fn connect_migration_local(
        &self,
        server: u32,
        thread: u32,
    ) -> Result<Box<dyn MigrationLink<MigrationMsg>>, TransportError> {
        self.inner.connect_migration_local(server, thread)
    }

    fn fetch_chain(
        &self,
        query: &ChainFetchQuery,
    ) -> Result<ChainFetchReply, (StatusCode, String)> {
        self.inner.fetch_chain(query)
    }

    fn metrics(&self) -> Arc<MetricsRegistry> {
        self.inner.metrics()
    }

    fn meta_replica(&self) -> WireMetaReplica {
        self.inner.meta_replica()
    }

    fn merge_meta(&self, replica: &WireMetaReplica) -> (u64, bool) {
        self.inner.merge_meta(replica)
    }

    fn broker_status(&self) -> WireBrokerStatus {
        let mut status = self.inner.broker_status();
        status.tier_addr = self.tier.addr().to_string();
        status.tier_reachable = self.tier.is_reachable();
        status
    }

    fn remote_source_addr(&self, server: u32) -> Option<String> {
        self.inner.remote_source_addr(server)
    }

    fn remote_addr_for_migration(&self, migration_id: u64) -> Option<String> {
        self.inner.remote_addr_for_migration(migration_id)
    }
}

/// Relays a `Migrate` whose source server lives in another process, then
/// pulls that process's metadata replica and merges it here, so a status
/// query for the returned id on *this* process answers immediately
/// instead of waiting a broker round.
fn relay_migrate(
    control: &Arc<dyn ClusterControl>,
    addr: &str,
    source: u32,
    target: u32,
    fraction: f64,
) -> Result<u64, String> {
    let mut peer = CtrlClient::connect(addr, RELAY_TIMEOUT)
        .map_err(|e| format!("relay to source process {addr}: {e}"))?;
    let id = peer
        .migrate_fraction(source, target, fraction)
        .map_err(|e| format!("relay to source process {addr}: {e}"))?;
    if let Ok(replica) = peer.meta_replica() {
        control.merge_meta(&replica);
    }
    Ok(id)
}

/// Relays a `CancelMigration` to the process driving the migration (the
/// source's process), merging its replica back on success so the
/// cancelled dependency and rolled-back ownership land here at once.
fn relay_cancel(
    control: &Arc<dyn ClusterControl>,
    addr: &str,
    migration_id: u64,
) -> Result<(), String> {
    let mut peer = CtrlClient::connect(addr, RELAY_TIMEOUT)
        .map_err(|e| format!("relay to source process {addr}: {e}"))?;
    peer.cancel_migration(migration_id)
        .map_err(|e| format!("relay to source process {addr}: {e}"))?;
    if let Ok(replica) = peer.meta_replica() {
        control.merge_meta(&replica);
    }
    Ok(())
}

/// Serving-path latency histograms, one per op type.  Handles are cheap
/// clones of the registry's instruments; recording is a relaxed atomic add
/// into the calling thread's shard.
#[derive(Clone)]
struct ServingLatency {
    read: Histogram,
    upsert: Histogram,
    migrate_ctrl: Histogram,
    chain_fetch: Histogram,
    /// Batch timing entries shed by the bounded in-flight table; their
    /// eventual replies go unmeasured, so the histograms under-sample —
    /// visibly, via this counter, instead of silently.
    timings_dropped: Counter,
}

impl ServingLatency {
    fn new(metrics: &MetricsRegistry) -> Self {
        ServingLatency {
            read: metrics.histogram("rpc.latency.read"),
            upsert: metrics.histogram("rpc.latency.upsert"),
            migrate_ctrl: metrics.histogram("rpc.latency.migrate_ctrl"),
            chain_fetch: metrics.histogram("rpc.latency.chain_fetch"),
            timings_dropped: metrics.counter("rpc.latency.timings_dropped"),
        }
    }
}

/// Knobs for the TCP front end.
#[derive(Debug, Clone)]
pub struct RpcServerConfig {
    /// Socket address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub listen: String,
    /// Number of I/O threads sharing the accepted connections.
    pub io_threads: usize,
    /// Per-frame size limit enforced on received frames.
    pub max_frame: usize,
}

impl Default for RpcServerConfig {
    fn default() -> Self {
        RpcServerConfig {
            listen: "127.0.0.1:0".to_string(),
            io_threads: 2,
            max_frame: MAX_FRAME_BYTES,
        }
    }
}

/// The running TCP front end.
pub struct RpcServer;

/// Join handle for a running front end.
pub struct RpcServerHandle {
    serving: ConnLoop,
}

impl std::fmt::Debug for RpcServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcServerHandle")
            .field("local_addr", &self.serving.local_addr())
            .finish()
    }
}

impl RpcServerHandle {
    /// The socket address actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.serving.local_addr()
    }

    /// Stops the acceptor and I/O threads and waits for them to exit.
    /// Connections are dropped; in-flight batches already forwarded to
    /// dispatch threads complete inside the cluster but their replies are
    /// discarded.
    pub fn shutdown(mut self) {
        self.serving.stop();
    }
}

impl Drop for RpcServerHandle {
    fn drop(&mut self) {
        self.serving.stop();
    }
}

impl RpcServer {
    /// Binds `config.listen` and starts serving `control` until the returned
    /// handle is shut down or dropped.
    pub fn serve(
        control: Arc<dyn ClusterControl>,
        config: RpcServerConfig,
    ) -> std::io::Result<RpcServerHandle> {
        let metrics = control.metrics();
        let latency = ServingLatency::new(&metrics);
        let serving = ConnLoop::serve(
            LoopSpec {
                listen: &config.listen,
                ns: "rpc",
                io_threads: config.io_threads,
                max_frame: config.max_frame,
            },
            &metrics,
            move || RpcConn::new(Arc::clone(&control), latency.clone()),
        )?;
        Ok(RpcServerHandle { serving })
    }
}

/// Most in-flight batch timings a connection retains for latency
/// measurement.  A client that never reads replies sheds the oldest
/// timings rather than growing without bound (each shed is counted in
/// `rpc.latency.timings_dropped`).
const MAX_INFLIGHT_TIMINGS: usize = 1024;

/// The front end's per-connection handler.
struct RpcConn {
    control: Arc<dyn ClusterControl>,
    /// Bound by the HELLO frame; `None` on pure control connections.
    link: Option<Box<dyn KvLink>>,
    /// Bound by the MIG_HELLO frame; `None` unless this is a dedicated
    /// migration connection from a peer serving process.
    mig: Option<Box<dyn MigrationLink<MigrationMsg>>>,
    /// Batches forwarded to the dispatch thread minus replies pumped
    /// back: while nonzero, replies can appear without socket readiness,
    /// so the event loop must keep servicing this connection.
    outstanding: u64,
    /// Serving-path latency histograms shared with the registry.
    lat: ServingLatency,
    /// `(seq, arrival, reads, upserts)` for batches forwarded to the
    /// dispatch thread whose replies have not come back yet.
    inflight: VecDeque<(u64, Instant, usize, usize)>,
}

impl RpcConn {
    fn new(control: Arc<dyn ClusterControl>, lat: ServingLatency) -> Self {
        RpcConn {
            control,
            link: None,
            mig: None,
            outstanding: 0,
            lat,
            inflight: VecDeque::new(),
        }
    }

    /// Attributes the serving-path latency of the batch answered by `seq`
    /// to the per-op-type histograms: the elapsed wall time from frame
    /// decode to reply pickup, recorded once per op type the batch carried.
    fn record_batch_latency(&mut self, seq: u64) {
        if let Some(pos) = self.inflight.iter().position(|e| e.0 == seq) {
            let (_, start, reads, upserts) = self.inflight.remove(pos).unwrap();
            let elapsed = start.elapsed();
            if reads > 0 {
                self.lat.read.record(elapsed);
            }
            if upserts > 0 {
                self.lat.upsert.record(elapsed);
            }
        }
    }
}

impl Handler for RpcConn {
    fn on_frame(&mut self, msg: WireMsg, out: &mut Outbound) {
        let control = &self.control;
        match msg {
            WireMsg::Hello { fabric_addr } => match control.connect_fabric(&fabric_addr) {
                Ok(link) => self.link = Some(link),
                Err(e) => out.fail(e.status_code(), e.to_string()),
            },
            WireMsg::Batch(batch) => match &self.link {
                Some(link) => {
                    let mut reads = 0usize;
                    let mut upserts = 0usize;
                    for op in &batch.ops {
                        match op {
                            KvRequest::Read { .. } => reads += 1,
                            _ => upserts += 1,
                        }
                    }
                    if self.inflight.len() >= MAX_INFLIGHT_TIMINGS {
                        // The shed entry's eventual reply will go
                        // unmeasured; count it so the histograms'
                        // under-sampling is visible.
                        self.inflight.pop_front();
                        self.lat.timings_dropped.inc();
                    }
                    self.inflight
                        .push_back((batch.seq, Instant::now(), reads, upserts));
                    match link.send_batch(batch) {
                        Ok(()) => self.outstanding += 1,
                        Err(e) => out.fail(e.status_code(), e.to_string()),
                    }
                }
                None => out.fail(
                    StatusCode::Malformed,
                    "BATCH frame before HELLO bound this connection".to_string(),
                ),
            },
            WireMsg::MigHello { server, thread } => {
                match control.connect_migration_local(server, thread) {
                    Ok(link) => self.mig = Some(link),
                    Err(e) => out.fail(e.status_code(), e.to_string()),
                }
            }
            WireMsg::Migration(msg) => match &self.mig {
                Some(link) => {
                    if let Err(e) = link.send_msg(msg) {
                        out.fail(e.error.status_code(), e.error.to_string());
                    }
                }
                None => out.fail(
                    StatusCode::Malformed,
                    "MIGRATION frame before MIG_HELLO bound this connection".to_string(),
                ),
            },
            WireMsg::MigrationStatus { migration_id } => {
                let start = Instant::now();
                let result = control.migration_status(migration_id);
                self.lat.migrate_ctrl.record(start.elapsed());
                match result {
                    Ok(state) => out.send(&WireMsg::MigrationState(state)),
                    Err(msg) => out.send(&WireMsg::CtrlErr {
                        status: StatusCode::ControlFailed,
                        message: msg,
                    }),
                }
            }
            WireMsg::CancelMigration { migration_id } => {
                // Like Migrate: treat a panic below as a failed control
                // operation, never as a downed I/O thread.  A migration
                // whose source lives in another process is relayed there
                // (that process drives the rollback); if the relay fails
                // the cancellation still lands in the local replica, and
                // the coordinator retries the relay until the peer's
                // acked epoch converges.
                let start = Instant::now();
                let relayed = control
                    .remote_addr_for_migration(migration_id)
                    .map(|addr| relay_cancel(control, &addr, migration_id));
                let result = match relayed {
                    Some(Ok(())) => Ok(()),
                    _ => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        control.cancel_migration(migration_id)
                    }))
                    .unwrap_or_else(|_| Err("migration cancellation panicked".to_string())),
                };
                self.lat.migrate_ctrl.record(start.elapsed());
                match result {
                    Ok(()) => out.send(&WireMsg::CtrlOk {
                        value: migration_id,
                    }),
                    Err(msg) => out.send(&WireMsg::CtrlErr {
                        status: StatusCode::ControlFailed,
                        message: msg,
                    }),
                }
            }
            WireMsg::FetchChain(query) => {
                let start = Instant::now();
                let result = control.fetch_chain(&query);
                self.lat.chain_fetch.record(start.elapsed());
                match result {
                    Ok(reply) => out.send(&WireMsg::ChainRecords(reply)),
                    // A rejection is a protocol-level answer, not a
                    // framing violation: report the typed status and keep
                    // the connection alive for further fetches.
                    Err((status, message)) => out.send(&WireMsg::CtrlErr { status, message }),
                }
            }
            WireMsg::GetMetrics => out.send(&WireMsg::Metrics(control.metrics().snapshot())),
            WireMsg::GetMetricsNs { prefix } => {
                let snap = control.metrics().snapshot().filtered(&prefix);
                out.send(&WireMsg::Metrics(snap));
            }
            WireMsg::GetMetaReplica => out.send(&WireMsg::MetaReplicaMsg(control.meta_replica())),
            WireMsg::MetaMerge(replica) => {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    control.merge_meta(&replica)
                }));
                match result {
                    Ok((epoch, changed)) => out.send(&WireMsg::MetaAck { epoch, changed }),
                    Err(_) => out.send(&WireMsg::CtrlErr {
                        status: StatusCode::ControlFailed,
                        message: "metadata merge panicked".to_string(),
                    }),
                }
            }
            WireMsg::GetBrokerStatus => out.send(&WireMsg::BrokerStatus(control.broker_status())),
            WireMsg::GetOwnership => out.send(&WireMsg::Ownership(control.ownership())),
            WireMsg::Migrate {
                source,
                target,
                fraction,
            } => {
                // Validate wire input before it reaches cluster code whose
                // invariants are enforced with asserts, and treat any
                // panic below as a failed control operation: one bad
                // request must never take an I/O thread down.
                let start = Instant::now();
                let result = if !(0.0..=1.0).contains(&fraction) {
                    Err(format!("fraction {fraction} is outside [0, 1]"))
                } else if source == target {
                    Err(format!("source and target are both server {source}"))
                } else if let Some(addr) = control.remote_source_addr(source) {
                    // The source server lives in another process: any
                    // process can originate the migration, but the hosting
                    // process drives it, so relay and merge its replica
                    // back.
                    relay_migrate(control, &addr, source, target, fraction)
                } else {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        control.migrate(source, target, fraction)
                    }))
                    .unwrap_or_else(|_| Err("migration setup panicked".to_string()))
                };
                self.lat.migrate_ctrl.record(start.elapsed());
                match result {
                    Ok(id) => out.send(&WireMsg::CtrlOk { value: id }),
                    Err(msg) => out.send(&WireMsg::CtrlErr {
                        status: StatusCode::ControlFailed,
                        message: msg,
                    }),
                }
            }
            WireMsg::Ping(token) => out.send(&WireMsg::Pong(token)),
            other => out.fail(
                StatusCode::Malformed,
                format!("unexpected frame from a client: {other:?}"),
            ),
        }
    }

    /// Forwards replies (and migration messages) from the dispatch thread
    /// back onto the socket.
    fn pump(&mut self, out: &mut Outbound) -> bool {
        let mut msgs: Vec<WireMsg> = Vec::new();
        let mut answered: Vec<u64> = Vec::new();
        let mut gone = false;
        if let Some(link) = &self.link {
            loop {
                match link.try_recv_reply() {
                    Ok(Some(reply)) => {
                        answered.push(reply.seq());
                        msgs.push(WireMsg::Reply(reply));
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // The dispatch thread went away (server shutdown).
                        gone = true;
                        break;
                    }
                }
            }
        }
        for seq in answered {
            self.outstanding = self.outstanding.saturating_sub(1);
            self.record_batch_latency(seq);
        }
        if let Some(mig) = &self.mig {
            loop {
                match mig.try_recv_msg() {
                    Ok(Some(msg)) => msgs.push(WireMsg::Migration(msg)),
                    Ok(None) => break,
                    Err(_) => {
                        gone = true;
                        break;
                    }
                }
            }
        }
        for msg in &msgs {
            out.send(msg);
        }
        if gone {
            out.close();
        }
        !msgs.is_empty()
    }

    fn owes_traffic(&self) -> bool {
        self.outstanding > 0 || self.mig.is_some()
    }
}
