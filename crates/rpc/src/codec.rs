//! The length-prefixed binary wire codec.
//!
//! Every frame on a Shadowfax TCP connection is:
//!
//! ```text
//! ┌───────────────┬──────────┬─────────────────┐
//! │ length: u32le │ kind: u8 │ payload (bytes) │
//! └───────────────┴──────────┴─────────────────┘
//! ```
//!
//! where `length` counts the kind byte plus the payload.  All integers are
//! little-endian; strings and byte strings are a `u32` length followed by
//! the bytes.  The codec is hand-rolled (the build environment has no serde
//! format crates) and deliberately explicit: the tags below are part of the
//! wire format — append, never renumber.
//!
//! Data-plane frames carry [`RequestBatch`]es client→server and
//! [`BatchReply`]s server→client, including the view number used for
//! ownership validation (paper §3.1.1/§3.2).  Control-plane frames bootstrap
//! a connection ([`WireMsg::Hello`] binds it to a dispatch thread), fetch
//! ownership mappings, and trigger migrations — the out-of-process stand-in
//! for talking to the metadata store directly.
//!
//! Migration-plane frames carry the live-migration protocol between serving
//! processes: [`WireMsg::MigHello`] binds a dedicated migration connection
//! to a target dispatch thread, and [`WireMsg::Migration`] carries the
//! view-tagged [`MigrationMsg`]s (`PrepForTransfer`, `TakeOwnership`,
//! `PushHotRecords`, `PushRecordBatch`, `CompleteMigration`, acks,
//! compaction hand-offs, plus the fault-tolerance traffic: `Heartbeat` /
//! `HeartbeatAck` liveness probes and `CancelMigration`) that the core
//! state machines exchange.  The control plane can also cancel a migration
//! ([`WireMsg::CancelMigration`]).
//!
//! Chain-fetch frames serve the *shared tier* across processes: a target
//! that received an indirection record naming a log another process hosts
//! sends a view-tagged [`WireMsg::FetchChain`] and gets the spilled chain's
//! records back in one [`WireMsg::ChainRecords`] batch (stale views and
//! out-of-range addresses are rejected with typed `CtrlErr` frames).
//!
//! Telemetry frames export the unified metrics registry: a
//! [`WireMsg::GetMetrics`] control request is answered by one versioned
//! [`WireMsg::Metrics`] snapshot carrying every counter family, gauge,
//! latency histogram (sparse log-linear buckets), and the migration-phase
//! event timeline — the single source for `shadowfax-cli metrics` and the
//! checked-in `BENCH_*.json` perf trajectories.  Namespaced pulls
//! ([`WireMsg::GetMetricsNs`]) answer with the same frame filtered to one
//! name prefix; they replaced the retired single-family stats frames, whose
//! kind bytes (`0x2A`/`0x2B`, `0x42`/`0x43`) stay unassigned.
//!
//! Broker frames replicate the metadata store across processes: the broker
//! pulls every peer's epoch-tagged replica ([`WireMsg::GetMetaReplica`] →
//! [`WireMsg::MetaReplicaMsg`]), merges, and fans the merged replica back
//! out ([`WireMsg::MetaMerge`] → [`WireMsg::MetaAck`] carrying the peer's
//! post-merge epoch).  [`WireMsg::GetBrokerStatus`] reports a process's
//! coordinator role, broker address, epoch, and per-peer convergence.
//!
//! Tier frames speak to the `shadowfax-tier` daemon — the one genuinely
//! shared blob store every serving process mirrors its spilled chains
//! into: [`WireMsg::TierLease`] grants per-log write leases,
//! [`WireMsg::TierAppend`] mirrors spill writes under a lease,
//! [`WireMsg::TierRead`] reads any log's bytes back (that is how a process
//! walks another process's spilled chain without an RPC to it), and
//! [`WireMsg::GetTierStatus`] / [`WireMsg::TierStatus`] report per-log
//! extents and lease holders for `shadowfax-cli tier status`.

use shadowfax::{
    ChainFetchQuery, ChainFetchReply, HashRange, MigratedItem, MigrationAckPhase, MigrationMsg,
    ServerId,
};
use shadowfax_net::{BatchReply, KvRequest, KvResponse, RequestBatch, StatusCode};
use shadowfax_obs::{HistogramSnapshot, MetricsSnapshot, TimelineEvent};
use shadowfax_storage::TierRecord;

/// Default per-frame size limit (16 MiB): far above any sane batch, low
/// enough that a corrupt length prefix cannot OOM the receiver.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Frame kind tags (`kind` byte).  Part of the wire format.
mod kind {
    pub const BATCH: u8 = 0x01;
    pub const REPLY: u8 = 0x02;
    pub const HELLO: u8 = 0x10;
    pub const GET_OWNERSHIP: u8 = 0x20;
    pub const OWNERSHIP: u8 = 0x21;
    pub const MIGRATE: u8 = 0x22;
    pub const CTRL_OK: u8 = 0x23;
    pub const CTRL_ERR: u8 = 0x24;
    pub const PING: u8 = 0x25;
    pub const PONG: u8 = 0x26;
    pub const MIG_STATUS: u8 = 0x27;
    pub const MIG_STATE: u8 = 0x28;
    pub const CANCEL_MIGRATION: u8 = 0x29;
    pub const MIG_HELLO: u8 = 0x30;
    pub const MIGRATION: u8 = 0x31;
    pub const FETCH_CHAIN: u8 = 0x40;
    pub const CHAIN_RECORDS: u8 = 0x41;
    pub const GET_METRICS: u8 = 0x50;
    pub const METRICS: u8 = 0x51;
    pub const GET_METRICS_NS: u8 = 0x52;
    pub const GET_META_REPLICA: u8 = 0x53;
    pub const META_REPLICA: u8 = 0x54;
    pub const META_MERGE: u8 = 0x55;
    pub const META_ACK: u8 = 0x56;
    pub const GET_BROKER_STATUS: u8 = 0x57;
    pub const BROKER_STATUS: u8 = 0x58;
    pub const TIER_LEASE: u8 = 0x60;
    pub const TIER_APPEND: u8 = 0x61;
    pub const TIER_READ: u8 = 0x62;
    pub const TIER_DATA: u8 = 0x63;
    pub const GET_TIER_STATUS: u8 = 0x64;
    pub const TIER_STATUS: u8 = 0x65;
}

/// Errors from encoding or decoding frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the structure it claims to carry.
    Truncated,
    /// A frame declared a length above the receiver's limit.
    Oversized {
        /// Declared body length.
        len: usize,
        /// The receiver's limit.
        max: usize,
    },
    /// An unknown tag byte.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A structurally well-formed field held a semantically invalid value
    /// (e.g. an inverted hash range).
    Invalid {
        /// What was being decoded.
        context: &'static str,
    },
    /// A frame's payload was longer than the structure it carries.
    TrailingBytes {
        /// Number of undecoded bytes left over.
        count: usize,
    },
}

impl CodecError {
    /// The wire status code reported back to a peer that sent this garbage.
    pub fn status_code(&self) -> StatusCode {
        match self {
            CodecError::Oversized { .. } => StatusCode::Oversized,
            _ => StatusCode::Malformed,
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("frame payload truncated"),
            CodecError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte limit")
            }
            CodecError::BadTag { context, tag } => {
                write!(f, "unknown tag {tag:#04x} while decoding {context}")
            }
            CodecError::BadUtf8 => f.write_str("string field is not valid UTF-8"),
            CodecError::Invalid { context } => {
                write!(f, "semantically invalid value while decoding {context}")
            }
            CodecError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete frame body")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Ownership metadata for one server, as carried on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireServerInfo {
    /// The server's cluster-wide id.
    pub id: u32,
    /// The server's fabric base address (`"sv0"`); dispatch thread `t`
    /// listens at `"sv0/t{t}"`.
    pub address: String,
    /// Number of dispatch threads.
    pub threads: u32,
    /// The server's current view number.
    pub view: u64,
    /// Owned hash ranges as `[start, end)` pairs.
    pub ranges: Vec<(u64, u64)>,
}

impl WireServerInfo {
    /// `true` if `hash` falls in one of this server's owned ranges.
    /// Delegates to [`shadowfax::HashRange::contains`] so client-side
    /// routing can never diverge from server-side ownership validation.
    pub fn owns_hash(&self, hash: u64) -> bool {
        self.ranges.iter().any(|&(start, end)| {
            // Guard against hostile wire data; HashRange::new asserts on
            // inverted ranges.
            start <= end && shadowfax::HashRange { start, end }.contains(hash)
        })
    }
}

/// A consistent ownership snapshot, as carried on the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireOwnership {
    /// Every registered server.
    pub servers: Vec<WireServerInfo>,
}

impl WireOwnership {
    /// The server owning `hash`, if any.
    pub fn owner_of(&self, hash: u64) -> Option<&WireServerInfo> {
        self.servers.iter().find(|s| s.owns_hash(hash))
    }

    /// The metadata of server `id`.
    pub fn server(&self, id: u32) -> Option<&WireServerInfo> {
        self.servers.iter().find(|s| s.id == id)
    }
}

/// Every message that can travel on a Shadowfax TCP connection.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// First frame on a data connection: binds it to the dispatch thread
    /// listening at `fabric_addr` (e.g. `"sv0/t1"`).
    Hello {
        /// Fabric address of the target dispatch thread.
        fabric_addr: String,
    },
    /// A pipelined request batch (client → server).
    Batch(RequestBatch),
    /// The reply to one batch (server → client).
    Reply(BatchReply),
    /// Request the current ownership snapshot (control plane).
    GetOwnership,
    /// The ownership snapshot (control plane reply).
    Ownership(WireOwnership),
    /// Trigger a migration of `fraction` of `source`'s first owned range to
    /// `target` (control plane; the out-of-process stand-in for poking the
    /// metadata store / operator API).
    Migrate {
        /// Source server id.
        source: u32,
        /// Target server id.
        target: u32,
        /// Fraction of the source's first owned range to move, in `[0, 1]`.
        fraction: f64,
    },
    /// Control operation succeeded; `value` is operation-specific (e.g. the
    /// migration id).
    CtrlOk {
        /// Operation-specific result.
        value: u64,
    },
    /// Control or protocol failure, with the typed status and a message.
    CtrlErr {
        /// The typed status code.
        status: StatusCode,
        /// Human-readable detail.
        message: String,
    },
    /// Liveness probe carrying an opaque token.
    Ping(u64),
    /// Liveness reply echoing the token.
    Pong(u64),
    /// Query the state of a migration by id (control plane).
    MigrationStatus {
        /// The id returned by [`WireMsg::Migrate`]'s `CtrlOk`.
        migration_id: u64,
    },
    /// The state of a migration (control plane reply).
    MigrationState(WireMigrationState),
    /// Cancel an in-flight migration (control plane; the operator-driven
    /// path — liveness-triggered cancellation runs inside the serving
    /// processes).  Answered with [`WireMsg::CtrlOk`] carrying the
    /// migration id, or a [`WireMsg::CtrlErr`] if the migration is unknown
    /// or already durably complete.
    CancelMigration {
        /// The migration to cancel.
        migration_id: u64,
    },
    /// First frame on a dedicated migration connection: binds it to
    /// dispatch thread `thread` of local server `server` in the receiving
    /// process.
    MigHello {
        /// The target server's cluster-wide id.
        server: u32,
        /// The dispatch thread the connection terminates on.
        thread: u32,
    },
    /// A migration-protocol message (either direction on a migration
    /// connection).
    Migration(MigrationMsg),
    /// View-tagged request to read a spilled record chain out of the
    /// receiving process's shared-tier log (sent by a process that received
    /// an indirection record naming a log it does not host).  Answered with
    /// [`WireMsg::ChainRecords`], or a [`WireMsg::CtrlErr`] carrying
    /// [`StatusCode::StaleView`] (view tag older than the requester's
    /// registered view) or [`StatusCode::OutOfRange`] (address beyond the
    /// log's written extent, or unknown log).
    FetchChain(ChainFetchQuery),
    /// The record batch answering a [`WireMsg::FetchChain`].
    ChainRecords(ChainFetchReply),
    /// Request a full metrics snapshot: every registry counter family,
    /// gauge, latency histogram, and the migration event timeline
    /// (control plane; `shadowfax-cli metrics`).
    GetMetrics,
    /// The versioned metrics snapshot answering [`WireMsg::GetMetrics`].
    /// The snapshot's own `version` field is the schema version — decoders
    /// accept any value and surface it to the caller.
    Metrics(MetricsSnapshot),
    /// Request a metrics snapshot filtered to names starting with `prefix`
    /// (`""` pulls everything, same as [`WireMsg::GetMetrics`]).  Answered
    /// with [`WireMsg::Metrics`].
    GetMetricsNs {
        /// The name prefix to keep (counters, gauges, histograms; timeline
        /// events are filtered on their `name` field).
        prefix: String,
    },
    /// Request the receiving process's epoch-tagged metadata replica
    /// (broker pull path).  Answered with [`WireMsg::MetaReplicaMsg`].
    GetMetaReplica,
    /// A full metadata replica (reply to [`WireMsg::GetMetaReplica`]).
    MetaReplicaMsg(WireMetaReplica),
    /// Merge this epoch-tagged replica into the receiving process's store
    /// (broker fan-out path).  Answered with [`WireMsg::MetaAck`].
    MetaMerge(WireMetaReplica),
    /// The receiver's post-merge epoch; `changed` reports whether the merge
    /// altered local state.  The broker retries fan-out to a peer until the
    /// acked epoch catches up with its own.
    MetaAck {
        /// The receiver's epoch after the merge.
        epoch: u64,
        /// Whether the merge changed the receiver's store.
        changed: bool,
    },
    /// Request the coordinator role and convergence state of the receiving
    /// process (control plane; `shadowfax-cli cluster status`).
    GetBrokerStatus,
    /// The coordinator status (reply to [`WireMsg::GetBrokerStatus`]).
    BrokerStatus(WireBrokerStatus),
    /// Acquire (or take over) the write lease on one tier log (serving
    /// process → tier daemon).  Answered with [`WireMsg::CtrlOk`] carrying
    /// the granted lease id; every grant bumps the id, so a previous holder
    /// whose lease was taken over gets [`StatusCode::StaleView`] on its
    /// next append.
    TierLease {
        /// The tier log to lease (the hosting server's global id).
        log: u64,
        /// The requesting process's identity (its base global server id).
        holder: u64,
    },
    /// Append `data` at `offset` of tier log `log` under write lease
    /// `lease` (serving process → tier daemon).  Answered with
    /// [`WireMsg::CtrlOk`] carrying the log's post-append written extent,
    /// or a [`WireMsg::CtrlErr`] with [`StatusCode::StaleView`] when the
    /// lease was superseded.
    TierAppend {
        /// The tier log being appended to.
        log: u64,
        /// The lease id granted by [`WireMsg::TierLease`].
        lease: u64,
        /// Byte offset of the append (the spill path writes at the log's
        /// own allocation addresses, so this is not forced contiguous).
        offset: u64,
        /// The bytes to write.
        data: Vec<u8>,
    },
    /// Read `len` bytes at `offset` of tier log `log` (any process → tier
    /// daemon; no lease needed).  Answered with [`WireMsg::TierData`], or a
    /// [`WireMsg::CtrlErr`] with [`StatusCode::OutOfRange`] for an unknown
    /// log or a read beyond its written extent.
    TierRead {
        /// The tier log to read.
        log: u64,
        /// Byte offset of the read.
        offset: u64,
        /// Number of bytes to read.
        len: u32,
    },
    /// The bytes answering a [`WireMsg::TierRead`].
    TierData {
        /// The tier log read.
        log: u64,
        /// The offset read.
        offset: u64,
        /// The bytes.
        data: Vec<u8>,
    },
    /// Request the tier daemon's per-log status
    /// (`shadowfax-cli tier status`).
    GetTierStatus,
    /// The tier daemon status (reply to [`WireMsg::GetTierStatus`]).
    TierStatus(WireTierStatus),
}

/// A migration dependency, as carried inside [`WireMetaReplica`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMigrationDep {
    /// The migration id (namespaced by source server id).
    pub id: u64,
    /// Server losing the ranges.
    pub source: u32,
    /// Server gaining the ranges.
    pub target: u32,
    /// The ranges being moved, as `[start, end]` pairs.
    pub ranges: Vec<(u64, u64)>,
    /// Source finished its role.
    pub source_complete: bool,
    /// Target finished its role.
    pub target_complete: bool,
    /// The migration was cancelled and rolled back.
    pub cancelled: bool,
}

/// A full epoch-tagged metadata replica, as carried on the wire (see
/// `shadowfax::MetaReplica`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireMetaReplica {
    /// The exporting store's cluster epoch.
    pub epoch: u64,
    /// The exporting store's migration sequence counter.
    pub next_migration_seq: u64,
    /// Every registered server (reuses the ownership entry layout).
    pub servers: Vec<WireServerInfo>,
    /// In-flight migration dependencies.
    pub pending: Vec<WireMigrationDep>,
    /// Durably completed migrations.
    pub completed: Vec<WireMigrationDep>,
    /// Cancelled migrations.
    pub cancelled: Vec<WireMigrationDep>,
}

/// One peer's convergence state, as carried in [`WireBrokerStatus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireBrokerPeer {
    /// The peer process's control address.
    pub addr: String,
    /// The latest epoch the peer acked a fan-out at (0 = never).
    pub acked_epoch: u64,
    /// Whether the last probe/fan-out to the peer succeeded.
    pub reachable: bool,
}

/// A process's coordinator role and convergence state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireBrokerStatus {
    /// 0 = solo (no coordinator running), 1 = broker, 2 = follower.
    pub role: u8,
    /// The control address of the process currently acting as broker
    /// (empty when unknown, e.g. mid-election).
    pub broker_addr: String,
    /// The local store's cluster epoch.
    pub epoch: u64,
    /// Per-peer convergence, broker role only (followers report empty).
    pub peers: Vec<WireBrokerPeer>,
    /// The shared tier daemon this process resolves spilled chains against
    /// (empty when none is configured and chain fetches use peer RPC).
    pub tier_addr: String,
    /// Whether the tier daemon answered this process's last append/read
    /// (`false` also when no daemon is configured).
    pub tier_reachable: bool,
    /// Cancellation relays the coordinator gave up on after the retry cap
    /// (dep × peer pairs presumed permanently dead; 0 when healthy).
    pub cancel_escalated: u64,
}

/// Per-log state of the shared tier daemon, as carried in
/// [`WireTierStatus`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTierLog {
    /// The tier log id (the hosting server's global id).
    pub log: u64,
    /// The log's written extent in bytes (chunk-granular).
    pub extent: u64,
    /// The current write lease id (0 = never leased).
    pub lease: u64,
    /// The lease holder's identity (base global server id; 0 when never
    /// leased).
    pub holder: u64,
}

/// The shared tier daemon's status, answering [`WireMsg::GetTierStatus`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireTierStatus {
    /// Appends the daemon served since start.
    pub appends: u64,
    /// Reads the daemon served since start.
    pub reads: u64,
    /// Appends rejected for a superseded lease.
    pub rejected_stale_lease: u64,
    /// Every log the daemon hosts.
    pub logs: Vec<WireTierLog>,
}

impl WireBrokerStatus {
    /// Role byte for a process not running a coordinator.
    pub const ROLE_SOLO: u8 = 0;
    /// Role byte for the process currently acting as broker.
    pub const ROLE_BROKER: u8 = 1;
    /// Role byte for a process following a broker.
    pub const ROLE_FOLLOWER: u8 = 2;

    /// Human-readable role name.
    pub fn role_name(&self) -> &'static str {
        match self.role {
            Self::ROLE_BROKER => "broker",
            Self::ROLE_FOLLOWER => "follower",
            _ => "solo",
        }
    }
}

impl WireMigrationDep {
    /// Converts from the core dependency type.
    pub fn from_dep(dep: &shadowfax::MigrationDep) -> Self {
        WireMigrationDep {
            id: dep.id,
            source: dep.source.0,
            target: dep.target.0,
            ranges: dep.ranges.iter().map(|r| (r.start, r.end)).collect(),
            source_complete: dep.source_complete,
            target_complete: dep.target_complete,
            cancelled: dep.cancelled,
        }
    }

    /// Converts back to the core dependency type.
    pub fn to_dep(&self) -> shadowfax::MigrationDep {
        shadowfax::MigrationDep {
            id: self.id,
            source: ServerId(self.source),
            target: ServerId(self.target),
            ranges: self
                .ranges
                .iter()
                .map(|&(start, end)| HashRange { start, end })
                .collect(),
            source_complete: self.source_complete,
            target_complete: self.target_complete,
            cancelled: self.cancelled,
        }
    }
}

impl WireMetaReplica {
    /// Converts from the core replica type.
    pub fn from_replica(replica: &shadowfax::MetaReplica) -> Self {
        WireMetaReplica {
            epoch: replica.epoch,
            next_migration_seq: replica.next_migration_seq,
            servers: replica
                .servers
                .iter()
                .map(|(id, m)| WireServerInfo {
                    id: id.0,
                    address: m.address.clone(),
                    threads: m.threads as u32,
                    view: m.view,
                    ranges: m.owned.ranges().iter().map(|r| (r.start, r.end)).collect(),
                })
                .collect(),
            pending: replica
                .pending
                .iter()
                .map(WireMigrationDep::from_dep)
                .collect(),
            completed: replica
                .completed
                .iter()
                .map(WireMigrationDep::from_dep)
                .collect(),
            cancelled: replica
                .cancelled
                .iter()
                .map(WireMigrationDep::from_dep)
                .collect(),
        }
    }

    /// Converts back to the core replica type.
    pub fn to_replica(&self) -> shadowfax::MetaReplica {
        shadowfax::MetaReplica {
            epoch: self.epoch,
            next_migration_seq: self.next_migration_seq,
            servers: self
                .servers
                .iter()
                .map(|s| {
                    (
                        ServerId(s.id),
                        shadowfax::ServerMeta {
                            view: s.view,
                            owned: shadowfax::RangeSet::from_ranges(
                                s.ranges
                                    .iter()
                                    .map(|&(start, end)| HashRange { start, end }),
                            ),
                            address: s.address.clone(),
                            threads: s.threads as usize,
                        },
                    )
                })
                .collect(),
            pending: self.pending.iter().map(WireMigrationDep::to_dep).collect(),
            completed: self
                .completed
                .iter()
                .map(WireMigrationDep::to_dep)
                .collect(),
            cancelled: self
                .cancelled
                .iter()
                .map(WireMigrationDep::to_dep)
                .collect(),
        }
    }
}

/// Shared-tier chain-fetch counters of one process, assembled by
/// [`CtrlClient::tier_stats`](crate::CtrlClient::tier_stats) from a
/// namespaced metrics pull.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTierStats {
    /// Chain fetches this process served out of its shared tier.
    pub served: u64,
    /// Total records across all served batches.
    pub records_served: u64,
    /// Fetches rejected for a stale view tag.
    pub rejected_stale_view: u64,
    /// Fetches rejected for an out-of-range address or unknown log.
    pub rejected_out_of_range: u64,
    /// Chain fetches this process resolved against *remote* tiers.
    pub remote_fetches: u64,
}

/// Cancellation / liveness counters of one process, assembled by
/// [`CtrlClient::cancel_stats`](crate::CtrlClient::cancel_stats) from a
/// namespaced metrics pull.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCancelStats {
    /// Cancellation events at this process's servers, one per server role
    /// rolled back (an in-process migration cancelled at both of its local
    /// roles counts twice).
    pub migrations_cancelled: u64,
    /// Migration items whose shipment was undone by cancellations.
    pub records_rolled_back: u64,
    /// Heartbeat intervals that elapsed without hearing from a migration
    /// peer.
    pub heartbeats_missed: u64,
}

/// The state of one migration, as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireMigrationState {
    /// The migration id.
    pub migration_id: u64,
    /// `true` once both sides have completed and the dependency has been
    /// garbage collected from the metadata store.
    pub complete: bool,
    /// `true` once the source has checkpointed and finished its role.
    pub source_complete: bool,
    /// `true` once the target has checkpointed and finished its role.
    pub target_complete: bool,
    /// `true` if the migration was cancelled and ownership rolled back to
    /// the source (mutually exclusive with `complete`).
    pub cancelled: bool,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_request(out: &mut Vec<u8>, req: &KvRequest) {
    match req {
        KvRequest::Read { key } => {
            out.push(0);
            put_u64(out, *key);
        }
        KvRequest::Upsert { key, value } => {
            out.push(1);
            put_u64(out, *key);
            put_bytes(out, value);
        }
        KvRequest::RmwAdd { key, delta } => {
            out.push(2);
            put_u64(out, *key);
            put_u64(out, *delta);
        }
        KvRequest::Delete { key } => {
            out.push(3);
            put_u64(out, *key);
        }
    }
}

fn put_ranges(out: &mut Vec<u8>, ranges: &[HashRange]) {
    put_u32(out, ranges.len() as u32);
    for r in ranges {
        put_u64(out, r.start);
        put_u64(out, r.end);
    }
}

fn put_server_info(out: &mut Vec<u8>, s: &WireServerInfo) {
    put_u32(out, s.id);
    put_str(out, &s.address);
    put_u32(out, s.threads);
    put_u64(out, s.view);
    put_u32(out, s.ranges.len() as u32);
    for &(start, end) in &s.ranges {
        put_u64(out, start);
        put_u64(out, end);
    }
}

fn put_wire_dep(out: &mut Vec<u8>, dep: &WireMigrationDep) {
    put_u64(out, dep.id);
    put_u32(out, dep.source);
    put_u32(out, dep.target);
    put_u32(out, dep.ranges.len() as u32);
    for &(start, end) in &dep.ranges {
        put_u64(out, start);
        put_u64(out, end);
    }
    out.push(u8::from(dep.source_complete));
    out.push(u8::from(dep.target_complete));
    out.push(u8::from(dep.cancelled));
}

pub(crate) fn put_wire_replica(out: &mut Vec<u8>, replica: &WireMetaReplica) {
    put_u64(out, replica.epoch);
    put_u64(out, replica.next_migration_seq);
    put_u32(out, replica.servers.len() as u32);
    for s in &replica.servers {
        put_server_info(out, s);
    }
    for list in [&replica.pending, &replica.completed, &replica.cancelled] {
        put_u32(out, list.len() as u32);
        for dep in list {
            put_wire_dep(out, dep);
        }
    }
}

fn put_migrated_item(out: &mut Vec<u8>, item: &MigratedItem) {
    match item {
        MigratedItem::Record { key, value } => {
            out.push(0);
            put_u64(out, *key);
            put_bytes(out, value);
        }
        MigratedItem::Indirection {
            representative_hash,
            payload,
        } => {
            out.push(1);
            put_u64(out, *representative_hash);
            put_bytes(out, payload);
        }
    }
}

fn ack_phase_byte(phase: MigrationAckPhase) -> u8 {
    match phase {
        MigrationAckPhase::Prepared => 0,
        MigrationAckPhase::OwnershipReceived => 1,
        MigrationAckPhase::Completed => 2,
    }
}

fn put_migration_msg(out: &mut Vec<u8>, msg: &MigrationMsg) {
    match msg {
        MigrationMsg::PrepForTransfer {
            migration_id,
            ranges,
            source,
            target_view,
        } => {
            out.push(0);
            put_u64(out, *migration_id);
            put_u64(out, *target_view);
            put_u32(out, source.0);
            put_ranges(out, ranges);
        }
        MigrationMsg::TakeOwnership {
            migration_id,
            ranges,
            target_view,
        } => {
            out.push(1);
            put_u64(out, *migration_id);
            put_u64(out, *target_view);
            put_ranges(out, ranges);
        }
        MigrationMsg::PushHotRecords {
            migration_id,
            target_view,
            records,
        } => {
            out.push(2);
            put_u64(out, *migration_id);
            put_u64(out, *target_view);
            put_u32(out, records.len() as u32);
            for (key, value) in records {
                put_u64(out, *key);
                put_bytes(out, value);
            }
        }
        MigrationMsg::PushRecordBatch {
            migration_id,
            target_view,
            items,
        } => {
            out.push(3);
            put_u64(out, *migration_id);
            put_u64(out, *target_view);
            put_u32(out, items.len() as u32);
            for item in items {
                put_migrated_item(out, item);
            }
        }
        MigrationMsg::CompleteMigration {
            migration_id,
            target_view,
            total_items,
        } => {
            out.push(4);
            put_u64(out, *migration_id);
            put_u64(out, *target_view);
            put_u64(out, *total_items);
        }
        MigrationMsg::Ack {
            migration_id,
            phase,
        } => {
            out.push(5);
            put_u64(out, *migration_id);
            out.push(ack_phase_byte(*phase));
        }
        MigrationMsg::CompactionHandoff { key, value } => {
            out.push(6);
            put_u64(out, *key);
            put_bytes(out, value);
        }
        MigrationMsg::Heartbeat { migration_id, view } => {
            out.push(7);
            put_u64(out, *migration_id);
            put_u64(out, *view);
        }
        MigrationMsg::HeartbeatAck { migration_id, view } => {
            out.push(8);
            put_u64(out, *migration_id);
            put_u64(out, *view);
        }
        MigrationMsg::CancelMigration { migration_id, view } => {
            out.push(9);
            put_u64(out, *migration_id);
            put_u64(out, *view);
        }
    }
}

fn put_response(out: &mut Vec<u8>, resp: &KvResponse) {
    match resp {
        KvResponse::Value(None) => out.push(0),
        KvResponse::Value(Some(v)) => {
            out.push(1);
            put_bytes(out, v);
        }
        KvResponse::Counter(c) => {
            out.push(2);
            put_u64(out, *c);
        }
        KvResponse::Ok => out.push(3),
        KvResponse::Deleted(existed) => {
            out.push(4);
            out.push(u8::from(*existed));
        }
        KvResponse::Pending => out.push(5),
        KvResponse::Error(msg) => {
            out.push(6);
            put_str(out, msg);
        }
    }
}

/// Encodes `msg` as one complete frame (length prefix included).
pub fn encode_frame(msg: &WireMsg) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    match msg {
        WireMsg::Hello { fabric_addr } => {
            body.push(kind::HELLO);
            put_str(&mut body, fabric_addr);
        }
        WireMsg::Batch(batch) => {
            body.push(kind::BATCH);
            put_u64(&mut body, batch.view);
            put_u64(&mut body, batch.seq);
            put_u32(&mut body, batch.ops.len() as u32);
            for op in &batch.ops {
                put_request(&mut body, op);
            }
        }
        WireMsg::Reply(reply) => {
            body.push(kind::REPLY);
            match reply {
                BatchReply::Executed { seq, results } => {
                    body.push(0);
                    put_u64(&mut body, *seq);
                    put_u32(&mut body, results.len() as u32);
                    for r in results {
                        put_response(&mut body, r);
                    }
                }
                BatchReply::Rejected { seq, server_view } => {
                    body.push(1);
                    put_u64(&mut body, *seq);
                    put_u64(&mut body, *server_view);
                }
            }
        }
        WireMsg::GetOwnership => body.push(kind::GET_OWNERSHIP),
        WireMsg::Ownership(own) => {
            body.push(kind::OWNERSHIP);
            put_u32(&mut body, own.servers.len() as u32);
            for s in &own.servers {
                put_server_info(&mut body, s);
            }
        }
        WireMsg::Migrate {
            source,
            target,
            fraction,
        } => {
            body.push(kind::MIGRATE);
            put_u32(&mut body, *source);
            put_u32(&mut body, *target);
            put_u64(&mut body, fraction.to_bits());
        }
        WireMsg::CtrlOk { value } => {
            body.push(kind::CTRL_OK);
            put_u64(&mut body, *value);
        }
        WireMsg::CtrlErr { status, message } => {
            body.push(kind::CTRL_ERR);
            body.push(status.as_u8());
            put_str(&mut body, message);
        }
        WireMsg::Ping(token) => {
            body.push(kind::PING);
            put_u64(&mut body, *token);
        }
        WireMsg::Pong(token) => {
            body.push(kind::PONG);
            put_u64(&mut body, *token);
        }
        WireMsg::MigrationStatus { migration_id } => {
            body.push(kind::MIG_STATUS);
            put_u64(&mut body, *migration_id);
        }
        WireMsg::MigrationState(state) => {
            body.push(kind::MIG_STATE);
            put_u64(&mut body, state.migration_id);
            body.push(u8::from(state.complete));
            body.push(u8::from(state.source_complete));
            body.push(u8::from(state.target_complete));
            body.push(u8::from(state.cancelled));
        }
        WireMsg::CancelMigration { migration_id } => {
            body.push(kind::CANCEL_MIGRATION);
            put_u64(&mut body, *migration_id);
        }
        WireMsg::MigHello { server, thread } => {
            body.push(kind::MIG_HELLO);
            put_u32(&mut body, *server);
            put_u32(&mut body, *thread);
        }
        WireMsg::Migration(msg) => {
            body.push(kind::MIGRATION);
            put_migration_msg(&mut body, msg);
        }
        WireMsg::FetchChain(query) => {
            body.push(kind::FETCH_CHAIN);
            put_u32(&mut body, query.requester);
            put_u64(&mut body, query.view);
            put_u64(&mut body, query.log);
            put_u64(&mut body, query.address);
            put_u32(&mut body, query.max_records);
        }
        WireMsg::ChainRecords(reply) => {
            body.push(kind::CHAIN_RECORDS);
            put_u64(&mut body, reply.log);
            put_u64(&mut body, reply.address);
            put_u64(&mut body, reply.next);
            put_u32(&mut body, reply.records.len() as u32);
            for rec in &reply.records {
                put_u64(&mut body, rec.key);
                body.extend_from_slice(&rec.flags.to_le_bytes());
                put_bytes(&mut body, &rec.value);
            }
        }
        WireMsg::GetMetrics => body.push(kind::GET_METRICS),
        WireMsg::Metrics(snap) => {
            body.push(kind::METRICS);
            put_u32(&mut body, snap.version);
            put_u64(&mut body, snap.uptime_micros);
            put_u32(&mut body, snap.counters.len() as u32);
            for (name, value) in &snap.counters {
                put_str(&mut body, name);
                put_u64(&mut body, *value);
            }
            put_u32(&mut body, snap.gauges.len() as u32);
            for (name, value) in &snap.gauges {
                put_str(&mut body, name);
                put_u64(&mut body, *value);
            }
            put_u32(&mut body, snap.histograms.len() as u32);
            for h in &snap.histograms {
                put_str(&mut body, &h.name);
                put_u64(&mut body, h.count);
                put_u64(&mut body, h.total_ns);
                put_u64(&mut body, h.max_ns);
                put_u32(&mut body, h.buckets.len() as u32);
                for (idx, c) in &h.buckets {
                    put_u32(&mut body, *idx);
                    put_u64(&mut body, *c);
                }
            }
            put_u32(&mut body, snap.events.len() as u32);
            for ev in &snap.events {
                put_u64(&mut body, ev.at_micros);
                put_str(&mut body, &ev.name);
                put_str(&mut body, &ev.label);
                put_u64(&mut body, ev.id);
            }
        }
        WireMsg::GetMetricsNs { prefix } => {
            body.push(kind::GET_METRICS_NS);
            put_str(&mut body, prefix);
        }
        WireMsg::GetMetaReplica => body.push(kind::GET_META_REPLICA),
        WireMsg::MetaReplicaMsg(replica) => {
            body.push(kind::META_REPLICA);
            put_wire_replica(&mut body, replica);
        }
        WireMsg::MetaMerge(replica) => {
            body.push(kind::META_MERGE);
            put_wire_replica(&mut body, replica);
        }
        WireMsg::MetaAck { epoch, changed } => {
            body.push(kind::META_ACK);
            put_u64(&mut body, *epoch);
            body.push(u8::from(*changed));
        }
        WireMsg::GetBrokerStatus => body.push(kind::GET_BROKER_STATUS),
        WireMsg::BrokerStatus(status) => {
            body.push(kind::BROKER_STATUS);
            body.push(status.role);
            put_str(&mut body, &status.broker_addr);
            put_u64(&mut body, status.epoch);
            put_u32(&mut body, status.peers.len() as u32);
            for p in &status.peers {
                put_str(&mut body, &p.addr);
                put_u64(&mut body, p.acked_epoch);
                body.push(u8::from(p.reachable));
            }
            put_str(&mut body, &status.tier_addr);
            body.push(u8::from(status.tier_reachable));
            put_u64(&mut body, status.cancel_escalated);
        }
        WireMsg::TierLease { log, holder } => {
            body.push(kind::TIER_LEASE);
            put_u64(&mut body, *log);
            put_u64(&mut body, *holder);
        }
        WireMsg::TierAppend {
            log,
            lease,
            offset,
            data,
        } => {
            body.push(kind::TIER_APPEND);
            put_u64(&mut body, *log);
            put_u64(&mut body, *lease);
            put_u64(&mut body, *offset);
            put_bytes(&mut body, data);
        }
        WireMsg::TierRead { log, offset, len } => {
            body.push(kind::TIER_READ);
            put_u64(&mut body, *log);
            put_u64(&mut body, *offset);
            put_u32(&mut body, *len);
        }
        WireMsg::TierData { log, offset, data } => {
            body.push(kind::TIER_DATA);
            put_u64(&mut body, *log);
            put_u64(&mut body, *offset);
            put_bytes(&mut body, data);
        }
        WireMsg::GetTierStatus => body.push(kind::GET_TIER_STATUS),
        WireMsg::TierStatus(status) => {
            body.push(kind::TIER_STATUS);
            put_u64(&mut body, status.appends);
            put_u64(&mut body, status.reads);
            put_u64(&mut body, status.rejected_stale_lease);
            put_u32(&mut body, status.logs.len() as u32);
            for l in &status.logs {
                put_u64(&mut body, l.log);
                put_u64(&mut body, l.extent);
                put_u64(&mut body, l.lease);
                put_u64(&mut body, l.holder);
            }
        }
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    put_u32(&mut frame, body.len() as u32);
    frame.extend_from_slice(&body);
    frame
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        if self.remaining() < 2 {
            return Err(CodecError::Truncated);
        }
        let v = u16::from_le_bytes(self.buf[self.pos..self.pos + 2].try_into().unwrap());
        self.pos += 2;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        if self.remaining() < 4 {
            return Err(CodecError::Truncated);
        }
        let v = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        if self.remaining() < 8 {
            return Err(CodecError::Truncated);
        }
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        Ok(v)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u32()? as usize;
        if self.remaining() < len {
            return Err(CodecError::Truncated);
        }
        let v = self.buf[self.pos..self.pos + len].to_vec();
        self.pos += len;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.bytes()?).map_err(|_| CodecError::BadUtf8)
    }
}

/// Caps `Vec::with_capacity` pre-allocation so a corrupt count field cannot
/// force a huge allocation before the (truncated) payload is noticed.
fn bounded_cap(count: usize) -> usize {
    count.min(4096)
}

fn get_request(r: &mut Reader<'_>) -> Result<KvRequest, CodecError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => KvRequest::Read { key: r.u64()? },
        1 => KvRequest::Upsert {
            key: r.u64()?,
            value: r.bytes()?,
        },
        2 => KvRequest::RmwAdd {
            key: r.u64()?,
            delta: r.u64()?,
        },
        3 => KvRequest::Delete { key: r.u64()? },
        tag => {
            return Err(CodecError::BadTag {
                context: "KvRequest",
                tag,
            })
        }
    })
}

fn get_response(r: &mut Reader<'_>) -> Result<KvResponse, CodecError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => KvResponse::Value(None),
        1 => KvResponse::Value(Some(r.bytes()?)),
        2 => KvResponse::Counter(r.u64()?),
        3 => KvResponse::Ok,
        4 => KvResponse::Deleted(r.u8()? != 0),
        5 => KvResponse::Pending,
        6 => KvResponse::Error(r.string()?),
        tag => {
            return Err(CodecError::BadTag {
                context: "KvResponse",
                tag,
            })
        }
    })
}

fn get_ranges(r: &mut Reader<'_>) -> Result<Vec<HashRange>, CodecError> {
    let n = r.u32()? as usize;
    let mut ranges = Vec::with_capacity(bounded_cap(n));
    for _ in 0..n {
        let start = r.u64()?;
        let end = r.u64()?;
        if start > end {
            return Err(CodecError::Invalid {
                context: "HashRange",
            });
        }
        ranges.push(HashRange { start, end });
    }
    Ok(ranges)
}

fn get_name_values(r: &mut Reader<'_>) -> Result<Vec<(String, u64)>, CodecError> {
    let n = r.u32()? as usize;
    let mut pairs = Vec::with_capacity(bounded_cap(n));
    for _ in 0..n {
        pairs.push((r.string()?, r.u64()?));
    }
    Ok(pairs)
}

fn get_server_info(r: &mut Reader<'_>) -> Result<WireServerInfo, CodecError> {
    let id = r.u32()?;
    let address = r.string()?;
    let threads = r.u32()?;
    let view = r.u64()?;
    let n_ranges = r.u32()? as usize;
    let mut ranges = Vec::with_capacity(bounded_cap(n_ranges));
    for _ in 0..n_ranges {
        ranges.push((r.u64()?, r.u64()?));
    }
    Ok(WireServerInfo {
        id,
        address,
        threads,
        view,
        ranges,
    })
}

fn get_wire_dep(r: &mut Reader<'_>) -> Result<WireMigrationDep, CodecError> {
    let id = r.u64()?;
    let source = r.u32()?;
    let target = r.u32()?;
    let n = r.u32()? as usize;
    let mut ranges = Vec::with_capacity(bounded_cap(n));
    for _ in 0..n {
        let start = r.u64()?;
        let end = r.u64()?;
        if start > end {
            return Err(CodecError::Invalid {
                context: "WireMigrationDep range",
            });
        }
        ranges.push((start, end));
    }
    Ok(WireMigrationDep {
        id,
        source,
        target,
        ranges,
        source_complete: r.u8()? != 0,
        target_complete: r.u8()? != 0,
        cancelled: r.u8()? != 0,
    })
}

fn get_wire_replica(r: &mut Reader<'_>) -> Result<WireMetaReplica, CodecError> {
    let epoch = r.u64()?;
    let next_migration_seq = r.u64()?;
    let n = r.u32()? as usize;
    let mut servers = Vec::with_capacity(bounded_cap(n));
    for _ in 0..n {
        servers.push(get_server_info(r)?);
    }
    let mut lists: [Vec<WireMigrationDep>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for list in &mut lists {
        let n = r.u32()? as usize;
        list.reserve(bounded_cap(n));
        for _ in 0..n {
            list.push(get_wire_dep(r)?);
        }
    }
    let [pending, completed, cancelled] = lists;
    Ok(WireMetaReplica {
        epoch,
        next_migration_seq,
        servers,
        pending,
        completed,
        cancelled,
    })
}

fn get_migrated_item(r: &mut Reader<'_>) -> Result<MigratedItem, CodecError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => MigratedItem::Record {
            key: r.u64()?,
            value: r.bytes()?,
        },
        1 => MigratedItem::Indirection {
            representative_hash: r.u64()?,
            payload: r.bytes()?,
        },
        tag => {
            return Err(CodecError::BadTag {
                context: "MigratedItem",
                tag,
            })
        }
    })
}

fn get_migration_msg(r: &mut Reader<'_>) -> Result<MigrationMsg, CodecError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => {
            let migration_id = r.u64()?;
            let target_view = r.u64()?;
            let source = ServerId(r.u32()?);
            let ranges = get_ranges(r)?;
            MigrationMsg::PrepForTransfer {
                migration_id,
                ranges,
                source,
                target_view,
            }
        }
        1 => {
            let migration_id = r.u64()?;
            let target_view = r.u64()?;
            let ranges = get_ranges(r)?;
            MigrationMsg::TakeOwnership {
                migration_id,
                ranges,
                target_view,
            }
        }
        2 => {
            let migration_id = r.u64()?;
            let target_view = r.u64()?;
            let n = r.u32()? as usize;
            let mut records = Vec::with_capacity(bounded_cap(n));
            for _ in 0..n {
                records.push((r.u64()?, r.bytes()?));
            }
            MigrationMsg::PushHotRecords {
                migration_id,
                target_view,
                records,
            }
        }
        3 => {
            let migration_id = r.u64()?;
            let target_view = r.u64()?;
            let n = r.u32()? as usize;
            let mut items = Vec::with_capacity(bounded_cap(n));
            for _ in 0..n {
                items.push(get_migrated_item(r)?);
            }
            MigrationMsg::PushRecordBatch {
                migration_id,
                target_view,
                items,
            }
        }
        4 => MigrationMsg::CompleteMigration {
            migration_id: r.u64()?,
            target_view: r.u64()?,
            total_items: r.u64()?,
        },
        5 => {
            let migration_id = r.u64()?;
            let phase = match r.u8()? {
                0 => MigrationAckPhase::Prepared,
                1 => MigrationAckPhase::OwnershipReceived,
                2 => MigrationAckPhase::Completed,
                tag => {
                    return Err(CodecError::BadTag {
                        context: "MigrationAckPhase",
                        tag,
                    })
                }
            };
            MigrationMsg::Ack {
                migration_id,
                phase,
            }
        }
        6 => MigrationMsg::CompactionHandoff {
            key: r.u64()?,
            value: r.bytes()?,
        },
        7 => MigrationMsg::Heartbeat {
            migration_id: r.u64()?,
            view: r.u64()?,
        },
        8 => MigrationMsg::HeartbeatAck {
            migration_id: r.u64()?,
            view: r.u64()?,
        },
        9 => MigrationMsg::CancelMigration {
            migration_id: r.u64()?,
            view: r.u64()?,
        },
        tag => {
            return Err(CodecError::BadTag {
                context: "MigrationMsg",
                tag,
            })
        }
    })
}

fn decode_body(body: &[u8]) -> Result<WireMsg, CodecError> {
    let mut r = Reader::new(body);
    let msg = match r.u8()? {
        kind::HELLO => WireMsg::Hello {
            fabric_addr: r.string()?,
        },
        kind::BATCH => {
            let view = r.u64()?;
            let seq = r.u64()?;
            let n = r.u32()? as usize;
            let mut ops = Vec::with_capacity(bounded_cap(n));
            for _ in 0..n {
                ops.push(get_request(&mut r)?);
            }
            WireMsg::Batch(RequestBatch { view, seq, ops })
        }
        kind::REPLY => match r.u8()? {
            0 => {
                let seq = r.u64()?;
                let n = r.u32()? as usize;
                let mut results = Vec::with_capacity(bounded_cap(n));
                for _ in 0..n {
                    results.push(get_response(&mut r)?);
                }
                WireMsg::Reply(BatchReply::Executed { seq, results })
            }
            1 => WireMsg::Reply(BatchReply::Rejected {
                seq: r.u64()?,
                server_view: r.u64()?,
            }),
            tag => {
                return Err(CodecError::BadTag {
                    context: "BatchReply",
                    tag,
                })
            }
        },
        kind::GET_OWNERSHIP => WireMsg::GetOwnership,
        kind::OWNERSHIP => {
            let n = r.u32()? as usize;
            let mut servers = Vec::with_capacity(bounded_cap(n));
            for _ in 0..n {
                servers.push(get_server_info(&mut r)?);
            }
            WireMsg::Ownership(WireOwnership { servers })
        }
        kind::MIGRATE => WireMsg::Migrate {
            source: r.u32()?,
            target: r.u32()?,
            fraction: f64::from_bits(r.u64()?),
        },
        kind::CTRL_OK => WireMsg::CtrlOk { value: r.u64()? },
        kind::CTRL_ERR => {
            let status_byte = r.u8()?;
            let status = StatusCode::from_u8(status_byte).ok_or(CodecError::BadTag {
                context: "StatusCode",
                tag: status_byte,
            })?;
            WireMsg::CtrlErr {
                status,
                message: r.string()?,
            }
        }
        kind::PING => WireMsg::Ping(r.u64()?),
        kind::PONG => WireMsg::Pong(r.u64()?),
        kind::MIG_STATUS => WireMsg::MigrationStatus {
            migration_id: r.u64()?,
        },
        kind::MIG_STATE => WireMsg::MigrationState(WireMigrationState {
            migration_id: r.u64()?,
            complete: r.u8()? != 0,
            source_complete: r.u8()? != 0,
            target_complete: r.u8()? != 0,
            cancelled: r.u8()? != 0,
        }),
        kind::CANCEL_MIGRATION => WireMsg::CancelMigration {
            migration_id: r.u64()?,
        },
        kind::MIG_HELLO => WireMsg::MigHello {
            server: r.u32()?,
            thread: r.u32()?,
        },
        kind::MIGRATION => WireMsg::Migration(get_migration_msg(&mut r)?),
        kind::FETCH_CHAIN => WireMsg::FetchChain(ChainFetchQuery {
            requester: r.u32()?,
            view: r.u64()?,
            log: r.u64()?,
            address: r.u64()?,
            max_records: r.u32()?,
        }),
        kind::CHAIN_RECORDS => {
            let log = r.u64()?;
            let address = r.u64()?;
            let next = r.u64()?;
            let n = r.u32()? as usize;
            let mut records = Vec::with_capacity(bounded_cap(n));
            for _ in 0..n {
                records.push(TierRecord {
                    key: r.u64()?,
                    flags: r.u16()?,
                    value: r.bytes()?,
                });
            }
            WireMsg::ChainRecords(ChainFetchReply {
                log,
                address,
                next,
                records,
            })
        }
        kind::GET_METRICS => WireMsg::GetMetrics,
        kind::METRICS => {
            let version = r.u32()?;
            let uptime_micros = r.u64()?;
            let counters = get_name_values(&mut r)?;
            let gauges = get_name_values(&mut r)?;
            let nh = r.u32()? as usize;
            let mut histograms = Vec::with_capacity(bounded_cap(nh));
            for _ in 0..nh {
                let name = r.string()?;
                let count = r.u64()?;
                let total_ns = r.u64()?;
                let max_ns = r.u64()?;
                let nb = r.u32()? as usize;
                let mut buckets = Vec::with_capacity(bounded_cap(nb));
                for _ in 0..nb {
                    buckets.push((r.u32()?, r.u64()?));
                }
                histograms.push(HistogramSnapshot {
                    name,
                    count,
                    total_ns,
                    max_ns,
                    buckets,
                });
            }
            let ne = r.u32()? as usize;
            let mut events = Vec::with_capacity(bounded_cap(ne));
            for _ in 0..ne {
                events.push(TimelineEvent {
                    at_micros: r.u64()?,
                    name: r.string()?,
                    label: r.string()?,
                    id: r.u64()?,
                });
            }
            WireMsg::Metrics(MetricsSnapshot {
                version,
                uptime_micros,
                counters,
                gauges,
                histograms,
                events,
            })
        }
        kind::GET_METRICS_NS => WireMsg::GetMetricsNs {
            prefix: r.string()?,
        },
        kind::GET_META_REPLICA => WireMsg::GetMetaReplica,
        kind::META_REPLICA => WireMsg::MetaReplicaMsg(get_wire_replica(&mut r)?),
        kind::META_MERGE => WireMsg::MetaMerge(get_wire_replica(&mut r)?),
        kind::META_ACK => WireMsg::MetaAck {
            epoch: r.u64()?,
            changed: r.u8()? != 0,
        },
        kind::GET_BROKER_STATUS => WireMsg::GetBrokerStatus,
        kind::BROKER_STATUS => {
            let role = r.u8()?;
            if role > WireBrokerStatus::ROLE_FOLLOWER {
                return Err(CodecError::BadTag {
                    context: "broker role",
                    tag: role,
                });
            }
            let broker_addr = r.string()?;
            let epoch = r.u64()?;
            let n = r.u32()? as usize;
            let mut peers = Vec::with_capacity(bounded_cap(n));
            for _ in 0..n {
                peers.push(WireBrokerPeer {
                    addr: r.string()?,
                    acked_epoch: r.u64()?,
                    reachable: r.u8()? != 0,
                });
            }
            let tier_addr = r.string()?;
            let tier_reachable = r.u8()? != 0;
            let cancel_escalated = r.u64()?;
            WireMsg::BrokerStatus(WireBrokerStatus {
                role,
                broker_addr,
                epoch,
                peers,
                tier_addr,
                tier_reachable,
                cancel_escalated,
            })
        }
        kind::TIER_LEASE => WireMsg::TierLease {
            log: r.u64()?,
            holder: r.u64()?,
        },
        kind::TIER_APPEND => WireMsg::TierAppend {
            log: r.u64()?,
            lease: r.u64()?,
            offset: r.u64()?,
            data: r.bytes()?,
        },
        kind::TIER_READ => WireMsg::TierRead {
            log: r.u64()?,
            offset: r.u64()?,
            len: r.u32()?,
        },
        kind::TIER_DATA => WireMsg::TierData {
            log: r.u64()?,
            offset: r.u64()?,
            data: r.bytes()?,
        },
        kind::GET_TIER_STATUS => WireMsg::GetTierStatus,
        kind::TIER_STATUS => {
            let appends = r.u64()?;
            let reads = r.u64()?;
            let rejected_stale_lease = r.u64()?;
            let n = r.u32()? as usize;
            let mut logs = Vec::with_capacity(bounded_cap(n));
            for _ in 0..n {
                logs.push(WireTierLog {
                    log: r.u64()?,
                    extent: r.u64()?,
                    lease: r.u64()?,
                    holder: r.u64()?,
                });
            }
            WireMsg::TierStatus(WireTierStatus {
                appends,
                reads,
                rejected_stale_lease,
                logs,
            })
        }
        tag => {
            return Err(CodecError::BadTag {
                context: "frame kind",
                tag,
            })
        }
    };
    if r.remaining() > 0 {
        return Err(CodecError::TrailingBytes {
            count: r.remaining(),
        });
    }
    Ok(msg)
}

/// An incremental frame decoder: feed it raw socket bytes with
/// [`FrameDecoder::extend`], pull complete messages with
/// [`FrameDecoder::next_msg`].
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameDecoder {
    /// Creates a decoder enforcing `max_frame` as the body-length limit.
    pub fn new(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            max_frame,
        }
    }

    /// Appends raw bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether `next_msg` would make progress right now: a complete
    /// frame is buffered (or an oversized length prefix is waiting to be
    /// surfaced as an error).  `false` means the buffer holds at most a
    /// partial frame — more socket bytes are required before any frame
    /// can decode.
    pub fn has_complete_frame(&self) -> bool {
        if self.buf.len() < 4 {
            return false;
        }
        let len = u32::from_le_bytes(self.buf[0..4].try_into().unwrap()) as usize;
        len > self.max_frame || self.buf.len() >= 4 + len
    }

    /// Decodes the next complete message, if a full frame has arrived.
    ///
    /// A frame whose declared length exceeds the limit fails with
    /// [`CodecError::Oversized`] *before* its payload is buffered, so a
    /// corrupt or hostile length prefix cannot balloon memory.
    pub fn next_msg(&mut self) -> Result<Option<WireMsg>, CodecError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[0..4].try_into().unwrap()) as usize;
        if len > self.max_frame {
            return Err(CodecError::Oversized {
                len,
                max: self.max_frame,
            });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let msg = decode_body(&self.buf[4..4 + len])?;
        self.buf.drain(..4 + len);
        Ok(Some(msg))
    }
}

/// Decodes one complete frame from `bytes` (convenience for tests and
/// blocking paths).  Returns the message and the number of bytes consumed.
pub fn decode_frame(bytes: &[u8], max_frame: usize) -> Result<(WireMsg, usize), CodecError> {
    if bytes.len() < 4 {
        return Err(CodecError::Truncated);
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    if len > max_frame {
        return Err(CodecError::Oversized {
            len,
            max: max_frame,
        });
    }
    if bytes.len() < 4 + len {
        return Err(CodecError::Truncated);
    }
    Ok((decode_body(&bytes[4..4 + len])?, 4 + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: WireMsg) {
        let frame = encode_frame(&msg);
        let (decoded, consumed) = decode_frame(&frame, MAX_FRAME_BYTES).expect("decode");
        assert_eq!(consumed, frame.len());
        assert_eq!(decoded, msg);
    }

    fn sample_batch() -> RequestBatch {
        RequestBatch {
            view: 7,
            seq: 42,
            ops: vec![
                KvRequest::Read { key: 1 },
                KvRequest::Upsert {
                    key: 2,
                    value: vec![9u8; 300],
                },
                KvRequest::RmwAdd { key: 3, delta: 5 },
                KvRequest::Delete { key: 4 },
            ],
        }
    }

    #[test]
    fn roundtrip_every_message_kind() {
        roundtrip(WireMsg::Hello {
            fabric_addr: "sv0/t3".into(),
        });
        roundtrip(WireMsg::Batch(sample_batch()));
        roundtrip(WireMsg::Reply(BatchReply::Executed {
            seq: 42,
            results: vec![
                KvResponse::Value(None),
                KvResponse::Value(Some(b"abc".to_vec())),
                KvResponse::Counter(12),
                KvResponse::Ok,
                KvResponse::Deleted(true),
                KvResponse::Pending,
                KvResponse::Error("boom".into()),
            ],
        }));
        roundtrip(WireMsg::Reply(BatchReply::Rejected {
            seq: 9,
            server_view: 3,
        }));
        roundtrip(WireMsg::GetOwnership);
        roundtrip(WireMsg::Ownership(WireOwnership {
            servers: vec![WireServerInfo {
                id: 0,
                address: "sv0".into(),
                threads: 2,
                view: 4,
                ranges: vec![(0, 1 << 63), (u64::MAX / 2 + 1, u64::MAX)],
            }],
        }));
        roundtrip(WireMsg::Migrate {
            source: 0,
            target: 1,
            fraction: 0.1,
        });
        roundtrip(WireMsg::CtrlOk { value: 17 });
        roundtrip(WireMsg::CtrlErr {
            status: StatusCode::StaleView,
            message: "view 3 < 4".into(),
        });
        roundtrip(WireMsg::Ping(0xDEAD));
        roundtrip(WireMsg::Pong(0xBEEF));
    }

    #[test]
    fn truncated_frames_are_rejected_at_every_cut() {
        let frame = encode_frame(&WireMsg::Batch(sample_batch()));
        // Whole-frame decode: any prefix must fail Truncated, never panic.
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut], MAX_FRAME_BYTES) {
                Err(CodecError::Truncated) => {}
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_payload_with_lying_length_is_rejected() {
        // A frame whose length prefix claims *less* payload than the body's
        // structure needs: inner fields run off the end of the body slice.
        let mut frame = encode_frame(&WireMsg::Ping(1)); // body = kind + u64 = 9 bytes
        frame[0..4].copy_from_slice(&5u32.to_le_bytes()); // claim only 5
        assert_eq!(
            decode_frame(&frame, MAX_FRAME_BYTES),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn oversized_frames_are_rejected_before_buffering() {
        let mut decoder = FrameDecoder::new(1024);
        // Length prefix claims 1 MiB.
        decoder.extend(&(1u32 << 20).to_le_bytes());
        match decoder.next_msg() {
            Err(CodecError::Oversized { len, max }) => {
                assert_eq!(len, 1 << 20);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = encode_frame(&WireMsg::Ping(1));
        // Append junk inside the declared length.
        frame.extend_from_slice(&[0xAB, 0xCD]);
        let len = (frame.len() - 4) as u32;
        frame[0..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            decode_frame(&frame, MAX_FRAME_BYTES),
            Err(CodecError::TrailingBytes { count: 2 })
        );
    }

    #[test]
    fn bad_tags_are_rejected() {
        // 0x7F was never assigned; 0x2A/0x2B and 0x42/0x43 are the retired
        // cancel-stats and tier-stats frames, which must never decode again.
        for tag in [0x7F, 0x2A, 0x2B, 0x42, 0x43] {
            let mut frame = encode_frame(&WireMsg::Ping(1));
            frame[4] = tag;
            assert_eq!(
                decode_frame(&frame, MAX_FRAME_BYTES),
                Err(CodecError::BadTag {
                    context: "frame kind",
                    tag
                })
            );
        }
    }

    #[test]
    fn incremental_decoder_handles_split_and_coalesced_frames() {
        let a = encode_frame(&WireMsg::Ping(1));
        let b = encode_frame(&WireMsg::Batch(sample_batch()));
        let mut stream: Vec<u8> = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);

        let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
        let mut got = Vec::new();
        // Deliver the byte stream 3 bytes at a time.
        for chunk in stream.chunks(3) {
            decoder.extend(chunk);
            while let Some(msg) = decoder.next_msg().unwrap() {
                got.push(msg);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], WireMsg::Ping(1));
        assert_eq!(got[1], WireMsg::Batch(sample_batch()));
        assert_eq!(decoder.buffered(), 0);
    }

    fn sample_migration_msgs() -> Vec<MigrationMsg> {
        vec![
            MigrationMsg::PrepForTransfer {
                migration_id: 7,
                ranges: vec![
                    HashRange::new(0, 1 << 62),
                    HashRange::new(1 << 63, u64::MAX),
                ],
                source: ServerId(0),
                target_view: 2,
            },
            MigrationMsg::TakeOwnership {
                migration_id: 7,
                ranges: vec![HashRange::new(0, 1 << 62)],
                target_view: 2,
            },
            MigrationMsg::PushHotRecords {
                migration_id: 7,
                target_view: 2,
                records: vec![(1, vec![0xAA; 64]), (2, Vec::new())],
            },
            MigrationMsg::PushRecordBatch {
                migration_id: 7,
                target_view: 2,
                items: vec![
                    MigratedItem::Record {
                        key: 3,
                        value: vec![0xBB; 128],
                    },
                    MigratedItem::Indirection {
                        representative_hash: 0xFFEE,
                        payload: vec![1, 2, 3],
                    },
                ],
            },
            MigrationMsg::CompleteMigration {
                migration_id: 7,
                target_view: 2,
                total_items: 12345,
            },
            MigrationMsg::Ack {
                migration_id: 7,
                phase: MigrationAckPhase::Prepared,
            },
            MigrationMsg::Ack {
                migration_id: 7,
                phase: MigrationAckPhase::OwnershipReceived,
            },
            MigrationMsg::Ack {
                migration_id: 7,
                phase: MigrationAckPhase::Completed,
            },
            MigrationMsg::CompactionHandoff {
                key: 9,
                value: vec![4; 32],
            },
            MigrationMsg::Heartbeat {
                migration_id: 7,
                view: 2,
            },
            MigrationMsg::HeartbeatAck {
                migration_id: 7,
                view: 3,
            },
            MigrationMsg::CancelMigration {
                migration_id: 7,
                view: 2,
            },
        ]
    }

    #[test]
    fn roundtrip_every_migration_wire_message() {
        roundtrip(WireMsg::MigHello {
            server: 1,
            thread: 3,
        });
        roundtrip(WireMsg::MigrationStatus { migration_id: 7 });
        roundtrip(WireMsg::MigrationState(WireMigrationState {
            migration_id: 7,
            complete: false,
            source_complete: true,
            target_complete: false,
            cancelled: false,
        }));
        roundtrip(WireMsg::MigrationState(WireMigrationState {
            migration_id: 8,
            complete: false,
            source_complete: false,
            target_complete: false,
            cancelled: true,
        }));
        roundtrip(WireMsg::CancelMigration { migration_id: 7 });
        for msg in sample_migration_msgs() {
            roundtrip(WireMsg::Migration(msg));
        }
    }

    #[test]
    fn truncated_migration_frames_are_rejected_at_every_cut() {
        for msg in sample_migration_msgs() {
            let frame = encode_frame(&WireMsg::Migration(msg));
            for cut in 0..frame.len() {
                match decode_frame(&frame[..cut], MAX_FRAME_BYTES) {
                    Err(CodecError::Truncated) => {}
                    other => panic!("cut {cut}: expected Truncated, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn oversized_record_batch_is_rejected_before_buffering() {
        // A record batch whose frame exceeds the receiver's limit must fail
        // from the length prefix alone, before any payload is buffered.
        let big = WireMsg::Migration(MigrationMsg::PushRecordBatch {
            migration_id: 1,
            target_view: 2,
            items: (0..64)
                .map(|k| MigratedItem::Record {
                    key: k,
                    value: vec![0; 1024],
                })
                .collect(),
        });
        let frame = encode_frame(&big);
        let limit = 4 * 1024;
        assert!(frame.len() > limit);
        let mut decoder = FrameDecoder::new(limit);
        decoder.extend(&frame[..4]);
        match decoder.next_msg() {
            Err(CodecError::Oversized { len, max }) => {
                assert_eq!(len, frame.len() - 4);
                assert_eq!(max, limit);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // The same frame decodes fine under the default limit.
        let (decoded, _) = decode_frame(&frame, MAX_FRAME_BYTES).unwrap();
        assert_eq!(decoded, big);
    }

    #[test]
    fn inverted_wire_ranges_are_rejected() {
        let msg = WireMsg::Migration(MigrationMsg::TakeOwnership {
            migration_id: 1,
            ranges: vec![HashRange::new(10, 20)],
            target_view: 2,
        });
        let mut frame = encode_frame(&msg);
        // Swap the range's start/end bytes: body is
        // kind(1) + subtag(1) + id(8) + view(8) + count(4), then start/end.
        let start_off = 4 + 1 + 1 + 8 + 8 + 4;
        frame.copy_within(start_off + 8..start_off + 16, start_off);
        frame[start_off + 8..start_off + 16].copy_from_slice(&10u64.to_le_bytes());
        frame[start_off..start_off + 8].copy_from_slice(&20u64.to_le_bytes());
        assert_eq!(
            decode_frame(&frame, MAX_FRAME_BYTES),
            Err(CodecError::Invalid {
                context: "HashRange"
            })
        );
    }

    #[test]
    fn bad_migration_tags_are_rejected() {
        let mut frame = encode_frame(&WireMsg::Migration(MigrationMsg::Ack {
            migration_id: 1,
            phase: MigrationAckPhase::Completed,
        }));
        // Corrupt the ack-phase byte (the last body byte).
        *frame.last_mut().unwrap() = 9;
        assert!(matches!(
            decode_frame(&frame, MAX_FRAME_BYTES),
            Err(CodecError::BadTag {
                context: "MigrationAckPhase",
                tag: 9
            })
        ));
        // Corrupt the MigrationMsg sub-tag.
        let mut frame = encode_frame(&WireMsg::Migration(MigrationMsg::CompactionHandoff {
            key: 1,
            value: vec![],
        }));
        frame[5] = 0x7E;
        assert!(matches!(
            decode_frame(&frame, MAX_FRAME_BYTES),
            Err(CodecError::BadTag {
                context: "MigrationMsg",
                tag: 0x7E
            })
        ));
    }

    fn sample_chain_reply() -> ChainFetchReply {
        ChainFetchReply {
            log: 3,
            address: 0x40,
            next: 0x1234,
            records: vec![
                TierRecord {
                    key: 11,
                    flags: 0,
                    value: vec![0xEE; 48],
                },
                TierRecord {
                    key: 12,
                    flags: 0b0001, // tombstone
                    value: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn roundtrip_chain_fetch_frames() {
        roundtrip(WireMsg::FetchChain(ChainFetchQuery {
            requester: 1,
            view: 7,
            log: 0,
            address: 0x9_4000,
            max_records: 256,
        }));
        roundtrip(WireMsg::ChainRecords(sample_chain_reply()));
        roundtrip(WireMsg::ChainRecords(ChainFetchReply {
            log: 0,
            address: 64,
            next: 0,
            records: Vec::new(),
        }));
    }

    fn sample_metrics_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            version: shadowfax_obs::SNAPSHOT_VERSION,
            uptime_micros: 5_250_000,
            counters: vec![
                ("sv0.migration.cancelled".into(), 1),
                ("tier.chain.served".into(), 42),
            ],
            gauges: vec![("sv0.ops.pending".into(), 3)],
            histograms: vec![HistogramSnapshot {
                name: "rpc.latency.read".into(),
                count: 2,
                total_ns: 3_000,
                max_ns: 2_000,
                buckets: vec![(32, 1), (64, 1)],
            }],
            events: vec![
                TimelineEvent {
                    at_micros: 10,
                    name: "migration.phase".into(),
                    label: "sampling".into(),
                    id: 7,
                },
                TimelineEvent {
                    at_micros: 25,
                    name: "migration.phase".into(),
                    label: "cancelled".into(),
                    id: 7,
                },
            ],
        }
    }

    #[test]
    fn roundtrip_metrics_frames() {
        roundtrip(WireMsg::GetMetrics);
        roundtrip(WireMsg::Metrics(sample_metrics_snapshot()));
        roundtrip(WireMsg::Metrics(MetricsSnapshot::default()));
    }

    #[test]
    fn truncated_metrics_frames_are_rejected_at_every_cut() {
        let frame = encode_frame(&WireMsg::Metrics(sample_metrics_snapshot()));
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut], MAX_FRAME_BYTES) {
                Err(CodecError::Truncated) => {}
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_chain_frames_are_rejected_at_every_cut() {
        for msg in [
            WireMsg::FetchChain(ChainFetchQuery {
                requester: 1,
                view: 7,
                log: 0,
                address: 64,
                max_records: 8,
            }),
            WireMsg::ChainRecords(sample_chain_reply()),
        ] {
            let frame = encode_frame(&msg);
            for cut in 0..frame.len() {
                match decode_frame(&frame[..cut], MAX_FRAME_BYTES) {
                    Err(CodecError::Truncated) => {}
                    other => panic!("cut {cut}: expected Truncated, got {other:?}"),
                }
            }
        }
    }

    fn sample_wire_replica() -> WireMetaReplica {
        WireMetaReplica {
            epoch: 17,
            next_migration_seq: 3,
            servers: vec![
                WireServerInfo {
                    id: 0,
                    address: "127.0.0.1:4870".into(),
                    threads: 2,
                    view: 4,
                    ranges: vec![(0, 1 << 60)],
                },
                WireServerInfo {
                    id: 1,
                    address: "127.0.0.1:4871".into(),
                    threads: 2,
                    view: 3,
                    ranges: vec![(1 << 60, u64::MAX)],
                },
            ],
            pending: vec![WireMigrationDep {
                id: 1 << 40,
                source: 1,
                target: 0,
                ranges: vec![(1 << 60, 1 << 61)],
                source_complete: true,
                target_complete: false,
                cancelled: false,
            }],
            completed: vec![WireMigrationDep {
                id: 0,
                source: 0,
                target: 1,
                ranges: vec![(0, 1 << 10)],
                source_complete: true,
                target_complete: true,
                cancelled: false,
            }],
            cancelled: vec![WireMigrationDep {
                id: 1,
                source: 0,
                target: 1,
                ranges: vec![(1 << 10, 1 << 11)],
                source_complete: false,
                target_complete: false,
                cancelled: true,
            }],
        }
    }

    fn sample_broker_status() -> WireBrokerStatus {
        WireBrokerStatus {
            role: WireBrokerStatus::ROLE_BROKER,
            broker_addr: "127.0.0.1:4870".into(),
            epoch: 17,
            peers: vec![
                WireBrokerPeer {
                    addr: "127.0.0.1:4871".into(),
                    acked_epoch: 17,
                    reachable: true,
                },
                WireBrokerPeer {
                    addr: "127.0.0.1:4872".into(),
                    acked_epoch: 9,
                    reachable: false,
                },
            ],
            tier_addr: "127.0.0.1:4900".into(),
            tier_reachable: true,
            cancel_escalated: 2,
        }
    }

    fn sample_tier_status() -> WireTierStatus {
        WireTierStatus {
            appends: 120,
            reads: 4096,
            rejected_stale_lease: 1,
            logs: vec![
                WireTierLog {
                    log: 0,
                    extent: 1 << 20,
                    lease: 3,
                    holder: 0,
                },
                WireTierLog {
                    log: 2,
                    extent: 64,
                    lease: 0,
                    holder: 0,
                },
            ],
        }
    }

    #[test]
    fn roundtrip_tier_frames() {
        roundtrip(WireMsg::TierLease { log: 3, holder: 1 });
        roundtrip(WireMsg::TierAppend {
            log: 3,
            lease: 7,
            offset: 0x4_0000,
            data: vec![0xCC; 96],
        });
        roundtrip(WireMsg::TierAppend {
            log: 0,
            lease: 1,
            offset: 0,
            data: Vec::new(),
        });
        roundtrip(WireMsg::TierRead {
            log: 3,
            offset: 64,
            len: 4096,
        });
        roundtrip(WireMsg::TierData {
            log: 3,
            offset: 64,
            data: vec![0xDD; 48],
        });
        roundtrip(WireMsg::GetTierStatus);
        roundtrip(WireMsg::TierStatus(sample_tier_status()));
        roundtrip(WireMsg::TierStatus(WireTierStatus::default()));
    }

    #[test]
    fn truncated_tier_frames_are_rejected_at_every_cut() {
        for msg in [
            WireMsg::TierLease { log: 3, holder: 1 },
            WireMsg::TierAppend {
                log: 3,
                lease: 7,
                offset: 64,
                data: vec![0xCC; 16],
            },
            WireMsg::TierRead {
                log: 3,
                offset: 64,
                len: 4096,
            },
            WireMsg::TierData {
                log: 3,
                offset: 64,
                data: vec![0xDD; 16],
            },
            WireMsg::TierStatus(sample_tier_status()),
        ] {
            let frame = encode_frame(&msg);
            for cut in 0..frame.len() {
                match decode_frame(&frame[..cut], MAX_FRAME_BYTES) {
                    Err(CodecError::Truncated) => {}
                    other => panic!("cut {cut}: expected Truncated, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn roundtrip_broker_frames() {
        roundtrip(WireMsg::GetMetricsNs {
            prefix: "tier.".into(),
        });
        roundtrip(WireMsg::GetMetricsNs { prefix: "".into() });
        roundtrip(WireMsg::GetMetaReplica);
        roundtrip(WireMsg::MetaReplicaMsg(sample_wire_replica()));
        roundtrip(WireMsg::MetaReplicaMsg(WireMetaReplica::default()));
        roundtrip(WireMsg::MetaMerge(sample_wire_replica()));
        roundtrip(WireMsg::MetaAck {
            epoch: 17,
            changed: true,
        });
        roundtrip(WireMsg::GetBrokerStatus);
        roundtrip(WireMsg::BrokerStatus(sample_broker_status()));
        roundtrip(WireMsg::BrokerStatus(WireBrokerStatus::default()));
    }

    #[test]
    fn truncated_broker_frames_are_rejected_at_every_cut() {
        for msg in [
            WireMsg::GetMetricsNs {
                prefix: "tier.".into(),
            },
            WireMsg::MetaReplicaMsg(sample_wire_replica()),
            WireMsg::MetaMerge(sample_wire_replica()),
            WireMsg::MetaAck {
                epoch: 17,
                changed: false,
            },
            WireMsg::BrokerStatus(sample_broker_status()),
        ] {
            let frame = encode_frame(&msg);
            for cut in 0..frame.len() {
                match decode_frame(&frame[..cut], MAX_FRAME_BYTES) {
                    Err(CodecError::Truncated) => {}
                    other => panic!("cut {cut}: expected Truncated, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn inverted_replica_dep_range_is_rejected() {
        let mut replica = sample_wire_replica();
        replica.pending[0].ranges[0] = (100, 5);
        let frame = encode_frame(&WireMsg::MetaMerge(replica));
        match decode_frame(&frame, MAX_FRAME_BYTES) {
            Err(CodecError::Invalid { .. }) => {}
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn unknown_broker_role_is_rejected() {
        let mut frame = encode_frame(&WireMsg::BrokerStatus(sample_broker_status()));
        // Body starts after the 4-byte length prefix and 1-byte kind; the
        // role byte is the first payload byte.
        frame[5] = 9;
        match decode_frame(&frame, MAX_FRAME_BYTES) {
            Err(CodecError::BadTag {
                context: "broker role",
                ..
            }) => {}
            other => panic!("expected BadTag, got {other:?}"),
        }
    }

    #[test]
    fn wire_replica_converts_to_core_and_back() {
        let wire = sample_wire_replica();
        let core = wire.to_replica();
        assert_eq!(core.epoch, 17);
        assert_eq!(core.pending.len(), 1);
        assert_eq!(core.pending[0].source, ServerId(1));
        let back = WireMetaReplica::from_replica(&core);
        assert_eq!(back, wire);
    }

    #[test]
    fn ownership_routing_matches_hash_range_semantics() {
        let own = WireOwnership {
            servers: vec![
                WireServerInfo {
                    id: 0,
                    address: "sv0".into(),
                    threads: 1,
                    view: 1,
                    ranges: vec![(0, 100)],
                },
                WireServerInfo {
                    id: 1,
                    address: "sv1".into(),
                    threads: 1,
                    view: 1,
                    ranges: vec![(100, u64::MAX)],
                },
            ],
        };
        assert_eq!(own.owner_of(0).unwrap().id, 0);
        assert_eq!(own.owner_of(99).unwrap().id, 0);
        assert_eq!(own.owner_of(100).unwrap().id, 1);
        // Top of the hash space belongs to the range ending at u64::MAX.
        assert_eq!(own.owner_of(u64::MAX).unwrap().id, 1);
        assert_eq!(own.server(1).unwrap().address, "sv1");
    }
}
