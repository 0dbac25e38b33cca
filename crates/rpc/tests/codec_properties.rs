//! Randomized property tests over the whole RPC wire codec.
//!
//! These were written as `proptest` properties; the build environment has no
//! registry access, so they run the same invariants over deterministic
//! seeded-PRNG cases instead (the in-repo shim pattern used by
//! `tests/substrate_properties.rs` — every failure is reproducible from the
//! case number).  For **every frame kind** — request batches, replies,
//! control frames, migration frames, and the chain-fetch frames — they
//! assert:
//!
//! * encode → decode is the identity,
//! * frames survive arbitrary split/coalesce boundaries through the
//!   incremental [`FrameDecoder`],
//! * every strict prefix of a frame is rejected as `Truncated` (never a
//!   panic, never a bogus success),
//! * random single-byte corruption never panics the decoder, and a frame
//!   whose *declared length* survived corruption still decodes to
//!   *something* or fails with a typed error,
//! * oversized declared lengths are rejected before any payload is
//!   buffered.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shadowfax::{
    ChainFetchQuery, ChainFetchReply, HashRange, MigratedItem, MigrationAckPhase, MigrationMsg,
    ServerId,
};
use shadowfax_net::{BatchReply, KvRequest, KvResponse, RequestBatch, StatusCode};
use shadowfax_obs::{HistogramSnapshot, MetricsSnapshot, TimelineEvent};
use shadowfax_rpc::{
    decode_frame, encode_frame, CodecError, FrameDecoder, WireBrokerPeer, WireBrokerStatus,
    WireMetaReplica, WireMigrationDep, WireMigrationState, WireMsg, WireOwnership, WireServerInfo,
    WireTierLog, WireTierStatus, MAX_FRAME_BYTES,
};
use shadowfax_storage::TierRecord;

fn random_bytes(rng: &mut StdRng, max: usize) -> Vec<u8> {
    let len = rng.gen_range(0u64..max as u64 + 1) as usize;
    (0..len).map(|_| rng.gen::<u32>() as u8).collect()
}

fn random_string(rng: &mut StdRng, max: usize) -> String {
    let len = rng.gen_range(0u64..max as u64 + 1) as usize;
    (0..len)
        .map(|_| (b'a' + (rng.gen_range(0u64..26) as u8)) as char)
        .collect()
}

fn random_range(rng: &mut StdRng) -> HashRange {
    let a: u64 = rng.gen();
    let b: u64 = rng.gen();
    HashRange::new(a.min(b), a.max(b))
}

fn random_request(rng: &mut StdRng) -> KvRequest {
    match rng.gen_range(0u64..4) {
        0 => KvRequest::Read { key: rng.gen() },
        1 => KvRequest::Upsert {
            key: rng.gen(),
            value: random_bytes(rng, 300),
        },
        2 => KvRequest::RmwAdd {
            key: rng.gen(),
            delta: rng.gen(),
        },
        _ => KvRequest::Delete { key: rng.gen() },
    }
}

fn random_response(rng: &mut StdRng) -> KvResponse {
    match rng.gen_range(0u64..7) {
        0 => KvResponse::Value(None),
        1 => KvResponse::Value(Some(random_bytes(rng, 300))),
        2 => KvResponse::Counter(rng.gen()),
        3 => KvResponse::Ok,
        4 => KvResponse::Deleted(rng.gen::<u64>() % 2 == 0),
        5 => KvResponse::Pending,
        _ => KvResponse::Error(random_string(rng, 40)),
    }
}

fn random_status(rng: &mut StdRng) -> StatusCode {
    let all = [
        StatusCode::Ok,
        StatusCode::StaleView,
        StatusCode::UnknownAddress,
        StatusCode::PeerClosed,
        StatusCode::Io,
        StatusCode::Malformed,
        StatusCode::Oversized,
        StatusCode::ControlFailed,
        StatusCode::OutOfRange,
    ];
    all[rng.gen_range(0u64..all.len() as u64) as usize]
}

fn random_migrated_item(rng: &mut StdRng) -> MigratedItem {
    if rng.gen::<u64>() % 2 == 0 {
        MigratedItem::Record {
            key: rng.gen(),
            value: random_bytes(rng, 300),
        }
    } else {
        MigratedItem::Indirection {
            representative_hash: rng.gen(),
            payload: random_bytes(rng, 48),
        }
    }
}

fn random_migration_msg(rng: &mut StdRng) -> MigrationMsg {
    match rng.gen_range(0u64..10) {
        0 => MigrationMsg::PrepForTransfer {
            migration_id: rng.gen(),
            ranges: (0..rng.gen_range(0u64..4))
                .map(|_| random_range(rng))
                .collect(),
            source: ServerId(rng.gen()),
            target_view: rng.gen(),
        },
        1 => MigrationMsg::TakeOwnership {
            migration_id: rng.gen(),
            ranges: (0..rng.gen_range(0u64..4))
                .map(|_| random_range(rng))
                .collect(),
            target_view: rng.gen(),
        },
        2 => MigrationMsg::PushHotRecords {
            migration_id: rng.gen(),
            target_view: rng.gen(),
            records: (0..rng.gen_range(0u64..4))
                .map(|_| (rng.gen(), random_bytes(rng, 200)))
                .collect(),
        },
        3 => MigrationMsg::PushRecordBatch {
            migration_id: rng.gen(),
            target_view: rng.gen(),
            items: (0..rng.gen_range(0u64..6))
                .map(|_| random_migrated_item(rng))
                .collect(),
        },
        4 => MigrationMsg::CompleteMigration {
            migration_id: rng.gen(),
            target_view: rng.gen(),
            total_items: rng.gen(),
        },
        5 => MigrationMsg::Ack {
            migration_id: rng.gen(),
            phase: [
                MigrationAckPhase::Prepared,
                MigrationAckPhase::OwnershipReceived,
                MigrationAckPhase::Completed,
            ][rng.gen_range(0u64..3) as usize],
        },
        6 => MigrationMsg::CompactionHandoff {
            key: rng.gen(),
            value: random_bytes(rng, 200),
        },
        7 => MigrationMsg::Heartbeat {
            migration_id: rng.gen(),
            view: rng.gen(),
        },
        8 => MigrationMsg::HeartbeatAck {
            migration_id: rng.gen(),
            view: rng.gen(),
        },
        _ => MigrationMsg::CancelMigration {
            migration_id: rng.gen(),
            view: rng.gen(),
        },
    }
}

fn random_tier_record(rng: &mut StdRng) -> TierRecord {
    TierRecord {
        key: rng.gen(),
        flags: rng.gen::<u32>() as u16,
        value: random_bytes(rng, 300),
    }
}

fn random_name_values(rng: &mut StdRng) -> Vec<(String, u64)> {
    (0..rng.gen_range(0u64..6))
        .map(|_| (random_string(rng, 32), rng.gen()))
        .collect()
}

fn random_metrics_snapshot(rng: &mut StdRng) -> MetricsSnapshot {
    MetricsSnapshot {
        version: rng.gen(),
        uptime_micros: rng.gen(),
        counters: random_name_values(rng),
        gauges: random_name_values(rng),
        histograms: (0..rng.gen_range(0u64..4))
            .map(|_| HistogramSnapshot {
                name: random_string(rng, 32),
                count: rng.gen(),
                total_ns: rng.gen(),
                max_ns: rng.gen(),
                buckets: (0..rng.gen_range(0u64..8))
                    .map(|_| (rng.gen(), rng.gen()))
                    .collect(),
            })
            .collect(),
        events: (0..rng.gen_range(0u64..6))
            .map(|_| TimelineEvent {
                at_micros: rng.gen(),
                name: random_string(rng, 24),
                label: random_string(rng, 16),
                id: rng.gen(),
            })
            .collect(),
    }
}

fn random_server_info(rng: &mut StdRng, id: u32) -> WireServerInfo {
    WireServerInfo {
        id,
        address: random_string(rng, 24),
        threads: rng.gen_range(1u64..8) as u32,
        view: rng.gen(),
        ranges: (0..rng.gen_range(0u64..4))
            .map(|_| {
                let r = random_range(rng);
                (r.start, r.end)
            })
            .collect(),
    }
}

fn random_migration_dep(rng: &mut StdRng) -> WireMigrationDep {
    WireMigrationDep {
        id: rng.gen(),
        source: rng.gen(),
        target: rng.gen(),
        ranges: (0..rng.gen_range(0u64..4))
            .map(|_| {
                let r = random_range(rng);
                (r.start, r.end)
            })
            .collect(),
        source_complete: rng.gen::<u64>() % 2 == 0,
        target_complete: rng.gen::<u64>() % 2 == 0,
        cancelled: rng.gen::<u64>() % 2 == 0,
    }
}

fn random_meta_replica(rng: &mut StdRng) -> WireMetaReplica {
    WireMetaReplica {
        epoch: rng.gen(),
        next_migration_seq: rng.gen(),
        servers: (0..rng.gen_range(0u64..4))
            .map(|i| random_server_info(rng, i as u32))
            .collect(),
        pending: (0..rng.gen_range(0u64..3))
            .map(|_| random_migration_dep(rng))
            .collect(),
        completed: (0..rng.gen_range(0u64..3))
            .map(|_| random_migration_dep(rng))
            .collect(),
        cancelled: (0..rng.gen_range(0u64..3))
            .map(|_| random_migration_dep(rng))
            .collect(),
    }
}

fn random_broker_status(rng: &mut StdRng) -> WireBrokerStatus {
    WireBrokerStatus {
        // Only the three defined role bytes are encodable (the decoder
        // rejects anything above ROLE_FOLLOWER as Invalid).
        role: rng.gen_range(0u64..3) as u8,
        broker_addr: random_string(rng, 24),
        epoch: rng.gen(),
        peers: (0..rng.gen_range(0u64..4))
            .map(|_| WireBrokerPeer {
                addr: random_string(rng, 24),
                acked_epoch: rng.gen(),
                reachable: rng.gen::<u64>() % 2 == 0,
            })
            .collect(),
        tier_addr: random_string(rng, 24),
        tier_reachable: rng.gen::<u64>() % 2 == 0,
        cancel_escalated: rng.gen(),
    }
}

/// One random message of every frame kind the codec knows.  Extending
/// `WireMsg` without extending this list fails the `covers_every_kind`
/// check below.
fn random_messages(rng: &mut StdRng) -> Vec<WireMsg> {
    vec![
        WireMsg::Hello {
            fabric_addr: random_string(rng, 24),
        },
        WireMsg::Batch(RequestBatch {
            view: rng.gen(),
            seq: rng.gen(),
            ops: (0..rng.gen_range(0u64..8))
                .map(|_| random_request(rng))
                .collect(),
        }),
        WireMsg::Reply(BatchReply::Executed {
            seq: rng.gen(),
            results: (0..rng.gen_range(0u64..8))
                .map(|_| random_response(rng))
                .collect(),
        }),
        WireMsg::Reply(BatchReply::Rejected {
            seq: rng.gen(),
            server_view: rng.gen(),
        }),
        WireMsg::GetOwnership,
        WireMsg::Ownership(WireOwnership {
            servers: (0..rng.gen_range(0u64..4))
                .map(|i| WireServerInfo {
                    id: i as u32,
                    address: random_string(rng, 24),
                    threads: rng.gen_range(1u64..8) as u32,
                    view: rng.gen(),
                    ranges: (0..rng.gen_range(0u64..4))
                        .map(|_| {
                            let r = random_range(rng);
                            (r.start, r.end)
                        })
                        .collect(),
                })
                .collect(),
        }),
        WireMsg::Migrate {
            source: rng.gen(),
            target: rng.gen(),
            // Finite fractions only: NaN breaks the equality the roundtrip
            // asserts (bit-exactness of finite floats is preserved).
            fraction: rng.gen_range(0u64..1001) as f64 / 1000.0,
        },
        WireMsg::CtrlOk { value: rng.gen() },
        WireMsg::CtrlErr {
            status: random_status(rng),
            message: random_string(rng, 60),
        },
        WireMsg::Ping(rng.gen()),
        WireMsg::Pong(rng.gen()),
        WireMsg::MigrationStatus {
            migration_id: rng.gen(),
        },
        WireMsg::MigrationState(WireMigrationState {
            migration_id: rng.gen(),
            complete: rng.gen::<u64>() % 2 == 0,
            source_complete: rng.gen::<u64>() % 2 == 0,
            target_complete: rng.gen::<u64>() % 2 == 0,
            cancelled: rng.gen::<u64>() % 2 == 0,
        }),
        WireMsg::CancelMigration {
            migration_id: rng.gen(),
        },
        WireMsg::MigHello {
            server: rng.gen(),
            thread: rng.gen(),
        },
        WireMsg::Migration(random_migration_msg(rng)),
        // The liveness / cancellation migration frames, pinned (the random
        // generator above only covers them probabilistically).
        WireMsg::Migration(MigrationMsg::Heartbeat {
            migration_id: rng.gen(),
            view: rng.gen(),
        }),
        WireMsg::Migration(MigrationMsg::HeartbeatAck {
            migration_id: rng.gen(),
            view: rng.gen(),
        }),
        WireMsg::Migration(MigrationMsg::CancelMigration {
            migration_id: rng.gen(),
            view: rng.gen(),
        }),
        WireMsg::FetchChain(ChainFetchQuery {
            requester: rng.gen(),
            view: rng.gen(),
            log: rng.gen(),
            address: rng.gen(),
            max_records: rng.gen(),
        }),
        WireMsg::ChainRecords(ChainFetchReply {
            log: rng.gen(),
            address: rng.gen(),
            next: rng.gen(),
            records: (0..rng.gen_range(0u64..6))
                .map(|_| random_tier_record(rng))
                .collect(),
        }),
        WireMsg::GetMetrics,
        WireMsg::Metrics(random_metrics_snapshot(rng)),
        // The metadata-replication control frames (broker/coordinator
        // work): namespaced metrics queries, replica pull/push, merge
        // acks, and the coordinator status report.
        WireMsg::GetMetricsNs {
            prefix: random_string(rng, 24),
        },
        WireMsg::GetMetaReplica,
        WireMsg::MetaReplicaMsg(random_meta_replica(rng)),
        WireMsg::MetaMerge(random_meta_replica(rng)),
        WireMsg::MetaAck {
            epoch: rng.gen(),
            changed: rng.gen::<u64>() % 2 == 0,
        },
        WireMsg::GetBrokerStatus,
        WireMsg::BrokerStatus(random_broker_status(rng)),
        // The shared blob tier frames (lease-guarded mirror appends, open
        // reads, and the daemon status report).
        WireMsg::TierLease {
            log: rng.gen(),
            holder: rng.gen(),
        },
        WireMsg::TierAppend {
            log: rng.gen(),
            lease: rng.gen(),
            offset: rng.gen(),
            data: random_bytes(rng, 300),
        },
        WireMsg::TierRead {
            log: rng.gen(),
            offset: rng.gen(),
            len: rng.gen(),
        },
        WireMsg::TierData {
            log: rng.gen(),
            offset: rng.gen(),
            data: random_bytes(rng, 300),
        },
        WireMsg::GetTierStatus,
        WireMsg::TierStatus(WireTierStatus {
            appends: rng.gen(),
            reads: rng.gen(),
            rejected_stale_lease: rng.gen(),
            logs: (0..rng.gen_range(0u64..4))
                .map(|_| WireTierLog {
                    log: rng.gen(),
                    extent: rng.gen(),
                    lease: rng.gen(),
                    holder: rng.gen(),
                })
                .collect(),
        }),
    ]
}

/// Every frame-kind byte the codec can emit, observed from the generator.
/// Guards against a new `WireMsg` variant silently escaping these tests.
#[test]
fn generator_covers_every_wire_kind() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    let mut kinds = std::collections::BTreeSet::new();
    for _ in 0..8 {
        for msg in random_messages(&mut rng) {
            let frame = encode_frame(&msg);
            kinds.insert(frame[4]);
        }
    }
    // 32 distinct kind bytes are on the wire today (Executed/Rejected share
    // the REPLY kind; every MigrationMsg shares MIGRATION; the cancel work
    // added CANCEL_MIGRATION; the retired GET_CANCEL_STATS/CANCEL_STATS and
    // GET_TIER_STATS/TIER_STATS are gone; the
    // telemetry work added GET_METRICS and METRICS; the metadata-broker
    // work added GET_METRICS_NS, GET_META_REPLICA, META_REPLICA,
    // META_MERGE, META_ACK, GET_BROKER_STATUS, and BROKER_STATUS; the
    // shared-tier work added TIER_LEASE, TIER_APPEND, TIER_READ,
    // TIER_DATA, GET_TIER_STATUS, and TIER_STATUS).
    assert_eq!(
        kinds.len(),
        32,
        "frame kinds covered by the generator changed: {kinds:?}"
    );
}

#[test]
fn random_frames_roundtrip_exactly() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xF00D + case);
        for msg in random_messages(&mut rng) {
            let frame = encode_frame(&msg);
            let (decoded, consumed) = decode_frame(&frame, MAX_FRAME_BYTES)
                .unwrap_or_else(|e| panic!("case {case}: {msg:?} failed to decode: {e}"));
            assert_eq!(consumed, frame.len(), "case {case}");
            assert_eq!(decoded, msg, "case {case}");
        }
    }
}

#[test]
fn random_frame_streams_survive_arbitrary_chunking() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED + case);
        let msgs = random_messages(&mut rng);
        let mut stream = Vec::new();
        for msg in &msgs {
            stream.extend_from_slice(&encode_frame(msg));
        }
        let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
        let mut got = Vec::new();
        let mut pos = 0usize;
        while pos < stream.len() {
            let n = rng.gen_range(1u64..98).min((stream.len() - pos) as u64) as usize;
            decoder.extend(&stream[pos..pos + n]);
            pos += n;
            while let Some(msg) = decoder.next_msg().unwrap() {
                got.push(msg);
            }
        }
        assert_eq!(got, msgs, "case {case}");
        assert_eq!(decoder.buffered(), 0, "case {case}");
    }
}

#[test]
fn every_truncation_of_every_kind_is_rejected() {
    let mut rng = StdRng::seed_from_u64(0x7D0);
    for msg in random_messages(&mut rng) {
        let frame = encode_frame(&msg);
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut], MAX_FRAME_BYTES) {
                Err(CodecError::Truncated) => {}
                other => panic!("{msg:?} cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }
}

/// Random single-byte corruption: the decoder must never panic, and every
/// failure must be one of the typed codec errors.
#[test]
fn random_corruption_yields_typed_errors_not_panics() {
    for case in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xBADF00D + case);
        let msgs = random_messages(&mut rng);
        let msg = &msgs[rng.gen_range(0u64..msgs.len() as u64) as usize];
        let mut frame = encode_frame(msg);
        let idx = rng.gen_range(0u64..frame.len() as u64) as usize;
        frame[idx] ^= 1 << rng.gen_range(0u64..8);
        // Whichever way this falls — a different valid message, or a typed
        // error — it must not panic and must not over-consume.
        match decode_frame(&frame, MAX_FRAME_BYTES) {
            Ok((_, consumed)) => assert!(consumed <= frame.len(), "case {case}"),
            Err(
                CodecError::Truncated
                | CodecError::Oversized { .. }
                | CodecError::BadTag { .. }
                | CodecError::BadUtf8
                | CodecError::Invalid { .. }
                | CodecError::TrailingBytes { .. },
            ) => {}
        }
    }
}

#[test]
fn random_oversized_lengths_are_rejected_before_buffering() {
    for case in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(0xB16 + case);
        let limit = rng.gen_range(16u64..65536) as usize;
        let declared = limit as u32 + rng.gen_range(1u64..1 << 20) as u32;
        let mut decoder = FrameDecoder::new(limit);
        decoder.extend(&declared.to_le_bytes());
        match decoder.next_msg() {
            Err(CodecError::Oversized { len, max }) => {
                assert_eq!(len, declared as usize, "case {case}");
                assert_eq!(max, limit, "case {case}");
            }
            other => panic!("case {case}: expected Oversized, got {other:?}"),
        }
    }
}
