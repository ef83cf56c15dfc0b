//! The admin surface's chunk flow, checked once for both transfers that
//! ride it: (`Snapshot`, `Restore`) and (`MigrateOut`, `MigrateIn`).
//!
//! On credentialed connections to two live servers — a source that
//! holds the state and a destination that takes it — every way a chunk
//! sequence can be wrong answers an `Err` value, changes nothing on
//! either server, and leaves the connection serving; the well-formed
//! transfer that follows on the same connections succeeds. Both
//! payloads are larger than `SNAPSHOT_CHUNK_LEN`, so the multi-chunk
//! path is what is being exercised. A payload is binary: the JSON
//! rendering of the same state is one more malformed input. (The size ceiling is the one rule
//! checked below the wire, in the reassembler's unit test: reaching it
//! through the codec would mean pushing 256 MiB per pair.)

use container_cop::{AppId, ContainerSpec};
use ecovisor::proto::{EnergyRequest, EnergyResponse};
use ecovisor::transport::SNAPSHOT_CHUNK_LEN;
use ecovisor::{
    CredentialRegistry, Ecovisor, EcovisorBuilder, EcovisorServer, EnergyClient, EnergyShare,
    RemoteEcovisorClient, ServerHandle,
};
use simkit::units::Watts;

/// Ticks the source runs before the transfer: enough telemetry that both
/// a whole-ecovisor snapshot and one tenant's capture span several
/// chunks.
const TICKS: u64 = 1000;

/// Registers the operator's tenant and the wanderer on a default-built
/// ecovisor (same static environment on every node).
fn build() -> (Ecovisor, AppId, AppId) {
    let mut eco = EcovisorBuilder::new().build();
    let op = eco
        .register_app("operator", EnergyShare::grid_only())
        .expect("register operator");
    let wanderer = eco
        .register_app("wanderer", EnergyShare::grid_only())
        .expect("register wanderer");
    (eco, op, wanderer)
}

fn serve(eco: Ecovisor, op: AppId) -> (ServerHandle, RemoteEcovisorClient) {
    let handle = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_credentials(CredentialRegistry::new().with(op, "operator-token"))
        .spawn()
        .expect("spawn");
    let cli = RemoteEcovisorClient::connect_full(handle.addr(), op, Some("operator-token".into()))
        .expect("connect");
    (handle, cli)
}

/// One of the two transfers: how to ask the source for a chunk, how to
/// hand the destination one, and how to read the moved state back.
#[derive(Debug, Clone, Copy)]
enum Transfer {
    SnapshotRestore,
    Migration,
}

impl Transfer {
    fn out(self, wanderer: AppId, chunk: u32) -> EnergyRequest {
        match self {
            Transfer::SnapshotRestore => EnergyRequest::Snapshot { chunk },
            Transfer::Migration => EnergyRequest::MigrateOut {
                app: wanderer,
                chunk,
            },
        }
    }

    fn inn(self, index: u32, total: u32, data: Vec<u8>) -> EnergyRequest {
        match self {
            Transfer::SnapshotRestore => EnergyRequest::Restore { index, total, data },
            Transfer::Migration => EnergyRequest::MigrateIn { index, total, data },
        }
    }

    /// Digest of the transferred state as `node` holds it: the
    /// wanderer's capture for a migration, the whole ecovisor for a
    /// restore. `None` while the node does not hold the wanderer.
    fn state(self, node: &ServerHandle, wanderer: AppId) -> Option<u64> {
        node.ecovisor().with(|eco| {
            let tenant = eco.extract_app(wanderer).ok()?;
            Some(match self {
                Transfer::SnapshotRestore => eco.snapshot().digest(),
                Transfer::Migration => tenant.digest(),
            })
        })
    }

    /// What `node` would transfer, rendered as JSON: readable, well
    /// formed, and not a payload.
    fn json(self, node: &ServerHandle, wanderer: AppId) -> Vec<u8> {
        let text = node.ecovisor().with(|eco| match self {
            Transfer::SnapshotRestore => eco.snapshot().to_json(),
            Transfer::Migration => {
                serde::json::to_string(&eco.extract_app(wanderer).expect("capture"))
            }
        });
        assert!(text.starts_with('{') && serde::json::parse(&text).is_ok());
        text.into_bytes()
    }
}

fn one(cli: &mut RemoteEcovisorClient, request: EnergyRequest) -> EnergyResponse {
    let mut responses = cli.send(vec![request]);
    assert_eq!(responses.len(), 1, "one response per request");
    responses.remove(0)
}

fn assert_refused(cli: &mut RemoteEcovisorClient, request: EnergyRequest, case: &str) {
    let response = one(cli, request);
    assert!(
        response.is_err(),
        "{case}: expected an Err value, got {response:?}"
    );
    // A value, not a connection failure.
    assert!(!cli.is_broken(), "{case}: connection must survive");
    assert_eq!(cli.get_grid_power(), Watts::ZERO, "{case}: still serving");
}

fn check(transfer: Transfer) {
    let name = format!("{transfer:?}");

    // Source: both tenants, the wanderer busy for a long day.
    let (mut eco, op, wanderer) = build();
    {
        let mut w = eco.client(wanderer).expect("client");
        for _ in 0..6 {
            let c = w
                .launch_container(ContainerSpec::quad_core())
                .expect("launch");
            w.set_container_demand(c, 0.7).expect("demand");
        }
    }
    let (src, mut src_cli) = serve(eco, op);
    // Destination: the same deployment, minus the wanderer.
    let (mut eco, _, _) = build();
    eco.remove_app(wanderer).expect("shed the wanderer");
    let (dst, mut dst_cli) = serve(eco, op);
    // In step: a tenant only moves at a settlement boundary both nodes
    // share.
    for _ in 0..TICKS {
        src.ecovisor().tick();
        dst.ecovisor().tick();
    }

    let src_before = src.ecovisor().with(|eco| eco.snapshot()).digest();
    let dst_before = dst.ecovisor().with(|eco| eco.snapshot()).digest();
    let untouched = |case: &str| {
        assert_eq!(
            src.ecovisor().with(|eco| eco.snapshot()).digest(),
            src_before,
            "{name}/{case}: source"
        );
        assert_eq!(
            dst.ecovisor().with(|eco| eco.snapshot()).digest(),
            dst_before,
            "{name}/{case}: destination"
        );
    };

    // --- Outbound: the source pages a capture out -----------------------
    assert_refused(
        &mut src_cli,
        transfer.out(wanderer, 1),
        "chunk > 0 before chunk 0",
    );
    untouched("chunk > 0 before chunk 0");

    let mut chunks: Vec<Vec<u8>> = Vec::new();
    let total = loop {
        match one(&mut src_cli, transfer.out(wanderer, chunks.len() as u32)) {
            EnergyResponse::SnapshotChunk { index, total, data } => {
                assert_eq!(
                    index as usize,
                    chunks.len(),
                    "{name}: chunks answer in order"
                );
                assert!(data.len() <= SNAPSHOT_CHUNK_LEN);
                chunks.push(data);
                if chunks.len() as u32 == total {
                    break total;
                }
            }
            other => panic!("{name}: expected a chunk, got {other:?}"),
        }
    };
    assert!(
        total > 1,
        "{name}: payload must span several chunks, got {total}"
    );
    assert_refused(
        &mut src_cli,
        transfer.out(wanderer, total),
        "chunk >= total",
    );
    untouched("chunk >= total");

    // --- Inbound: every malformed sequence is refused -------------------
    let send = |cli: &mut RemoteEcovisorClient, index: u32, total: u32| {
        let request = transfer.inn(index, total, chunks[index as usize].clone());
        one(cli, request)
    };
    let garbage = vec![0xFF; chunks.last().expect("last chunk").len()];
    type Case<'a> = (&'a str, Vec<(u32, u32)>, EnergyRequest);
    let cases: Vec<Case> = vec![
        (
            "chunk > 0 before chunk 0",
            vec![],
            transfer.inn(1, total, chunks[1].clone()),
        ),
        (
            "out-of-order index",
            vec![(0, total + 1)],
            transfer.inn(2, total + 1, chunks[1].clone()),
        ),
        (
            "chunk >= total",
            vec![(0, total)],
            transfer.inn(total, total, chunks[0].clone()),
        ),
        ("total == 0", vec![], transfer.inn(0, 0, chunks[0].clone())),
        (
            "tampered final chunk",
            (0..total - 1).map(|i| (i, total)).collect(),
            transfer.inn(total - 1, total, garbage),
        ),
        (
            "JSON rendering of the payload",
            vec![],
            transfer.inn(0, 1, transfer.json(&src, wanderer)),
        ),
    ];
    for (case, accepted, refused) in cases {
        for (index, total) in accepted {
            let response = send(&mut dst_cli, index, total);
            assert_eq!(
                response,
                EnergyResponse::Ok,
                "{name}/{case}: chunk {index} is in order"
            );
        }
        assert_refused(&mut dst_cli, refused, case);
        untouched(case);
        // Refusal discarded the assembly: the transfer cannot be resumed
        // mid-way.
        assert_refused(
            &mut dst_cli,
            transfer.inn(1, total, chunks[1].clone()),
            "resume after refusal",
        );
    }

    // --- The well-formed transfer, same connections ---------------------
    assert_eq!(
        transfer.state(&dst, wanderer),
        None,
        "{name}: destination starts without the state"
    );
    for index in 0..total {
        let response = send(&mut dst_cli, index, total);
        assert_eq!(
            response,
            EnergyResponse::Ok,
            "{name}: chunk {index}/{total}"
        );
    }
    assert_eq!(
        transfer.state(&dst, wanderer),
        transfer.state(&src, wanderer),
        "{name}: destination holds exactly what the source captured"
    );
    assert_eq!(
        src.ecovisor().with(|eco| eco.snapshot()).digest(),
        src_before,
        "{name}: capture is non-mutating"
    );

    drop(src_cli);
    drop(dst_cli);
    src.shutdown();
    dst.shutdown();
}

#[test]
fn malformed_chunk_sequences_are_refused_and_the_next_transfer_succeeds() {
    for transfer in [Transfer::SnapshotRestore, Transfer::Migration] {
        check(transfer);
    }
}
