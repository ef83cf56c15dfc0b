//! The credential-gated admin surface: chunked state transfer
//! (snapshot/restore, tenant migration), the federated tick, and the
//! stats export — what the transport answers itself, per connection,
//! instead of the dispatcher.
//!
//! State moves in [`SNAPSHOT_CHUNK_LEN`] chunks. There is one chunk flow,
//! used in both directions by both peers: [`chunk_at`] slices a payload
//! for sending, [`Reassembler`] takes it back in; the four transfer
//! requests differ only in what is captured and what is applied.

use super::server::ServeCtx;
use crate::federation::TenantSnapshot;
use crate::proto::{EnergyRequest, EnergyResponse, ProtoError, StatsReport};
use crate::snapshot::Snapshot;

/// Payload bytes carried per [`EnergyResponse::SnapshotChunk`] /
/// [`EnergyRequest::Restore`] / [`EnergyRequest::MigrateIn`] chunk: large
/// enough that a realistic snapshot moves in a handful of frames, small
/// enough that a chunk never competes with
/// [`MAX_FRAME_LEN`](super::MAX_FRAME_LEN).
pub const SNAPSHOT_CHUNK_LEN: usize = 256 * 1024;

/// Ceiling on a reassembling payload, so even an authenticated operator
/// connection cannot grow the assembly buffer without bound.
const MAX_RESTORE_LEN: usize = 256 * 1024 * 1024;

/// Number of [`SNAPSHOT_CHUNK_LEN`] chunks covering `len` bytes (at
/// least one, so even an empty payload answers a chunk).
fn chunk_count(len: usize) -> u32 {
    u32::try_from(len.div_ceil(SNAPSHOT_CHUNK_LEN).max(1)).unwrap_or(u32::MAX)
}

/// The sending half of the chunk flow: chunk `index` of `bytes` with the
/// transfer's chunk total, or `None` when `index` is out of range.
pub(super) fn chunk_at(bytes: &[u8], index: u32) -> Option<(u32, &[u8])> {
    let total = chunk_count(bytes.len());
    if index >= total {
        return None;
    }
    let start = index as usize * SNAPSHOT_CHUNK_LEN;
    let end = (start + SNAPSHOT_CHUNK_LEN).min(bytes.len());
    Some((total, &bytes[start..end]))
}

/// The receiving half of the chunk flow: takes chunks strictly in order
/// and hands the payload back once the last one is in.
#[derive(Default)]
pub(super) struct Reassembler {
    buf: Vec<u8>,
    /// Index the next chunk must carry.
    next: u32,
}

impl Reassembler {
    /// Index the next chunk must carry.
    pub(super) fn next_index(&self) -> u32 {
        self.next
    }

    /// Takes chunk `index` of `total`: `Ok(None)` while more are
    /// expected, `Ok(Some(payload))` on the last. Chunk 0 always starts a
    /// new transfer; an index out of range or out of order, a zero
    /// `total`, or a payload over [`MAX_RESTORE_LEN`] is refused with the
    /// reason and discards what was assembled so far.
    pub(super) fn accept(
        &mut self,
        index: u32,
        total: u32,
        data: &[u8],
    ) -> Result<Option<Vec<u8>>, String> {
        if index == 0 {
            self.buf.clear();
            self.next = 0;
        }
        let refusal = if total == 0 || index >= total || index != self.next {
            Some(format!(
                "chunk {index}/{total} out of order (expected {})",
                self.next
            ))
        } else if self.buf.len().saturating_add(data.len()) > MAX_RESTORE_LEN {
            Some("payload exceeds the size ceiling".to_string())
        } else {
            None
        };
        if let Some(reason) = refusal {
            *self = Self::default();
            return Err(reason);
        }
        self.buf.extend_from_slice(data);
        self.next += 1;
        if self.next < total {
            return Ok(None);
        }
        self.next = 0;
        Ok(Some(std::mem::take(&mut self.buf)))
    }
}

/// Per-connection state of the transfer requests: the captures chunks
/// are paged out of, and the in-progress inbound assemblies.
#[derive(Default)]
pub(super) struct AdminState {
    /// Snapshot encoding captured by the last `Snapshot{chunk: 0}` on
    /// this connection. Chunks > 0 page out of this cache, so a
    /// multi-chunk download is a consistent point-in-time image even
    /// while the ecovisor keeps settling.
    snapshot: Option<Vec<u8>>,
    /// Tenant capture cached by the last `MigrateOut{chunk: 0}` (the
    /// tenant itself keeps running on this node until `MigrateCommit`).
    migrate_out: Option<Vec<u8>>,
    restore: Reassembler,
    migrate_in: Reassembler,
}

fn refuse(reason: String) -> EnergyResponse {
    EnergyResponse::Err(ProtoError::Other(reason))
}

/// `Ok` for a request the ecovisor carried out, its refusal as a value
/// otherwise.
fn ack<T>(what: &str, result: Result<T, impl std::fmt::Display>) -> EnergyResponse {
    match result {
        Ok(_) => EnergyResponse::Ok,
        Err(e) => refuse(format!("{what} rejected: {e}")),
    }
}

/// Answers one outbound chunk request. Chunk 0 runs `capture` and caches
/// its bytes in `cache`; every chunk, 0 included, is then paged out of
/// the cache.
fn page_out(
    what: &str,
    cache: &mut Option<Vec<u8>>,
    chunk: u32,
    capture: impl FnOnce() -> Result<Vec<u8>, String>,
) -> EnergyResponse {
    if chunk == 0 {
        *cache = None;
        match capture() {
            Ok(bytes) => *cache = Some(bytes),
            Err(e) => return refuse(format!("{what} rejected: {e}")),
        }
    }
    let Some(bytes) = cache.as_deref() else {
        return refuse(format!(
            "no {what} capture cached on this connection: request chunk 0 first"
        ));
    };
    match chunk_at(bytes, chunk) {
        Some((total, data)) => EnergyResponse::SnapshotChunk {
            index: chunk,
            total,
            data: data.to_vec(),
        },
        None => refuse(format!(
            "{what} chunk {chunk} out of range ({} chunks)",
            chunk_count(bytes.len())
        )),
    }
}

/// Answers one inbound chunk request: `Ok` for every chunk taken, and
/// for the last one whatever `apply` makes of the assembled payload
/// (validation is all-or-nothing, so a refusal leaves the ecovisor
/// untouched).
fn take_in(
    what: &str,
    assembly: &mut Reassembler,
    index: u32,
    total: u32,
    data: &[u8],
    apply: impl FnOnce(&[u8]) -> Result<(), String>,
) -> EnergyResponse {
    let taken = assembly
        .accept(index, total, data)
        .and_then(|last| last.map_or(Ok(()), |payload| apply(&payload)));
    match taken {
        Ok(()) => EnergyResponse::Ok,
        Err(e) => refuse(format!("{what} {e}")),
    }
}

/// Executes one admin request for a connection. Runs on the connection's
/// serving thread with no ecovisor lock held; the state transfers take the settlement barrier
/// themselves through the shared handle, so a checkpoint can never
/// observe a half-settled tick. The pinned app does not need to be a
/// registered tenant — the admin surface is connection-level, and its
/// responses replace whatever the dispatcher answered for these
/// requests.
pub(super) fn serve_admin(
    req: &EnergyRequest,
    ctx: &ServeCtx,
    admin: &mut AdminState,
) -> EnergyResponse {
    // With a credential registry installed, the hello only admits
    // connections that proved their token, so every served connection on
    // a hardened server is credential-authenticated. Without a registry
    // nothing on the wire is authenticated, and the admin surface stays
    // closed rather than trusting the network.
    if crate::lock::lock(&ctx.creds).is_none() {
        return EnergyResponse::Err(ProtoError::Denied(
            "the admin surface (snapshot/restore/migration/federation) requires \
             a credential-authenticated connection"
                .into(),
        ));
    }
    let eco = &ctx.shared;
    match req {
        EnergyRequest::Snapshot { chunk } => {
            page_out("snapshot", &mut admin.snapshot, *chunk, || {
                Ok(eco.with(|eco| eco.snapshot()).to_bytes())
            })
        }
        EnergyRequest::MigrateOut { app, chunk } => {
            page_out("migrate-out", &mut admin.migrate_out, *chunk, || {
                eco.with(|eco| eco.extract_app(*app))
                    .map(|tenant| tenant.to_bytes())
                    .map_err(|e| e.to_string())
            })
        }
        EnergyRequest::Restore { index, total, data } => take_in(
            "restore",
            &mut admin.restore,
            *index,
            *total,
            data,
            |payload| {
                let snap = Snapshot::from_bytes(payload)
                    .map_err(|e| format!("payload undecodable: {e}"))?;
                eco.with(|eco| eco.apply_snapshot(&snap))
                    .map_err(|e| format!("rejected: {e}"))
            },
        ),
        EnergyRequest::MigrateIn { index, total, data } => take_in(
            "migrate-in",
            &mut admin.migrate_in,
            *index,
            *total,
            data,
            |payload| {
                let tenant = TenantSnapshot::from_bytes(payload)
                    .map_err(|e| format!("payload undecodable: {e}"))?;
                eco.with(|eco| eco.graft_app(&tenant))
                    .map_err(|e| format!("rejected: {e}"))
            },
        ),
        EnergyRequest::MigrateCommit { app } => {
            ack("migrate-commit", eco.with(|eco| eco.remove_app(*app)))
        }
        EnergyRequest::FedCollect => EnergyResponse::Demands(eco.fed_collect()),
        EnergyRequest::FedSettle { views } => ack("fed-settle", eco.fed_settle(views)),
        EnergyRequest::FedAlign { next_container } => ack(
            "fed-align",
            eco.with(|eco| crate::lock::get_mut(&mut eco.cop).align_container_id(*next_container)),
        ),
        EnergyRequest::FedCursor => {
            let cursor = eco.read(|eco| crate::lock::read(&eco.cop).next_container_id());
            EnergyResponse::Count(cursor as usize)
        }
        EnergyRequest::Stats => EnergyResponse::Stats(stats_report(ctx)),
        _ => refuse("not an admin request".into()),
    }
}

/// Assembles the wire [`StatsReport`]: the [`ServerStats`](super::ServerStats)
/// trio [`ServerHandle::stats`](super::ServerHandle::stats) also reads,
/// plus a full dump of the observability registry.
fn stats_report(ctx: &ServeCtx) -> StatsReport {
    let stats = ctx.stats();
    StatsReport {
        active_connections: stats.active_connections as u64,
        subscriber_backlog: stats.subscriber_backlog as u64,
        recv_buffer_bytes: stats.recv_buffer_bytes as u64,
        metrics: ctx.obs.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_round_trip_through_the_reassembler() {
        for len in [
            0,
            1,
            SNAPSHOT_CHUNK_LEN,
            SNAPSHOT_CHUNK_LEN + 1,
            3 * SNAPSHOT_CHUNK_LEN,
        ] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut assembly = Reassembler::default();
            let assembled = loop {
                let index = assembly.next_index();
                let (total, data) = chunk_at(&payload, index).expect("chunk in range");
                if let Some(done) = assembly.accept(index, total, data).expect("in order") {
                    break done;
                }
            };
            assert_eq!(assembled, payload, "{len} bytes");
        }
    }

    #[test]
    fn a_payload_over_the_ceiling_is_refused_and_the_next_transfer_succeeds() {
        // The real ceiling, not a stand-in: sixteen full pieces reach it
        // exactly and are still in bounds, one more byte is not.
        let piece = vec![0u8; MAX_RESTORE_LEN / 16];
        let mut assembly = Reassembler::default();
        for index in 0..16 {
            assert_eq!(assembly.accept(index, 18, &piece), Ok(None));
        }
        let refused = assembly.accept(16, 18, &[0]).expect_err("over the ceiling");
        assert!(refused.contains("ceiling"), "{refused}");
        // Refusal discarded the assembly: the transfer cannot be resumed,
        // and a fresh one is taken from chunk 0.
        assert!(assembly.accept(17, 18, &[0]).is_err());
        assert_eq!(assembly.accept(0, 1, b"ok"), Ok(Some(b"ok".to_vec())));
    }
}
