//! Container placement.
//!
//! The paper uses "LXD's default container scheduler, which simply
//! allocates a container to the server with the fewest container
//! instances" (§4): the feasible server with the fewest containers, ties
//! broken by lowest server id. That is the only placement
//! [`crate::Cop::launch`] performs, and [`LoadIndex`] is how it finds the
//! pick without scanning the cluster: the servers kept in that order, so
//! the first one that fits is the pick. On a cluster whose servers all fit
//! the spec a launch costs O(log servers); when every server with fewer
//! containers lacks the cores, the memory or the GPU, the walk passes them
//! all, as long as a scan of every server and never longer.

use std::collections::BTreeSet;

use crate::container::ContainerSpec;
use crate::server::{Server, ServerId};

/// Every server of a platform keyed by `(container count, id)`, ascending:
/// a priority order derived from the servers' occupancy, not a table
/// looked up by id. Never serialized; the platform re-keys a server
/// whenever its count moves, or rebuilds the index from the servers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoadIndex(BTreeSet<(usize, ServerId)>);

impl LoadIndex {
    /// The index of `servers`, in one pass.
    pub(crate) fn new(servers: &[Server]) -> Self {
        Self(
            servers
                .iter()
                .map(|s| (s.container_count(), s.id()))
                .collect(),
        )
    }

    /// The server LXD's rule picks for `spec` among `servers` (the ones
    /// this index was built from, at their places `0..n`), or `None` when
    /// none fits, with the number of servers examined to find it: the
    /// first that fits in `(count, id)` order is the minimum of
    /// `(count, id)` over the feasible ones.
    pub(crate) fn place(
        &self,
        servers: &[Server],
        spec: &ContainerSpec,
    ) -> (Option<ServerId>, usize) {
        let mut examined = 0;
        let pick = self.0.iter().map(|&(_, sid)| sid).find(|sid| {
            examined += 1;
            servers[sid.value() as usize].fits(spec.cores, spec.memory_mib, spec.gpu)
        });
        (pick, examined)
    }

    /// Re-keys `server`, whose container count was `from`.
    pub(crate) fn moved(&mut self, from: usize, server: &Server) {
        self.0.remove(&(from, server.id()));
        self.0.insert((server.container_count(), server.id()));
    }
}

/// The rule as a scan of every server: the reference the index's picks
/// are tested against.
#[cfg(test)]
pub(crate) fn fewest_containers(servers: &[Server], spec: &ContainerSpec) -> Option<ServerId> {
    servers
        .iter()
        .filter(|s| s.fits(spec.cores, spec.memory_mib, spec.gpu))
        .min_by_key(|s| (s.container_count(), s.id()))
        .map(|s| s.id())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerSpec;

    fn cluster(n: u32) -> Vec<Server> {
        (0..n)
            .map(|i| Server::new(ServerId::new(i), ServerSpec::microserver()))
            .collect()
    }

    #[test]
    fn fewest_containers_balances() {
        let mut servers = cluster(3);
        let spec = ContainerSpec::single_core();
        // Place 3 containers; each should land on a distinct server.
        let mut placed = Vec::new();
        for _ in 0..3 {
            let sid = fewest_containers(&servers, &spec).expect("fits");
            let s = servers.iter_mut().find(|s| s.id() == sid).expect("exists");
            s.reserve(spec.cores, spec.memory_mib);
            placed.push(sid);
        }
        placed.sort();
        placed.dedup();
        assert_eq!(placed.len(), 3);
    }

    #[test]
    fn fewest_containers_ties_break_by_id() {
        let servers = cluster(2);
        let sid = fewest_containers(&servers, &ContainerSpec::single_core()).expect("fits");
        assert_eq!(sid, ServerId::new(0));
    }

    #[test]
    fn infeasible_when_no_capacity() {
        let mut servers = cluster(1);
        servers[0].reserve(4, 4096);
        assert!(fewest_containers(&servers, &ContainerSpec::single_core()).is_none());
        let (pick, examined) =
            LoadIndex::new(&servers).place(&servers, &ContainerSpec::single_core());
        assert_eq!((pick, examined), (None, 1));
    }

    #[test]
    fn gpu_spec_requires_gpu_server() {
        let mut servers = cluster(2);
        servers.push(Server::new(
            ServerId::new(2),
            ServerSpec::microserver_with_gpu(),
        ));
        let spec = ContainerSpec::single_core().with_gpu();
        let sid = fewest_containers(&servers, &spec).expect("gpu server");
        assert_eq!(sid, ServerId::new(2));
        // The walk passes the two GPU-less servers ahead of it.
        assert_eq!(
            LoadIndex::new(&servers).place(&servers, &spec),
            (Some(sid), 3)
        );
    }
}
