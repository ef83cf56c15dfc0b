//! Container placement.
//!
//! The paper uses "LXD's default container scheduler, which simply
//! allocates a container to the server with the fewest container
//! instances" (§4). [`fewest_containers`] is that rule, and the only
//! placement [`crate::Cop::launch`] performs.

use crate::container::ContainerSpec;
use crate::server::{Server, ServerId};

/// LXD's default policy: the feasible server with the fewest containers,
/// breaking ties by lowest server id (deterministic). `None` when no
/// server fits `spec`.
pub fn fewest_containers(servers: &[Server], spec: &ContainerSpec) -> Option<ServerId> {
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
    }
}
