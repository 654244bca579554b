//! Nodes, links and longest-prefix routing.

use crate::link::{Direction, LinkConfig};
use std::net::Ipv4Addr;

/// Identifies a node in the topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies a link in the topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(pub usize);

/// A route entry: `dst/prefix_len → link`.
#[derive(Clone, Debug)]
struct Route {
    net: u32,
    prefix_len: u8,
    link: LinkId,
}

impl Route {
    fn matches(&self, ip: Ipv4Addr) -> bool {
        if self.prefix_len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - u32::from(self.prefix_len));
        (u32::from(ip) & mask) == (self.net & mask)
    }
}

#[derive(Clone)]
pub(crate) struct Node {
    pub(crate) name: String,
    routes: Vec<Route>,
    /// Partition label (bTelco/region) used by the sharded engine; nodes
    /// default to region 0 and single-region topologies shard trivially.
    pub(crate) region: u32,
}

#[derive(Clone)]
pub(crate) struct Link {
    pub(crate) a: NodeId,
    pub(crate) b: NodeId,
    /// Direction a→b.
    pub(crate) ab: Direction,
    /// Direction b→a.
    pub(crate) ba: Direction,
}

/// The static network topology: named nodes, configured links, and
/// per-node longest-prefix route tables.
#[derive(Clone, Default)]
pub struct Topology {
    pub(crate) nodes: Vec<Node>,
    pub(crate) links: Vec<Link>,
}

impl Topology {
    /// An empty topology.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node (in region 0).
    pub fn add_node(&mut self, name: &str) -> NodeId {
        self.add_node_in_region(name, 0)
    }

    /// Add a node tagged with a bTelco/region label. The sharded engine
    /// partitions the topology by this label (see `crate::shard`).
    pub fn add_node_in_region(&mut self, name: &str, region: u32) -> NodeId {
        self.nodes.push(Node {
            name: name.to_string(),
            routes: Vec::new(),
            region,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Re-tag `node` with a region label (for topologies built by code
    /// that predates regions).
    pub fn set_region(&mut self, node: NodeId, region: u32) {
        self.nodes[node.0].region = region;
    }

    /// The region label of `node`.
    #[must_use]
    pub fn region(&self, node: NodeId) -> u32 {
        self.nodes[node.0].region
    }

    /// Add a bidirectional link between `a` and `b` with per-direction
    /// configurations (`ab` applies to packets flowing a→b).
    pub fn add_link(&mut self, a: NodeId, b: NodeId, ab: LinkConfig, ba: LinkConfig) -> LinkId {
        assert!(a != b, "self-links are not supported");
        self.links.push(Link {
            a,
            b,
            ab: Direction::new(ab),
            ba: Direction::new(ba),
        });
        LinkId(self.links.len() - 1)
    }

    /// Symmetric convenience: the same config in both directions.
    pub fn add_symmetric_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> LinkId {
        self.add_link(a, b, cfg.clone(), cfg)
    }

    /// Install a route at `node`: traffic to `net/prefix_len` leaves via
    /// `link` (which must be attached to `node`).
    ///
    /// # Panics
    /// Panics if the link is not attached to the node.
    pub fn add_route(&mut self, node: NodeId, net: Ipv4Addr, prefix_len: u8, link: LinkId) {
        let l = &self.links[link.0];
        assert!(
            l.a == node || l.b == node,
            "route link {link:?} not attached to node {node:?}"
        );
        self.nodes[node.0].routes.push(Route {
            net: u32::from(net),
            prefix_len,
            link,
        });
    }

    /// Default route (0.0.0.0/0).
    pub fn add_default_route(&mut self, node: NodeId, link: LinkId) {
        self.add_route(node, Ipv4Addr::UNSPECIFIED, 0, link);
    }

    /// Replace any existing default route at `node` with one via `link`
    /// (how the UE's host retargets its radio link after a handover).
    pub fn replace_default_route(&mut self, node: NodeId, link: LinkId) {
        self.nodes[node.0].routes.retain(|r| r.prefix_len != 0);
        self.add_default_route(node, link);
    }

    /// Longest-prefix route lookup for traffic from `node` to `dst`.
    #[must_use]
    pub fn route(&self, node: NodeId, dst: Ipv4Addr) -> Option<LinkId> {
        self.nodes[node.0]
            .routes
            .iter()
            .filter(|r| r.matches(dst))
            .max_by_key(|r| r.prefix_len)
            .map(|r| r.link)
    }

    /// The node at the far end of `link` from `node`.
    ///
    /// # Panics
    /// Panics if the link is not attached to the node.
    #[must_use]
    pub fn peer(&self, link: LinkId, node: NodeId) -> NodeId {
        let l = &self.links[link.0];
        if l.a == node {
            l.b
        } else if l.b == node {
            l.a
        } else {
            panic!("node {node:?} not on link {link:?}")
        }
    }

    /// Node name (for diagnostics).
    #[must_use]
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.0].name
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The two endpoints of `link` (the `a` side first — packets on the
    /// `ab` direction flow a→b).
    #[must_use]
    pub fn link_ends(&self, link: LinkId) -> (NodeId, NodeId) {
        let l = &self.links[link.0];
        (l.a, l.b)
    }

    /// The propagation-delay floor of `link`: the smaller of its two
    /// directions' configured latencies. The sharded engine's lookahead
    /// is the minimum of this over all inter-shard links.
    #[must_use]
    pub fn link_latency_floor(&self, link: LinkId) -> cellbricks_sim::SimDuration {
        let l = &self.links[link.0];
        l.ab.config.latency.min(l.ba.config.latency)
    }

    /// One-way propagation latency of the cheapest path `from → to`,
    /// summing each hop's directional latency floor (no queueing, no
    /// jitter). Dijkstra over the static link set — deterministic, and
    /// independent of route tables, so harnesses can derive the RTT
    /// estimates a UE's SIM carries for broker-replica selection without
    /// simulating probes.
    #[must_use]
    pub fn path_latency(&self, from: NodeId, to: NodeId) -> Option<cellbricks_sim::SimDuration> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut best: Vec<Option<cellbricks_sim::SimDuration>> = vec![None; self.nodes.len()];
        let mut heap = BinaryHeap::new();
        best[from.0] = Some(cellbricks_sim::SimDuration::ZERO);
        heap.push(Reverse((cellbricks_sim::SimDuration::ZERO, from.0)));
        while let Some(Reverse((dist, n))) = heap.pop() {
            if best[n].is_some_and(|b| dist > b) {
                continue;
            }
            if n == to.0 {
                return Some(dist);
            }
            for l in &self.links {
                let (next, hop) = if l.a.0 == n {
                    (l.b.0, l.ab.config.latency)
                } else if l.b.0 == n {
                    (l.a.0, l.ba.config.latency)
                } else {
                    continue;
                };
                let cand = dist + hop;
                if best[next].is_none_or(|b| cand < b) {
                    best[next] = Some(cand);
                    heap.push(Reverse((cand, next)));
                }
            }
        }
        best[to.0]
    }

    /// Clone the topology for one shard: every node and link is present
    /// (so `LinkId`/`NodeId` stay globally valid), but route tables are
    /// kept only for nodes the shard owns — packets are only ever routed
    /// from owned nodes, and dropping the rest keeps per-shard clones
    /// lean at N=1M.
    pub(crate) fn clone_for_shard(&self, owns: impl Fn(usize) -> bool) -> Topology {
        Topology {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| Node {
                    name: n.name.clone(),
                    routes: if owns(i) {
                        n.routes.clone()
                    } else {
                        Vec::new()
                    },
                    region: n.region,
                })
                .collect(),
            links: self.links.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellbricks_sim::SimDuration;

    fn cfg() -> LinkConfig {
        LinkConfig::delay_only(SimDuration::from_millis(1))
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let l_ab = t.add_symmetric_link(a, b, cfg());
        let l_ac = t.add_symmetric_link(a, c, cfg());
        t.add_default_route(a, l_ab);
        t.add_route(a, Ipv4Addr::new(10, 1, 0, 0), 16, l_ac);
        assert_eq!(t.route(a, Ipv4Addr::new(10, 1, 2, 3)), Some(l_ac));
        assert_eq!(t.route(a, Ipv4Addr::new(8, 8, 8, 8)), Some(l_ab));
    }

    #[test]
    fn no_route_is_none() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_symmetric_link(a, b, cfg());
        assert_eq!(t.route(a, Ipv4Addr::new(1, 2, 3, 4)), None);
    }

    #[test]
    fn peer_resolution() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l = t.add_symmetric_link(a, b, cfg());
        assert_eq!(t.peer(l, a), b);
        assert_eq!(t.peer(l, b), a);
    }

    #[test]
    #[should_panic(expected = "not attached")]
    fn route_must_use_attached_link() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let l_bc = t.add_symmetric_link(b, c, cfg());
        t.add_default_route(a, l_bc);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        t.add_symmetric_link(a, a, cfg());
    }

    #[test]
    fn replace_default_route_switches_link() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let l_ab = t.add_symmetric_link(a, b, cfg());
        let l_ac = t.add_symmetric_link(a, c, cfg());
        t.add_default_route(a, l_ab);
        assert_eq!(t.route(a, Ipv4Addr::new(8, 8, 8, 8)), Some(l_ab));
        t.replace_default_route(a, l_ac);
        assert_eq!(t.route(a, Ipv4Addr::new(8, 8, 8, 8)), Some(l_ac));
    }

    #[test]
    fn exact_host_route() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l = t.add_symmetric_link(a, b, cfg());
        t.add_route(a, Ipv4Addr::new(192, 168, 1, 7), 32, l);
        assert_eq!(t.route(a, Ipv4Addr::new(192, 168, 1, 7)), Some(l));
        assert_eq!(t.route(a, Ipv4Addr::new(192, 168, 1, 8)), None);
    }
}
