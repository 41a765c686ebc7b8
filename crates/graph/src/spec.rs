//! The serving graph's nodes: one fixed chain.
//!
//! A [`GraphSpec`] names the servers a request visits — gateway →
//! cache → db → fs, the one shape the serving cell executes — and the
//! per-request service work at each. [`GraphSpec::check`] holds a spec
//! to that order.

use sb_sim::Cycles;

/// What a node does with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Admission/auth: every request crosses it first.
    Gateway,
    /// Cache-aside key/value tier (read hits stop here).
    Cache,
    /// The B-tree database (`sb-db`).
    Db,
    /// The journaling file system (`sb-fs`), charged per file op from
    /// inside the database's I/O path.
    Fs,
}

/// The roles of a served graph's nodes, in request order: node `i` has
/// role `CHAIN[i]`, so a role cast to `usize` is its node's index.
pub const CHAIN: [Role; 4] = [Role::Gateway, Role::Cache, Role::Db, Role::Fs];

/// One server in the graph and its per-request service work.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Display name (span/report labels).
    pub name: String,
    /// The node's role in the request path.
    pub role: Role,
    /// Fixed per-request compute at this node.
    pub cpu: Cycles,
    /// Handler code footprint in bytes.
    pub footprint: usize,
    /// Wire payload bytes per hop into this node.
    pub payload: usize,
}

/// A declarative multi-hop serving graph.
#[derive(Debug, Clone)]
pub struct GraphSpec {
    /// The servers, in request order.
    pub nodes: Vec<NodeSpec>,
    /// Records pre-loaded into the cell's database.
    pub records: u64,
    /// Value bytes per record.
    pub value_len: usize,
    /// Cache tier capacity in entries.
    pub cache_capacity: usize,
}

/// Why a spec cannot be served: its nodes' roles, which are not
/// [`CHAIN`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphError(pub Vec<Role>);

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node roles {:?}, not {CHAIN:?}", self.0)
    }
}

impl std::error::Error for GraphError {}

impl GraphSpec {
    /// The standard 4-node serving graph the benchmarks run:
    /// gateway → cache → db → fs, with per-node service work scaled
    /// like the seed scenarios (gateway/cache light, db an order of
    /// magnitude heavier, fs block-sized payloads).
    pub fn standard(records: u64, value_len: usize, cache_capacity: usize) -> Self {
        GraphSpec {
            nodes: vec![
                NodeSpec {
                    name: "gateway".into(),
                    role: Role::Gateway,
                    cpu: 220,
                    footprint: 1024,
                    payload: 64,
                },
                NodeSpec {
                    name: "cache".into(),
                    role: Role::Cache,
                    cpu: 160,
                    footprint: 2048,
                    payload: 64 + value_len,
                },
                NodeSpec {
                    name: "db".into(),
                    role: Role::Db,
                    cpu: 2_400,
                    footprint: 8 * 1024,
                    payload: 128 + value_len,
                },
                NodeSpec {
                    name: "fs".into(),
                    role: Role::Fs,
                    cpu: 600,
                    footprint: 4 * 1024,
                    payload: 256,
                },
            ],
            records,
            value_len,
            cache_capacity,
        }
    }

    /// Whether the nodes are the chain the cell serves.
    pub fn check(&self) -> Result<(), GraphError> {
        let roles: Vec<Role> = self.nodes.iter().map(|n| n.role).collect();
        if roles == CHAIN {
            Ok(())
        } else {
            Err(GraphError(roles))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_spec_routes_in_order() {
        let spec = GraphSpec::standard(100, 64, 16);
        assert_eq!(spec.check(), Ok(()));
        let names: Vec<&str> = spec.nodes.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["gateway", "cache", "db", "fs"]);
    }

    #[test]
    fn role_order_is_enforced() {
        let mut spec = GraphSpec::standard(10, 64, 4);
        spec.nodes.swap(1, 2);
        let roles = vec![Role::Gateway, Role::Db, Role::Cache, Role::Fs];
        assert_eq!(spec.check(), Err(GraphError(roles)));
        spec.nodes.truncate(1);
        assert_eq!(spec.check(), Err(GraphError(vec![Role::Gateway])));
    }
}
