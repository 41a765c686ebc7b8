//! The whole graph as one [`Transport`]: a client call fans through
//! every node as a real inner-transport call.
//!
//! [`GraphTransport`] owns one inner transport *per node* — all of the
//! same IPC personality, each carrying that node's service work — plus
//! the [`GraphCell`] holding the state. A `call(lane, req)`:
//!
//! 1. encodes the request into the graph's own lane (the one
//!    marshalling copy) and opens the end-to-end `Call` span;
//! 2. hops through gateway → cache (→ db on a cache miss / any write)
//!    as sequential inner calls on the same lane, all sharing the
//!    request's correlation id and threading one simulated clock, so
//!    the sentinel assembles a single connected span tree per request;
//! 3. admits the operation into the commit log, then serves it through
//!    the cell — during which the charged FS adapter bills each file
//!    operation as a crossing into the **fs node's** transport, under
//!    the same correlation id;
//! 4. writes the application reply into the graph lane and stamps the
//!    clock.
//!
//! Application bytes live host-side (the inner transports serve the
//! echo contract, as everywhere else in the repo); what the inner
//! crossings contribute is the *cost* and the *spans* — true payload
//! sizes, true clock advance, true critical path.

use std::cell::RefCell;
use std::rc::Rc;

use sb_observe::{Recorder, SpanKind};
use sb_sim::{Cycles, Pmu};
use sb_transport::{verify_reply_corr, CallError, CopyMeter, Lane, Request, Transport};

use crate::cell::{CellDisk, GraphCell, HopCtx, HopLink, SharedTransport};
use crate::commit::Snapshot;
use crate::spec::{GraphError, GraphSpec, Role};

struct NodeHop {
    transport: SharedTransport,
    name: String,
    payload: usize,
}

/// A multi-hop serving graph behind the [`Transport`] trait: drop it
/// into the dispatcher, the chaos harness, or the differential tests
/// exactly like a single-server transport.
pub struct GraphTransport {
    label: String,
    nodes: Vec<NodeHop>,
    cell: GraphCell,
    ctx: Rc<HopCtx>,
    lanes: Vec<Lane>,
    clocks: Vec<Cycles>,
    meter: CopyMeter,
    recorder: Recorder,
}

impl GraphTransport {
    /// Assembles the graph over an explicit cell disk (chaos drills
    /// pass a [`CellDisk::Faulty`]; keep its fault plane disarmed until
    /// this returns — the preload must land).
    pub fn assemble_on(
        label: impl Into<String>,
        spec: &GraphSpec,
        transports: Vec<Box<dyn Transport>>,
        lanes: usize,
        disk: CellDisk,
    ) -> Result<Self, GraphError> {
        spec.check()?;
        assert_eq!(
            transports.len(),
            spec.nodes.len(),
            "one inner transport per node"
        );
        let nodes: Vec<NodeHop> = spec
            .nodes
            .iter()
            .zip(transports)
            .map(|(n, t)| NodeHop {
                transport: Rc::new(RefCell::new(t)),
                name: n.name.clone(),
                payload: n.payload,
            })
            .collect();
        let ctx = HopCtx::new();
        let fs = &nodes[Role::Fs as usize];
        let link = Some(HopLink {
            transport: fs.transport.clone(),
            ctx: ctx.clone(),
            payload: fs.payload,
        });
        let cell = GraphCell::build_on(
            disk,
            spec.records,
            spec.value_len,
            spec.cache_capacity,
            link,
        );
        Ok(GraphTransport {
            label: label.into(),
            nodes,
            cell,
            ctx,
            lanes: (0..lanes).map(|_| Lane::new()).collect(),
            clocks: vec![0; lanes],
            meter: CopyMeter::new(),
            recorder: Recorder::off(),
        })
    }

    /// The cell (commit log, counters, cache).
    pub fn cell(&self) -> &GraphCell {
        &self.cell
    }

    /// Checkpoints the cell mid-run; see [`GraphCell::snapshot`].
    pub fn snapshot(&mut self) -> Snapshot {
        self.cell.snapshot()
    }

    /// Consumes the transport, returning the cell for end-of-run
    /// inspection (final disk image, log, cache).
    pub fn into_cell(self) -> GraphCell {
        self.cell
    }

    /// Names of the explicit hops a db-miss request performs, in
    /// request order (per-hop attribution labels): every node but the
    /// fs, whose crossings happen inside the db's file I/O.
    pub fn hop_names(&self) -> Vec<String> {
        let hops = &self.nodes[..Role::Fs as usize];
        hops.iter().map(|n| n.name.clone()).collect()
    }

    /// Each node's PMU counters, in spec order — which node's TLB is
    /// thrashing, which one's caches miss. Nodes on synthetic transports
    /// (no simulated hardware underneath) are left out.
    pub fn node_pmus(&self) -> Vec<(String, Pmu)> {
        let pmu = |n: &NodeHop| Some((n.name.clone(), n.transport.borrow().pmu()?));
        self.nodes.iter().filter_map(pmu).collect()
    }

    /// One inner-transport hop into the node of `role`: idle its lane
    /// forward to the request clock, cross, return the advanced clock.
    fn hop(&self, role: Role, lane: usize, req: &Request, t: Cycles) -> Result<Cycles, CallError> {
        let n = &self.nodes[role as usize];
        let mut inner = n.transport.borrow_mut();
        inner.wait_until(lane, t);
        let hop_req = Request {
            id: req.id,
            arrival: t,
            key: req.key,
            write: req.write,
            payload: n.payload,
            client: req.client,
            tenant: req.tenant,
        };
        inner.call(lane, &hop_req)?;
        Ok(inner.now(lane))
    }

    fn route_call(
        &mut self,
        lane: usize,
        req: &Request,
        t0: Cycles,
    ) -> Result<(Vec<u8>, Cycles), CallError> {
        let mut t = self.hop(Role::Gateway, lane, req, t0)?;
        t = self.hop(Role::Cache, lane, req, t)?;
        // Cache-aside: a read that hits the cache tier never crosses
        // into the db node. The fs node is crossed from inside the db's
        // file I/O, not as a hop of its own.
        if req.write || !self.cell.cache_contains(req.key) {
            t = self.hop(Role::Db, lane, req, t)?;
        }
        // Mediation: the operation enters the commit log after
        // admission through the gateway, before any state changes.
        let (seq, op) = self.cell.admit(req.id, req.key, req.write);
        self.ctx.now.set(t);
        let reply = self.cell.serve(seq, op);
        t = t.max(self.ctx.now.get());
        Ok((reply, t))
    }
}

impl Transport for GraphTransport {
    fn label(&self) -> &str {
        &self.label
    }

    fn lanes(&self) -> usize {
        self.clocks.len()
    }

    fn now(&mut self, lane: usize) -> Cycles {
        self.clocks[lane]
    }

    fn wait_until(&mut self, lane: usize, time: Cycles) {
        if time > self.clocks[lane] {
            self.clocks[lane] = time;
        }
    }

    fn bind(&mut self, lane: usize) -> bool {
        // Every node must bind — no short-circuit `any`.
        let mut bound = false;
        for n in &self.nodes {
            bound |= n.transport.borrow_mut().bind(lane);
        }
        bound
    }

    fn call(&mut self, lane: usize, req: &Request) -> Result<usize, CallError> {
        let t0 = self.clocks[lane];
        self.ctx.lane.set(lane);
        self.ctx.corr.set(req.id);
        self.lanes[lane].encode(req, 0, &self.meter);
        self.recorder.begin(lane, SpanKind::Call, t0, req.id);
        let routed = self.route_call(lane, req, t0);
        let (reply, t1) = match routed {
            Ok(ok) => ok,
            Err(e) => {
                self.recorder
                    .end(lane, SpanKind::Call, self.clocks[lane], req.id);
                return Err(e);
            }
        };
        self.clocks[lane] = t1;
        self.recorder.end(lane, SpanKind::Call, t1, req.id);
        self.lanes[lane].set_reply(&reply);
        verify_reply_corr(&self.lanes[lane], req.id)?;
        Ok(reply.len())
    }

    fn reply(&self, lane: usize) -> &[u8] {
        self.lanes[lane].reply()
    }

    fn recover(&mut self, lane: usize) -> bool {
        // Every node must attempt recovery — no short-circuit `any`.
        let mut recovered = false;
        for n in &self.nodes {
            recovered |= n.transport.borrow_mut().recover(lane);
        }
        recovered
    }

    fn bytes_copied(&self) -> u64 {
        self.meter.total()
            + self
                .nodes
                .iter()
                .map(|n| n.transport.borrow().bytes_copied())
                .sum::<u64>()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        for n in &self.nodes {
            n.transport.borrow_mut().attach_recorder(recorder.clone());
        }
        self.recorder = recorder;
    }

    /// The sum over the nodes' machines ([`GraphTransport::node_pmus`]
    /// has them apart).
    fn pmu(&self) -> Option<Pmu> {
        let pmus = self.nodes.iter().filter_map(|n| n.transport.borrow().pmu());
        pmus.reduce(|sum, pmu| sum.merge(&pmu))
    }
}
