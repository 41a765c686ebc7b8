//! The §6.5 SQLite stack: client+DB → xv6fs server → RAM-disk server.
//!
//! "The client first uses the SQLite3 database to manipulate files and
//! communicate with the first server (the file system). The file system
//! finally reads and writes data into the block device server."
//!
//! Three configurations reproduce Table 4 and Figures 9–11:
//!
//! * **ST-Server** — one working thread per server, pinned away from the
//!   clients: every file/block RPC is a cross-core IPC with an IPI;
//! * **MT-Server** — server threads pinned to every core: clients reach
//!   the local server thread over same-core (fastpath) IPC;
//! * **SkyBridge** — clients call the servers' functions directly via
//!   `direct_server_call`; the file-system work runs on the *client's*
//!   thread (thread migration), and nested block-device calls go through
//!   the client's EPTP list too.
//!
//! The file system keeps **one big lock** (§6.5: "we use one big lock in
//! the file system, that is the reason why the scalability is so bad"),
//! modeled with [`SimLock`] over simulated time.
//!
//! minidb runs *for real* on top: every benchmark operation performs the
//! full pager/journal/B-tree work, and every resulting file call crosses
//! this transport with its true payload size.

use std::{cell::RefCell, rc::Rc};

use sb_db::{Database, Value};
use sb_fs::{BlockDevice, FileApi, FileSystem, FsError, Inum, RamDisk, BSIZE};
use sb_microkernel::{layout, Kernel, KernelConfig, Personality, ThreadId};
use sb_rootkernel::RootkernelConfig;
use sb_sim::{CpuId, Cycles, SimLock};
use sb_ycsb::{OpKind, Workload, WorkloadSpec};
use skybridge::{ServerId, SkyBridge};

/// Transport configuration of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackMode {
    /// Single-threaded servers on a remote core (cross-core IPC).
    IpcSt,
    /// Per-core server threads (same-core fastpath IPC).
    IpcMt,
    /// SkyBridge direct server calls.
    SkyBridge,
}

/// FS server software cycles per request.
const FS_CALL_CPU: Cycles = 1100;

/// FS server cycles per block touched.
const FS_PER_BLOCK_CPU: Cycles = 220;

/// Block-device server cycles per block request.
const BD_CALL_CPU: Cycles = 320;

/// Client-side database CPU per operation (SQL parse, VDBE execution,
/// B-tree search, record codec — the SQLite work that happens before any
/// file I/O; ~15 µs per statement at 4 GHz).
const DB_OP_CPU: Cycles = 60_000;

/// Client-side cycles per page-cache access (pin, search, memcpy).
const DB_PAGE_CPU: Cycles = 180;

/// Largest payload per IPC message (the per-thread message buffer).
const MSG_MAX: usize = layout::MSG_BUF_SIZE;

/// The shared simulation state (kernel + SkyBridge + the big lock).
pub struct Sim {
    /// The kernel.
    pub k: Kernel,
    /// SkyBridge, in [`StackMode::SkyBridge`].
    pub sb: Option<SkyBridge>,
    mode: StackMode,
    /// The file system's big lock.
    pub lock: SimLock,
    /// FS server thread per core (MT) or the single thread (ST).
    fs_tids: Vec<ThreadId>,
    bd_tids: Vec<ThreadId>,
    /// Per-client-process send caps: `(fs_cap, bd cap of fs process)`.
    fs_caps: Vec<usize>,
    bd_caps: Vec<usize>,
    sb_fs: ServerId,
    sb_bd: ServerId,
    /// Which client thread currently drives the stack (set around each
    /// file call so the disk layer charges the right parties).
    driver: ThreadId,
    /// False during setup (mkfs): no transport charging.
    charging: bool,
}

impl Sim {
    fn fs_tid_for(&self, client_core: CpuId) -> ThreadId {
        match self.mode {
            StackMode::IpcMt => self.fs_tids[client_core],
            _ => self.fs_tids[0],
        }
    }

    fn bd_tid_for(&self, fs_core: CpuId) -> ThreadId {
        match self.mode {
            StackMode::IpcMt => self.bd_tids[fs_core],
            _ => self.bd_tids[0],
        }
    }

    /// The request leg from `client` to the FS server. In IPC modes the
    /// FS thread is left *current* on its core so the file-system work
    /// (and its nested block IPCs) runs in the right context;
    /// [`Sim::fs_reply`] completes the roundtrip. In SkyBridge mode the
    /// single `direct_server_call` models the whole transit (request and
    /// reply buffers both cross the shared buffer) and the work then runs
    /// on the migrated client thread.
    fn fs_call(&mut self, client: ThreadId, req: usize, resp: usize) {
        if !self.charging {
            return;
        }
        match self.mode {
            StackMode::SkyBridge => {
                let sb = self.sb.as_mut().expect("SkyBridge mode");
                let mut msg = vec![0u8; req.clamp(8, MSG_MAX)];
                msg[..4].copy_from_slice(&(resp.min(MSG_MAX) as u32).to_le_bytes());
                sb.direct_server_call(&mut self.k, client, self.sb_fs, &msg)
                    .expect("fs direct call");
            }
            _ => {
                let cap = self.fs_caps[self.client_index(client)];
                self.k
                    .ipc_call(client, cap, req.min(MSG_MAX))
                    .expect("client→fs IPC");
            }
        }
    }

    /// The reply leg back to `client` (IPC modes only; no-op under
    /// SkyBridge, whose call already covered it).
    fn fs_reply(&mut self, client: ThreadId, resp: usize) {
        if !self.charging {
            return;
        }
        match self.mode {
            StackMode::SkyBridge => {}
            _ => {
                let core = self.k.core_of(client);
                let fs_tid = self.fs_tid_for(core);
                self.k
                    .ipc_reply(fs_tid, client, resp.min(MSG_MAX))
                    .expect("fs→client reply");
            }
        }
    }

    /// One block transfer between the FS layer and the block-device
    /// server, on behalf of the executing context.
    fn bd_transport(&mut self, write: bool) {
        if !self.charging {
            return;
        }
        match self.mode {
            StackMode::SkyBridge => {
                // The FS code runs on the migrated client thread; the
                // nested call uses the client's own bindings (§4.2).
                let client = self.driver;
                let sb = self.sb.as_mut().expect("SkyBridge mode");
                let mut msg = vec![0u8; if write { BSIZE } else { 8 }];
                let resp = if write { 8usize } else { BSIZE };
                msg[..4].copy_from_slice(&(resp as u32).to_le_bytes());
                sb.direct_server_call(&mut self.k, client, self.sb_bd, &msg)
                    .expect("bd direct call");
                let core = self.k.core_of(client);
                self.k.machine.cpu_mut(core).advance(BD_CALL_CPU);
            }
            _ => {
                // The FS thread issues the block IPC from its core.
                let client_core = self.k.core_of(self.driver);
                let fs_tid = self.fs_tid_for(client_core);
                let fs_core = self.k.core_of(fs_tid);
                let bd_tid = self.bd_tid_for(fs_core);
                let cap = self.bd_caps[if self.mode == StackMode::IpcMt {
                    fs_core
                } else {
                    0
                }];
                let (req, resp) = if write { (BSIZE, 8) } else { (8, BSIZE) };
                self.k.ipc_call(fs_tid, cap, req).expect("fs→bd IPC");
                let bd_core = self.k.core_of(bd_tid);
                self.k.machine.cpu_mut(bd_core).advance(BD_CALL_CPU);
                self.k.ipc_reply(bd_tid, fs_tid, resp).expect("bd reply");
            }
        }
    }

    /// The core on which FS *computation* runs for the current driver.
    fn fs_compute_core(&self) -> CpuId {
        match self.mode {
            StackMode::SkyBridge => self.k.core_of(self.driver),
            _ => {
                let c = self.k.core_of(self.driver);
                self.k.core_of(self.fs_tid_for(c))
            }
        }
    }

    fn client_index(&self, tid: ThreadId) -> usize {
        // Client threads are created first, one per client, in order.
        tid
    }
}

/// A RAM disk whose every access charges the fs→blockdev transport.
pub struct ChargedDisk {
    sim: Rc<RefCell<Sim>>,
    disk: RamDisk,
}

impl BlockDevice for ChargedDisk {
    fn nblocks(&self) -> u32 {
        self.disk.nblocks()
    }

    fn read_block(&mut self, bno: u32) -> &[u8; BSIZE] {
        self.sim.borrow_mut().bd_transport(false);
        self.disk.read_block(bno)
    }

    fn write_block(&mut self, bno: u32, buf: &[u8; BSIZE]) {
        self.sim.borrow_mut().bd_transport(true);
        self.disk.write_block(bno, buf);
    }
}

/// The client-side file handle: every call takes the big lock, crosses
/// the transport, runs the real file-system code (whose block I/O charges
/// the block transport), and returns.
pub struct RemoteFs {
    sim: Rc<RefCell<Sim>>,
    fs: Rc<RefCell<FileSystem<ChargedDisk>>>,
    /// The owning client thread.
    pub tid: ThreadId,
}

impl RemoteFs {
    fn call<R>(
        &mut self,
        req: usize,
        resp: usize,
        blocks_hint: u64,
        f: impl FnOnce(&mut FileSystem<ChargedDisk>) -> R,
    ) -> R {
        // Take the big lock over simulated time.
        {
            let sim = &mut *self.sim.borrow_mut();
            sim.driver = self.tid;
            let core = sim.k.core_of(self.tid);
            let now = sim.k.machine.cpu(core).tsc;
            let start = sim.lock.acquire(self.tid, now);
            sim.k.machine.wait_until(core, start);
        }
        // Request transport (IPC: leaves the FS thread current).
        self.sim.borrow_mut().fs_call(self.tid, req, resp);
        // FS software work on the serving core.
        {
            let sim = &mut *self.sim.borrow_mut();
            let fs_core = sim.fs_compute_core();
            sim.k
                .machine
                .cpu_mut(fs_core)
                .advance(FS_CALL_CPU + blocks_hint * FS_PER_BLOCK_CPU);
        }
        // The real file-system operation (block I/O charges inside).
        let r = f(&mut self.fs.borrow_mut());
        // Reply transport + lock release.
        self.sim.borrow_mut().fs_reply(self.tid, resp);
        {
            let sim = &mut *self.sim.borrow_mut();
            let core = sim.k.core_of(self.tid);
            let end = sim.k.machine.cpu(core).tsc;
            sim.lock.release(end);
        }
        r
    }
}

impl FileApi for RemoteFs {
    fn open(&mut self, path: &str) -> Result<Inum, FsError> {
        let req = path.len() + 8;
        self.call(req, 8, 2, |fs| fs.open(path))
    }

    fn create(&mut self, path: &str) -> Result<Inum, FsError> {
        let req = path.len() + 8;
        self.call(req, 8, 4, |fs| fs.create(path))
    }

    fn read_at(&mut self, inum: Inum, off: usize, buf: &mut [u8]) -> usize {
        let blocks = (buf.len().div_ceil(BSIZE) + 1) as u64;
        self.call(16, buf.len() + 8, blocks, |fs| fs.read_at(inum, off, buf))
    }

    fn write_at(&mut self, inum: Inum, off: usize, data: &[u8]) -> Result<(), FsError> {
        let blocks = (data.len().div_ceil(BSIZE) + 1) as u64;
        self.call(data.len() + 16, 8, blocks, |fs| {
            fs.write_at(inum, off, data)
        })
    }

    fn size_of(&mut self, inum: Inum) -> usize {
        self.call(16, 8, 1, |fs| fs.size_of(inum))
    }
}

/// One client: its thread and its database connection.
pub struct Client {
    /// The client thread.
    pub tid: ThreadId,
    /// The database (real minidb over the remote file handle).
    pub db: Database<RemoteFs>,
    workload: Workload,
}

/// Throughput measurement result.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Operations completed (across all clients).
    pub ops: u64,
    /// Wall-clock simulated cycles of the measured region.
    pub wall_cycles: Cycles,
    /// Throughput in operations per second (4 GHz clock).
    pub ops_per_sec: f64,
    /// IPIs delivered during the region (the §6.5 IPI counts).
    pub ipis: u64,
    /// VM exits during the region (Table 5).
    pub vm_exits: u64,
}

/// The assembled stack.
pub struct SqliteStack {
    sim: Rc<RefCell<Sim>>,
    /// The clients.
    pub clients: Vec<Client>,
    /// Records loaded per table.
    records: u64,
}

impl SqliteStack {
    /// Builds the stack: `nclients` client threads (one per core), the FS
    /// and block-device servers per `mode`, on `personality`'s kernel.
    ///
    /// `hypervisor` boots the Rootkernel even in IPC modes (the Table 5
    /// virtualization-overhead configuration).
    pub fn new(
        personality: Personality,
        mode: StackMode,
        nclients: usize,
        hypervisor: bool,
    ) -> Self {
        let needs_rk = hypervisor || mode == StackMode::SkyBridge;
        let config = if needs_rk {
            KernelConfig {
                personality,
                rootkernel: Some(RootkernelConfig::default()),
                ..Default::default()
            }
        } else {
            KernelConfig::native(personality)
        };
        let mut k = Kernel::boot(config);
        let ncores = k.machine.num_cores();
        assert!(nclients >= 1);

        let code = |seed| sb_rewriter::corpus::generate(seed, 4096, 0);
        // Client processes first: their thread ids are 0..nclients, which
        // `Sim::client_index` relies on.
        let mut client_tids = Vec::new();
        let mut client_pids = Vec::new();
        for i in 0..nclients {
            let pid = k.create_process(&code(100 + i as u64));
            let tid = k.create_thread(pid, i % ncores);
            client_pids.push(pid);
            client_tids.push(tid);
        }
        let fs_pid = k.create_process(&code(50));
        let bd_pid = k.create_process(&code(51));

        // Server threads per mode. ST pins the two single server threads
        // to two distinct remote cores ("pin the client and the two
        // servers to three different physical cores", §6.5); MT creates a
        // pair per core.
        let mut fs_tids = Vec::new();
        let mut bd_tids = Vec::new();
        match mode {
            StackMode::IpcMt => {
                for c in 0..ncores {
                    fs_tids.push(k.create_thread(fs_pid, c));
                    bd_tids.push(k.create_thread(bd_pid, c));
                }
            }
            _ => {
                fs_tids.push(k.create_thread(fs_pid, ncores - 2));
                bd_tids.push(k.create_thread(bd_pid, ncores - 1));
            }
        }

        let mut sb = None;
        let mut fs_caps = vec![0; nclients];
        let mut bd_caps = vec![0; fs_tids.len()];
        let (mut sb_fs, mut sb_bd) = (0, 0);
        match mode {
            StackMode::SkyBridge => {
                let mut bridge = SkyBridge::new();
                // Pass-through handlers: the transport (buffer copies,
                // VMFUNCs, key checks) is fully real; the served bytes
                // are produced by the Rust-side FS outside the handler.
                sb_fs = bridge
                    .register_server(&mut k, fs_tids[0], 64, 2048, Box::new(pass_through))
                    .expect("fs registration");
                sb_bd = bridge
                    .register_server(&mut k, bd_tids[0], 64, 1024, Box::new(pass_through))
                    .expect("bd registration");
                for &tid in &client_tids {
                    bridge.register_client(&mut k, tid, sb_fs).unwrap();
                    bridge.register_client(&mut k, tid, sb_bd).unwrap();
                }
                sb = Some(bridge);
            }
            _ => {
                // Endpoints: one per server thread; clients get caps to
                // their core's (MT) or the single (ST) endpoint; the FS
                // process gets caps to the block-device endpoints.
                let mut fs_eps = Vec::new();
                let mut bd_eps = Vec::new();
                for i in 0..fs_tids.len() {
                    let (fe, _) = k.create_endpoint(fs_pid);
                    let (be, _) = k.create_endpoint(bd_pid);
                    k.server_recv(fs_tids[i], fe);
                    k.server_recv(bd_tids[i], be);
                    fs_eps.push(fe);
                    bd_eps.push(be);
                }
                for (i, &pid) in client_pids.iter().enumerate() {
                    let ep = match mode {
                        StackMode::IpcMt => fs_eps[k.core_of(client_tids[i])],
                        _ => fs_eps[0],
                    };
                    fs_caps[i] = k.grant_send(pid, ep);
                }
                for (i, &be) in bd_eps.iter().enumerate() {
                    bd_caps[i] = k.grant_send(fs_pid, be);
                }
            }
        }

        let sim = Rc::new(RefCell::new(Sim {
            k,
            sb,
            mode,
            lock: SimLock::big_kernel_lock(),
            fs_tids,
            bd_tids,
            fs_caps,
            bd_caps,
            sb_fs,
            sb_bd,
            driver: client_tids[0],
            charging: false,
        }));

        // One file system (the FS server's), on the charged disk.
        let disk = ChargedDisk {
            sim: sim.clone(),
            disk: RamDisk::new(96 * 1024),
        };
        let fs = Rc::new(RefCell::new(FileSystem::mkfs(disk, 128)));
        sim.borrow_mut().charging = true;

        // One database per client (each client process links its own
        // SQLite, all stored on the shared server file system).
        let mut clients = Vec::new();
        for (i, &tid) in client_tids.iter().enumerate() {
            sim.borrow_mut().k.run_thread(tid);
            let remote = RemoteFs {
                sim: sim.clone(),
                fs: fs.clone(),
                tid,
            };
            // A page cache smaller than a loaded table, so queries over a
            // spread key range take real misses (SQLite's cache vs the
            // 10,000-record table).
            let db = Database::open(remote, &format!("/db{i}"), 48).expect("open database");
            clients.push(Client {
                tid,
                db,
                workload: Workload::new(WorkloadSpec::ycsb_a(1, 100)),
            });
        }
        SqliteStack {
            sim,
            clients,
            records: 0,
        }
    }

    /// Loads `records` rows of `value_len` bytes into each client's
    /// table (outside the measured region).
    pub fn load(&mut self, records: u64, value_len: usize) {
        self.records = records;
        let payload = "x".repeat(value_len);
        for c in &mut self.clients {
            self.sim.borrow_mut().k.run_thread(c.tid);
            c.db.create_table("usertable").unwrap();
            for key in 0..records {
                c.db.insert("usertable", key as i64, &[Value::Text(payload.clone())])
                    .unwrap();
            }
            c.workload = Workload::new(WorkloadSpec::ycsb_a(records, value_len));
        }
    }

    fn snapshot(&self) -> (Cycles, u64, u64) {
        let sim = self.sim.borrow();
        let wall = sim.k.machine.wall_clock();
        let ipis = sim.k.machine.pmu_total().ipis;
        let exits = sim.k.rootkernel.as_ref().map_or(0, |rk| rk.exits.total());
        (wall, ipis, exits)
    }

    /// Ensures `tid` is current on its core (context switch charged).
    fn activate(&mut self, tid: ThreadId) {
        let mut sim = self.sim.borrow_mut();
        let core = sim.k.core_of(tid);
        if sim.k.current_thread(core) != Some(tid) {
            sim.k.run_thread(tid);
        }
    }

    /// Runs one benchmark operation on client `i`; returns `true` on
    /// success.
    pub fn one_op(&mut self, i: usize, kind: OpKind, key: i64) -> bool {
        self.activate(self.clients[i].tid);
        let c = &mut self.clients[i];
        let stats0 = c.db.stats();
        let payload = "y".repeat(c.workload.value_len().max(1));
        let ok = match kind {
            OpKind::Read => c.db.query("usertable", key).unwrap().is_some(),
            OpKind::Update => {
                c.db.update("usertable", key, &[Value::Text(payload)])
                    .is_ok()
            }
            OpKind::Insert => {
                c.db.insert("usertable", key, &[Value::Text(payload)])
                    .is_ok()
            }
        };
        // The database's own CPU work, charged to the client core.
        let stats1 = c.db.stats();
        let pages =
            (stats1.cache_hits - stats0.cache_hits) + (stats1.cache_misses - stats0.cache_misses);
        let tid = c.tid;
        let mut sim = self.sim.borrow_mut();
        sim.k.compute(tid, DB_OP_CPU + pages * DB_PAGE_CPU);
        ok
    }

    /// Runs `ops_per_client` YCSB operations per client, interleaving
    /// clients by simulated time (least-advanced core next).
    pub fn run_ycsb(&mut self, ops_per_client: usize) -> RunStats {
        let (w0, ipi0, exit0) = self.snapshot();
        let n = self.clients.len();
        let mut remaining: Vec<usize> = vec![ops_per_client; n];
        let mut total = 0u64;
        loop {
            // Pick the least-advanced client with work left.
            let next = (0..n).filter(|&i| remaining[i] > 0).min_by_key(|&i| {
                let sim = self.sim.borrow();
                let core = sim.k.core_of(self.clients[i].tid);
                sim.k.machine.cpu(core).tsc
            });
            let Some(i) = next else { break };
            let op = self.clients[i].workload.next_op();
            self.one_op(i, op.kind, op.key as i64);
            remaining[i] -= 1;
            total += 1;
        }
        let (w1, ipi1, exit1) = self.snapshot();
        let wall = w1 - w0;
        RunStats {
            ops: total,
            wall_cycles: wall,
            ops_per_sec: crate::scenarios::throughput(total, wall),
            ipis: ipi1 - ipi0,
            vm_exits: exit1 - exit0,
        }
    }

    /// Measures one Table 4 operation kind on client 0 over `n`
    /// operations against fresh keys, returning ops/s.
    pub fn measure_op(&mut self, kind: OpKind, n: usize) -> RunStats {
        let (w0, ipi0, exit0) = self.snapshot();
        let base = 1_000_000i64;
        let records = self.records.max(1);
        for j in 0..n {
            let key = match kind {
                OpKind::Insert => base + j as i64,
                // Spread reads/updates across the loaded table so the
                // page cache sees realistic miss rates.
                _ => ((j as i64) * 37) % records as i64,
            };
            let ok = self.one_op(0, kind, key);
            debug_assert!(ok, "benchmark op failed");
        }
        // Deletes need the freshly inserted keys; handled by caller
        // sequencing (insert first, then delete the same range).
        let (w1, ipi1, exit1) = self.snapshot();
        let wall = w1 - w0;
        RunStats {
            ops: n as u64,
            wall_cycles: wall,
            ops_per_sec: crate::scenarios::throughput(n as u64, wall),
            ipis: ipi1 - ipi0,
            vm_exits: exit1 - exit0,
        }
    }

    /// Measures `DELETE` over keys previously inserted by
    /// [`SqliteStack::measure_op`] with [`OpKind::Insert`].
    pub fn measure_delete(&mut self, n: usize) -> RunStats {
        let (w0, ipi0, exit0) = self.snapshot();
        let base = 1_000_000i64;
        for j in 0..n {
            self.activate(self.clients[0].tid);
            self.clients[0]
                .db
                .delete("usertable", base + j as i64)
                .unwrap();
        }
        let (w1, ipi1, exit1) = self.snapshot();
        let wall = w1 - w0;
        RunStats {
            ops: n as u64,
            wall_cycles: wall,
            ops_per_sec: crate::scenarios::throughput(n as u64, wall),
            ipis: ipi1 - ipi0,
            vm_exits: exit1 - exit0,
        }
    }

    /// Total VM exits since boot (Table 5).
    pub fn vm_exits(&self) -> u64 {
        self.sim
            .borrow()
            .k
            .rootkernel
            .as_ref()
            .map_or(0, |rk| rk.exits.total())
    }
}

/// The SkyBridge pass-through server handler: echoes a reply of the
/// length encoded in the request's first four bytes. All transport costs
/// (trampoline, VMFUNC, shared-buffer copies, key checks) are real.
fn pass_through(
    _sb: &mut SkyBridge,
    _k: &mut Kernel,
    _ctx: skybridge::api::HandlerCtx,
    req: &[u8],
) -> Result<skybridge::HandlerReply, skybridge::SbError> {
    let n = if req.len() >= 4 {
        u32::from_le_bytes(req[..4].try_into().unwrap()) as usize
    } else {
        0
    };
    Ok(vec![0u8; n.min(MSG_MAX)].into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack(mode: StackMode, n: usize) -> SqliteStack {
        let mut s = SqliteStack::new(Personality::sel4(), mode, n, false);
        s.load(64, 100);
        s
    }

    #[test]
    fn all_modes_execute_ycsb_correctly() {
        for mode in [StackMode::IpcSt, StackMode::IpcMt, StackMode::SkyBridge] {
            let mut s = stack(mode, 1);
            let stats = s.run_ycsb(40);
            assert_eq!(stats.ops, 40);
            assert!(stats.ops_per_sec > 0.0, "mode {mode:?}");
        }
    }

    #[test]
    fn st_uses_ipis_and_mt_mostly_does_not() {
        let mut st = stack(StackMode::IpcSt, 1);
        let mut mt = stack(StackMode::IpcMt, 1);
        let st_stats = st.run_ycsb(30);
        let mt_stats = mt.run_ycsb(30);
        assert!(
            st_stats.ipis > 50,
            "ST cross-core IPC must IPI ({})",
            st_stats.ipis
        );
        assert_eq!(mt_stats.ipis, 0, "MT same-core IPC must not IPI");
    }

    #[test]
    fn throughput_order_st_mt_skybridge() {
        // Table 4's shape: ST < MT < SkyBridge.
        let mut st = stack(StackMode::IpcSt, 1);
        let mut mt = stack(StackMode::IpcMt, 1);
        let mut sb = stack(StackMode::SkyBridge, 1);
        let t_st = st.run_ycsb(60).ops_per_sec;
        let t_mt = mt.run_ycsb(60).ops_per_sec;
        let t_sb = sb.run_ycsb(60).ops_per_sec;
        assert!(t_st < t_mt, "ST {t_st:.0} must trail MT {t_mt:.0}");
        assert!(t_mt < t_sb, "MT {t_mt:.0} must trail SkyBridge {t_sb:.0}");
    }

    #[test]
    fn skybridge_stack_takes_no_vm_exits_in_steady_state() {
        let mut s = stack(StackMode::SkyBridge, 1);
        s.run_ycsb(10); // Settle.
        let before = s.vm_exits();
        s.run_ycsb(40);
        assert_eq!(s.vm_exits(), before, "Table 5: zero exits");

        // Table 5 proper: the MT stack on a booted Rootkernel takes no
        // exits and runs at native speed.
        let native = stack(StackMode::IpcMt, 1).run_ycsb(40).ops_per_sec;
        let mut virt = SqliteStack::new(Personality::sel4(), StackMode::IpcMt, 1, true);
        virt.load(64, 100);
        let run = virt.run_ycsb(40);
        assert_eq!(run.vm_exits, 0, "Table 5: zero exits under MT");
        let ratio = run.ops_per_sec / native;
        assert!(
            (0.97..=1.03).contains(&ratio),
            "Rootkernel/native {ratio:.3}"
        );
    }

    #[test]
    fn contended_lock_caps_multithread_scaling() {
        let mut one = stack(StackMode::IpcMt, 1);
        let mut four = stack(StackMode::IpcMt, 4);
        let t1 = one.run_ycsb(40).ops_per_sec;
        let t4 = four.run_ycsb(40).ops_per_sec;
        // Aggregate throughput must not scale — the big lock caps it
        // (Fig. 9: it *drops*), and SkyBridge still leads at 4 threads.
        assert!(
            t4 < t1,
            "big-lock stack must drop from 1t={t1:.0} to 4t={t4:.0}"
        );
        let sky4 = stack(StackMode::SkyBridge, 4).run_ycsb(40).ops_per_sec;
        assert!(sky4 > t4, "SkyBridge {sky4:.0} must beat MT {t4:.0} at 4t");
        // Threads spend real simulated time blocked on the lock.
        let lock = &four.sim.borrow().lock;
        assert!(lock.wait_cycles > 1_000_000);
        assert!(lock.contention_ratio() > 0.01);
    }

    #[test]
    fn table4_op_kinds_run() {
        // Insert, update and query throughput under ST, MT and SkyBridge.
        let rates = [StackMode::IpcSt, StackMode::IpcMt, StackMode::SkyBridge].map(|mode| {
            let mut s = stack(mode, 1);
            let ops = [OpKind::Insert, OpKind::Update, OpKind::Read].map(|op| s.measure_op(op, 20));
            assert!(s.measure_delete(20).ops_per_sec > 0.0);
            assert!(
                ops[2].ops_per_sec > ops[1].ops_per_sec,
                "{mode:?}: query must be fastest (page cache)"
            );
            ops.map(|r| r.ops_per_sec)
        });
        // Table 4's shape: ST < MT < SkyBridge per op, and the page cache
        // gives queries a smaller SkyBridge/MT speed-up than updates.
        let [st, mt, sb] = rates;
        for op in 0..3 {
            assert!(
                0.0 < st[op] && st[op] < mt[op] && mt[op] < sb[op],
                "{}: {rates:?}",
                ["insert", "update", "query"][op]
            );
        }
        assert!(
            sb[2] / mt[2] < sb[1] / mt[1],
            "query speed-up must trail update's: {rates:?}"
        );
    }
}
