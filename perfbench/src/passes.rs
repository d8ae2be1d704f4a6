//! One measured pass per workload: a fresh node takes the whole chain in a
//! closed loop — the next block is handed over only after the previous one
//! committed — and every call into a layer is timed from here, outside the
//! crates.

use ebv_chain::Block;
use ebv_core::{
    serve_blocks, sync_multi, BaselineConfig, BaselineNode, EbvBlock, EbvConfig, EbvNode,
    SyncConfig, TcpPeer, TcpServer, ValidatingNode, WireConfig,
};
use ebv_primitives::encode::DecodeError;
use ebv_primitives::hash::Hash256;
use ebv_store::{DboStats, KvStore, LatencyModel, StoreConfig, UtxoSet};
use ebv_telemetry::Stopwatch;
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::chain::Chain;

/// Baseline cache budget: ~1.5 % of the ~1.6 MB live UTXO set, so almost
/// every fetch goes to the disk log.
pub const BASELINE_CACHE_BYTES: usize = 24 << 10;
/// Injected disk latency per random read / write, microseconds (spin
/// model in `ebv_store::LatencyModel`, not a device).
pub const DISK_READ_US: u64 = 100;
pub const DISK_WRITE_US: u64 = 25;

/// What a pass leaves behind, for the output check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EndState {
    pub tip: Hash256,
    pub unspent: u64,
    /// Status data the node holds at the tip.
    pub status_bytes: u64,
}

/// One pass's measurements.
pub struct Pass {
    /// From the first block's bytes to the last commit.
    pub wall_s: f64,
    /// Per block: bytes in hand to committed state.
    pub latencies_ms: Vec<f64>,
    pub decode_s: f64,
    /// Time inside the node's block entry point, timed from outside.
    pub node_s: f64,
    /// The node's own phase split of `node_s` (its breakdown struct).
    pub phases: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub rejected: u64,
    pub end: EndState,
    pub store: Option<DboStats>,
}

impl Pass {
    /// Leaf layers that partition the wall, apart from `unattributed_s`.
    /// For a sync pass the transport share is whatever the wall holds
    /// beyond decode and the node, so it appears as its own leaf.
    pub fn leaves(&self, transport: bool) -> Vec<(&'static str, f64)> {
        let mut leaves = vec![("chain.decode_s", self.decode_s)];
        leaves.extend(self.phases.iter().copied());
        if transport {
            leaves.push(("sync.transport_s", self.transport_s()));
        }
        leaves
    }

    pub fn transport_s(&self) -> f64 {
        self.wall_s - self.decode_s - self.node_s
    }
}

/// Block-level timing shared by the replay loop and the sync wrapper.
#[derive(Default)]
struct Recorder {
    latencies_ms: Vec<f64>,
    decode: Duration,
    node: Duration,
    attempted: u64,
    rejected: u64,
}

impl Recorder {
    fn block(&mut self, decode: Duration, node: Duration, ok: bool) {
        self.attempted += 1;
        self.decode += decode;
        self.node += node;
        if ok {
            self.latencies_ms.push((decode + node).as_secs_f64() * 1e3);
        } else {
            self.rejected += 1;
        }
    }

    fn into_pass<N: Measured>(self, node: &N, wall: Duration) -> Pass {
        Pass {
            wall_s: wall.as_secs_f64(),
            latencies_ms: self.latencies_ms,
            decode_s: self.decode.as_secs_f64(),
            node_s: self.node.as_secs_f64(),
            phases: node.phases(),
            attempted: self.attempted,
            rejected: self.rejected,
            end: node.end_state(),
            store: node.store(),
        }
    }
}

/// Read-outs a pass takes from the node after its last block.
pub trait Measured: ValidatingNode {
    fn phases(&self) -> Vec<(&'static str, f64)>;
    fn end_state(&self) -> EndState;
    fn store(&self) -> Option<DboStats> {
        None
    }
}

impl Measured for EbvNode {
    fn phases(&self) -> Vec<(&'static str, f64)> {
        let b = self.cumulative_breakdown();
        vec![
            ("ebv_node.ev_s", b.ev.as_secs_f64()),
            ("ebv_node.uv_s", b.uv.as_secs_f64()),
            ("ebv_node.sv_s", b.sv.as_secs_f64()),
            ("ebv_node.commit_s", b.commit.as_secs_f64()),
            ("ebv_node.others_s", b.others.as_secs_f64()),
        ]
    }

    fn end_state(&self) -> EndState {
        EndState {
            tip: self.tip_hash(),
            unspent: self.total_unspent(),
            status_bytes: self.status_memory().optimized,
        }
    }
}

impl Measured for BaselineNode {
    fn phases(&self) -> Vec<(&'static str, f64)> {
        let b = self.cumulative_breakdown();
        vec![
            ("baseline_node.dbo_s", b.dbo.as_secs_f64()),
            ("baseline_node.sv_s", b.sv.as_secs_f64()),
            ("baseline_node.others_s", b.others.as_secs_f64()),
        ]
    }

    fn end_state(&self) -> EndState {
        let size = self.utxos().size();
        EndState {
            tip: self.tip_hash(),
            unspent: size.count,
            status_bytes: size.bytes,
        }
    }

    fn store(&self) -> Option<DboStats> {
        Some(self.utxos().stats())
    }
}

/// A freshly booted EBV node with every core as a validator worker.
pub fn boot_ebv(genesis: &EbvBlock) -> EbvNode {
    EbvNode::new(genesis, EbvConfig::default())
}

/// A freshly booted baseline node over an empty disk log at `log`.
pub fn boot_baseline(genesis: &Block, log: &Path, cache_bytes: usize, disk: bool) -> BaselineNode {
    // A leftover log would be replayed into the new store.
    let _ = std::fs::remove_file(log);
    let latency = if disk {
        LatencyModel::scaled_hdd(DISK_READ_US, DISK_WRITE_US)
    } else {
        LatencyModel::none()
    };
    let store = KvStore::open(StoreConfig {
        cache_budget: cache_bytes,
        latency,
        path: Some(log.to_path_buf()),
    })
    .expect("store log opens inside the checkout");
    BaselineNode::new(genesis, UtxoSet::new(store), BaselineConfig::default())
        .expect("genesis applies")
}

/// Replay `wire[1..]` into `node`: decode, then process, block by block.
/// The first rejected block ends the pass.
pub fn replay<N: Measured>(mut node: N, wire: &[Vec<u8>]) -> Pass {
    let mut rec = Recorder::default();
    let wall = Stopwatch::start();
    for bytes in &wire[1..] {
        let clock = Stopwatch::start();
        let decoded = N::decode_block(bytes);
        let decode = clock.elapsed();
        let ok = match decoded {
            Ok(block) => node.connect_block(&block).is_ok(),
            Err(_) => false,
        };
        rec.block(decode, clock.elapsed() - decode, ok);
        if !ok {
            break;
        }
    }
    rec.into_pass(&node, wall.elapsed())
}

thread_local! {
    /// Decode time per block hash: the sync driver decodes a whole batch before
    /// it connects any of it, so decode and connect of one block are
    /// paired up by hash.
    static DECODED: RefCell<HashMap<Hash256, Duration>> = RefCell::new(HashMap::new());
}

/// A [`ValidatingNode`] that times decode and connect of every block the
/// sync driver hands it.
struct Timed<N> {
    node: N,
    rec: Recorder,
}

impl<N: Measured> ValidatingNode for Timed<N> {
    type Block = N::Block;
    type Error = N::Error;

    fn decode_block(bytes: &[u8]) -> Result<N::Block, DecodeError> {
        let clock = Stopwatch::start();
        let block = N::decode_block(bytes)?;
        let elapsed = clock.elapsed();
        DECODED.with(|m| m.borrow_mut().insert(N::block_hash(&block), elapsed));
        Ok(block)
    }

    fn block_hash(block: &N::Block) -> Hash256 {
        N::block_hash(block)
    }

    fn block_prev_hash(block: &N::Block) -> Hash256 {
        N::block_prev_hash(block)
    }

    fn tip_height(&self) -> u32 {
        self.node.tip_height()
    }

    fn tip_hash(&self) -> Hash256 {
        self.node.tip_hash()
    }

    fn header_hash_at(&self, height: u32) -> Option<Hash256> {
        self.node.header_hash_at(height)
    }

    fn connect_block(&mut self, block: &N::Block) -> Result<(), N::Error> {
        let decode = DECODED
            .with(|m| m.borrow_mut().remove(&N::block_hash(block)))
            .unwrap_or_default();
        let clock = Stopwatch::start();
        let result = self.node.connect_block(block);
        self.rec.block(decode, clock.elapsed(), result.is_ok());
        result
    }

    fn disconnect_tip_block(&mut self) -> Result<Option<u32>, N::Error> {
        self.node.disconnect_tip_block()
    }

    fn is_not_on_tip(err: &N::Error) -> bool {
        N::is_not_on_tip(err)
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.node.check_invariants()
    }
}

/// Serve the converted chain over localhost TCP.
pub fn bind_server(chain: &Chain) -> TcpServer {
    serve_blocks(
        chain.ebv_blocks.clone(),
        network(chain),
        WireConfig::default(),
    )
    .expect("localhost listener binds")
}

fn network(chain: &Chain) -> Hash256 {
    chain.ebv_blocks[0].header.hash()
}

/// Sync `node` from `server` over one TCP connection with the default
/// driver settings.
pub fn sync_tcp<N: Measured>(node: N, server: &TcpServer, chain: &Chain) -> Pass {
    let mut timed = Timed {
        node,
        rec: Recorder::default(),
    };
    let peer = TcpPeer::new(0, server.addr(), network(chain), WireConfig::default());
    let wall = Stopwatch::start();
    let result = sync_multi(&mut timed, vec![peer], &SyncConfig::default());
    let wall = wall.elapsed();
    if let Err(err) = result {
        eprintln!("perfbench: sync failed: {err}");
    }
    // Blocks decoded but never connected (a batch cut short) still cost
    // decode time.
    let leftover: Duration = DECODED.with(|m| m.borrow_mut().drain().map(|(_, d)| d).sum());
    timed.rec.decode += leftover;
    timed.rec.into_pass(&timed.node, wall)
}

/// A unique disk-log path under `dir`.
pub fn log_path(dir: &Path, tag: &str) -> PathBuf {
    dir.join(format!("store-{}-{tag}.log", std::process::id()))
}
