//! Benchmark inputs: the generated chain in the format a workload replays,
//! and the independent reference the output check compares against.

use ebv_chain::{Block, OutPoint};
use ebv_core::{EbvBlock, Intermediary};
use ebv_primitives::encode::Encodable;
use ebv_primitives::hash::Hash256;
use ebv_telemetry::Stopwatch;
use ebv_workload::{ChainGenerator, GeneratorParams};
use std::collections::HashSet;

/// The generator profile every workload shares: `mainnet_like` with the
/// consolidation epoch `Scenario::mainnet_like` places at ~80 % of the
/// chain.
pub fn params(n_blocks: u32, seed: u64) -> GeneratorParams {
    GeneratorParams::mainnet_like(n_blocks, seed)
        .with_consolidation(n_blocks * 10 / 13, n_blocks * 11 / 13)
}

/// One generated ledger, ready to replay.
pub struct Chain {
    /// The generated chain (baseline format), genesis first.
    pub blocks: Vec<Block>,
    /// The intermediary's EBV conversion; empty when the workload replays
    /// the baseline format.
    pub ebv_blocks: Vec<EbvBlock>,
    /// Serialized blocks in the replayed format, genesis first.
    pub wire: Vec<Vec<u8>>,
    pub generate_s: f64,
    pub convert_s: f64,
}

impl Chain {
    /// Generate the chain and, when `ebv`, convert it through the
    /// intermediary. `wire` holds the bytes of the format replayed.
    pub fn build(n_blocks: u32, seed: u64, ebv: bool) -> Chain {
        let clock = Stopwatch::start();
        let blocks = ChainGenerator::new(params(n_blocks, seed)).generate();
        let generate_s = clock.elapsed().as_secs_f64();
        let (ebv_blocks, convert_s) = if ebv {
            let clock = Stopwatch::start();
            let converted = Intermediary::new(0)
                .convert_chain(&blocks)
                .expect("generated chains always convert");
            (converted, clock.elapsed().as_secs_f64())
        } else {
            (Vec::new(), 0.0)
        };
        let wire = if ebv {
            ebv_blocks.iter().map(Encodable::to_bytes).collect()
        } else {
            blocks.iter().map(Encodable::to_bytes).collect()
        };
        Chain {
            blocks,
            ebv_blocks,
            wire,
            generate_s,
            convert_s,
        }
    }

    /// Non-coinbase inputs across the chain: the work IBD validates.
    pub fn inputs(&self) -> u64 {
        ChainGenerator::stats(&self.blocks).inputs
    }

    /// Hash of the last block in the replayed format.
    pub fn tip(&self) -> Hash256 {
        match self.ebv_blocks.last() {
            Some(b) => b.header.hash(),
            None => self.blocks.last().expect("genesis present").header.hash(),
        }
    }

    /// Unspent outputs after the whole chain, by walking the generated
    /// blocks with a plain outpoint set — no store, no bit vectors.
    pub fn unspent_by_walk(&self) -> Result<u64, String> {
        let mut live: HashSet<OutPoint> = HashSet::new();
        for (height, block) in self.blocks.iter().enumerate() {
            for tx in &block.transactions {
                if !tx.is_coinbase() {
                    for input in &tx.inputs {
                        if !live.remove(&input.prevout) {
                            return Err(format!("height {height} spends a missing output"));
                        }
                    }
                }
                let txid = tx.txid();
                live.extend((0..tx.outputs.len() as u32).map(|vout| OutPoint::new(txid, vout)));
            }
        }
        Ok(live.len() as u64)
    }
}
