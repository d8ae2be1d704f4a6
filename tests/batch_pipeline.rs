//! Batch-verification differential at the node level: with
//! `batch_verify` on and off, both validators must return the identical
//! accept/reject decision and the identical error — including the
//! minimum-`(tx, input)` selection — on every block of a tampered chain.
//! Batching is the node default; the strict per-input path, parallel and
//! sequential, is the oracle every batched arm is held to.

use ebv_core::tidy::{EbvBlock, InputBody};
use ebv_core::{BaselineConfig, BaselineNode, EbvConfig, EbvNode, Intermediary};
use ebv_script::Script;
use ebv_store::{KvStore, StoreConfig, UtxoSet};
use ebv_workload::{ChainGenerator, GeneratorParams};

fn build_chains(params: GeneratorParams) -> (Vec<ebv_chain::Block>, Vec<EbvBlock>) {
    let blocks = ChainGenerator::new(params).generate();
    let ebv_blocks = Intermediary::new(0)
        .convert_chain(&blocks)
        .expect("generated chains always convert");
    (blocks, ebv_blocks)
}

/// Recompute the hash links after mutating transaction `tx`'s bodies.
fn relink(block: &mut EbvBlock, tx: usize) {
    let hashes: Vec<_> = block.transactions[tx]
        .bodies
        .iter()
        .map(InputBody::hash)
        .collect();
    block.transactions[tx].tidy.input_hashes = hashes;
    block.header.merkle_root = block.compute_merkle_root();
}

/// Corrupt one byte inside the signature push of input `(tx, input)`'s
/// unlocking script — the tamper lands in the ECDSA check itself, which is
/// exactly the work the batch settles differently from the strict path.
fn tamper_signature(block: &EbvBlock, tx: usize, input: usize) -> EbvBlock {
    let mut b = block.clone();
    let mut bytes = b.transactions[tx].bodies[input].us.as_bytes().to_vec();
    // Byte 0 is the push-length opcode; byte 1 starts the 64-byte compact
    // signature. Flip mid-signature so both components stay in range and
    // the failure is a clean equation mismatch, not a parse error.
    bytes[20] ^= 0x01;
    b.transactions[tx].bodies[input].us = Script::from_bytes(bytes);
    relink(&mut b, tx);
    b
}

/// Same corruption for a baseline block.
fn tamper_baseline_signature(
    block: &ebv_chain::Block,
    tx: usize,
    input: usize,
) -> ebv_chain::Block {
    let mut b = block.clone();
    let mut bytes = b.transactions[tx].inputs[input]
        .unlocking_script
        .as_bytes()
        .to_vec();
    bytes[20] ^= 0x01;
    b.transactions[tx].inputs[input].unlocking_script = Script::from_bytes(bytes);
    b.header.merkle_root = b.compute_merkle_root();
    b
}

#[test]
fn ebv_batch_and_strict_report_identical_errors() {
    let (_, chain) = build_chains(GeneratorParams::tiny(400, 0xba7c));
    let mut strict = EbvNode::new(
        &chain[0],
        EbvConfig {
            batch_verify: false,
            ..EbvConfig::default()
        },
    );
    let mut strict_seq = EbvNode::new(
        &chain[0],
        EbvConfig {
            batch_verify: false,
            ..EbvConfig::sequential()
        },
    );
    let mut batch = EbvNode::new(
        &chain[0],
        EbvConfig {
            batch_verify: true,
            ..EbvConfig::default()
        },
    );
    let mut batch_seq = EbvNode::new(
        &chain[0],
        EbvConfig {
            batch_verify: true,
            ..EbvConfig::sequential()
        },
    );

    for (h, block) in chain.iter().enumerate().skip(1) {
        // Every 5th block: tamper a signature (possibly several, to
        // exercise minimum-(tx, input) selection) and demand the same
        // rejection from all four configurations.
        if h % 5 == 0
            && block.transactions.len() > 1
            && block.transactions[1].bodies[0].proof.is_some()
        {
            let mut bad = tamper_signature(block, 1, 0);
            if h % 10 == 0
                && bad.transactions.len() > 2
                && bad.transactions[2].bodies[0].proof.is_some()
            {
                bad = tamper_signature(&bad, 2, 0);
            }
            let e_strict = strict.process_block(&bad).expect_err("tampered sig");
            let e_batch = batch.process_block(&bad).expect_err("tampered sig");
            let e_seq = batch_seq.process_block(&bad).expect_err("tampered sig");
            let e_strict_seq = strict_seq.process_block(&bad).expect_err("tampered sig");
            assert_eq!(e_strict, e_batch, "height {h}: strict vs batch error");
            assert_eq!(e_strict, e_seq, "height {h}: strict vs batch-seq error");
            assert_eq!(
                e_strict, e_strict_seq,
                "height {h}: strict vs strict-seq error"
            );
        }
        let r_strict = strict.process_block(block);
        let r_batch = batch.process_block(block);
        let r_seq = batch_seq.process_block(block);
        let r_strict_seq = strict_seq.process_block(block);
        assert_eq!(
            r_strict.as_ref().err(),
            r_batch.as_ref().err(),
            "height {h}"
        );
        assert_eq!(r_strict.as_ref().err(), r_seq.as_ref().err(), "height {h}");
        assert_eq!(
            r_strict.as_ref().err(),
            r_strict_seq.as_ref().err(),
            "height {h}"
        );
        assert!(r_strict.is_ok(), "height {h}: generated block validates");
    }

    assert_eq!(strict.tip_height(), batch.tip_height());
    assert_eq!(strict.tip_hash(), batch.tip_hash());
    assert_eq!(strict.state_digest(), batch.state_digest());
    assert_eq!(strict.state_digest(), batch_seq.state_digest());
    assert_eq!(strict.state_digest(), strict_seq.state_digest());
}

#[test]
fn baseline_batch_and_strict_agree() {
    let (blocks, _) = build_chains(GeneratorParams::tiny(120, 0x5eed));
    let fresh = || {
        UtxoSet::new(
            KvStore::open(StoreConfig {
                cache_budget: 1 << 20,
                latency: Default::default(),
                path: None,
            })
            .expect("temp store opens"),
        )
    };
    let mut strict = BaselineNode::new(
        &blocks[0],
        fresh(),
        BaselineConfig {
            batch_verify: false,
            ..BaselineConfig::default()
        },
    )
    .expect("genesis");
    let mut strict_seq = BaselineNode::new(
        &blocks[0],
        fresh(),
        BaselineConfig {
            batch_verify: false,
            parallel_sv: false,
            ..BaselineConfig::default()
        },
    )
    .expect("genesis");
    let mut batch = BaselineNode::new(
        &blocks[0],
        fresh(),
        BaselineConfig {
            batch_verify: true,
            ..BaselineConfig::default()
        },
    )
    .expect("genesis");

    for (h, block) in blocks.iter().enumerate().skip(1) {
        if h % 6 == 0 && block.transactions.len() > 1 && !block.transactions[1].inputs.is_empty() {
            let bad = tamper_baseline_signature(block, 1, 0);
            let e_strict = strict.process_block(&bad).expect_err("tampered sig");
            let e_batch = batch.process_block(&bad).expect_err("tampered sig");
            let e_strict_seq = strict_seq.process_block(&bad).expect_err("tampered sig");
            // BaselineError wraps io::Error and so cannot derive PartialEq;
            // the Debug rendering carries the full (tx, input, err) triple.
            assert_eq!(
                format!("{e_strict:?}"),
                format!("{e_batch:?}"),
                "height {h}: baseline batch error"
            );
            assert_eq!(
                format!("{e_strict:?}"),
                format!("{e_strict_seq:?}"),
                "height {h}: baseline strict-seq error"
            );
        }
        let r_strict = strict.process_block(block);
        let r_batch = batch.process_block(block);
        let r_strict_seq = strict_seq.process_block(block);
        assert_eq!(
            r_strict.as_ref().err().map(|e| format!("{e:?}")),
            r_batch.as_ref().err().map(|e| format!("{e:?}")),
            "height {h}"
        );
        assert_eq!(
            r_strict.as_ref().err().map(|e| format!("{e:?}")),
            r_strict_seq.as_ref().err().map(|e| format!("{e:?}")),
            "height {h}"
        );
        assert!(r_strict.is_ok(), "height {h}: generated block validates");
    }
    assert_eq!(strict.tip_height(), batch.tip_height());
    assert_eq!(strict.tip_hash(), batch.tip_hash());
    assert_eq!(strict.tip_hash(), strict_seq.tip_hash());
}
