//! Differential tests: the EC fast path (comb/wNAF tables, windowed wNAF
//! recoding, the width-generic multi-scalar ladder, batch normalization,
//! eGCD inversion, projective x-comparison) against the reference
//! double-and-add ladder that predates it.
//!
//! The reference implementations (`Jacobian::mul`, `Jacobian::shamir_mul`,
//! `ecdsa::verify_reference`, `Fe::invert_fermat`, `Scalar::invert_fermat`,
//! and the bit-serial wNAF below) are kept byte-for-byte stable precisely
//! so these tests pin the fast path to known-good behavior over
//! adversarial scalar shapes: zero, one, powers of two straddling limb
//! boundaries, the group order's neighborhood, and a deterministic
//! pseudo-random sweep.

use ebv_primitives::ec::ecdsa::{self, Signature};
use ebv_primitives::ec::field::Fe;
use ebv_primitives::ec::keys::{PrivateKey, PublicKey};
use ebv_primitives::ec::point::{
    lincomb_gen, multi_scalar_mul, Affine, Jacobian, MsmBase, MsmTerm, PointTable,
};
use ebv_primitives::ec::scalar::{Scalar, HALF_N, N};
use ebv_primitives::hash::sha256;
use ebv_primitives::u256::U256;

/// `2^k` as a U256 (`k < 256`).
fn pow2(k: usize) -> U256 {
    let mut limbs = [0u64; 4];
    limbs[k / 64] = 1u64 << (k % 64);
    U256 { limbs }
}

/// Scalars chosen to stress limb boundaries, wNAF carry chains and the
/// top of the scalar range.
fn edge_scalars() -> Vec<Scalar> {
    let mut out = vec![
        Scalar::ZERO,
        Scalar::ONE,
        Scalar::from_u64(2),
        Scalar::from_u64(3),
        Scalar::from_u64(0xffff_ffff_ffff_ffff),
    ];
    for k in [31usize, 63, 64, 127, 128, 191, 255] {
        let p = pow2(k);
        out.push(Scalar::from_be_bytes_reduced(&p.to_be_bytes()));
        out.push(Scalar::from_be_bytes_reduced(
            &p.overflowing_sub(&U256::ONE).0.to_be_bytes(),
        ));
        out.push(Scalar::from_be_bytes_reduced(
            &p.overflowing_add(&U256::ONE).0.to_be_bytes(),
        ));
    }
    let n_minus_1 = N.overflowing_sub(&U256::ONE).0;
    let n_minus_2 = N.overflowing_sub(&U256::from_u64(2)).0;
    out.push(Scalar(n_minus_1));
    out.push(Scalar(n_minus_2));
    out.push(Scalar(HALF_N));
    out.push(Scalar(HALF_N.overflowing_add(&U256::ONE).0));
    out.push(Scalar(HALF_N.overflowing_sub(&U256::ONE).0));
    out
}

/// Deterministic scalar stream: a sha256 chain seeded by `seed`, reduced
/// mod n. No RNG so failures replay exactly.
fn sweep_scalars(seed: &[u8], count: usize) -> Vec<Scalar> {
    let mut out = Vec::with_capacity(count);
    let mut state = sha256(seed);
    for _ in 0..count {
        out.push(Scalar::from_be_bytes_reduced(&state));
        state = sha256(&state);
    }
    out
}

#[test]
fn mul_gen_matches_reference_over_edge_scalars() {
    for k in edge_scalars() {
        assert_eq!(
            Affine::mul_gen(&k).to_affine(),
            Affine::G.mul(&k),
            "k = {k:?}"
        );
    }
}

#[test]
fn mul_gen_matches_reference_over_sweep() {
    for k in sweep_scalars(b"mul_gen sweep", 24) {
        assert_eq!(
            Affine::mul_gen(&k).to_affine(),
            Affine::G.mul(&k),
            "k = {k:?}"
        );
    }
}

#[test]
fn lincomb_matches_shamir_over_edge_scalars() {
    let g = Affine::G.to_jacobian();
    let q = g.mul(&Scalar::from_u64(0x5eed));
    let table = PointTable::new(&q.to_affine());
    // Pair each edge scalar with a shifted copy of the list so both inputs
    // see every edge value.
    let edges = edge_scalars();
    for (i, u1) in edges.iter().enumerate() {
        let u2 = &edges[(i + 7) % edges.len()];
        let expected = g.shamir_mul(u1, &q, u2).to_affine();
        assert_eq!(
            lincomb_gen(u1, &table, u2).to_affine(),
            expected,
            "u1 = {u1:?}, u2 = {u2:?}"
        );
    }
}

#[test]
fn lincomb_matches_separate_muls_over_sweep() {
    let g = Affine::G.to_jacobian();
    let scalars = sweep_scalars(b"lincomb sweep", 30);
    for chunk in scalars.chunks(3) {
        let [qk, u1, u2] = chunk else { unreachable!() };
        let q = g.mul(qk);
        let table = PointTable::new(&q.to_affine());
        let expected = g.mul(u1).add_jacobian(&q.mul(u2)).to_affine();
        assert_eq!(lincomb_gen(u1, &table, u2).to_affine(), expected);
    }
}

/// The bit-serial wNAF recoding `Scalar::wnaf` replaced: one 256-bit
/// add or subtract and shift per bit. The canonical wNAF is unique, so the
/// windowed recoding must match it digit for digit.
fn wnaf_bit_serial(k: &Scalar, w: u32) -> Vec<i32> {
    let mut k = k.0;
    let mut digits = Vec::with_capacity(k.bits() + 1);
    let window = 1u64 << w;
    let sign_bound = 1i64 << (w - 1);
    while !k.is_zero() {
        if k.limbs[0] & 1 == 1 {
            let low = (k.limbs[0] & (window - 1)) as i64;
            let d = if low >= sign_bound {
                low - window as i64
            } else {
                low
            };
            digits.push(d as i32);
            if d >= 0 {
                k = k.overflowing_sub(&U256::from_u64(d as u64)).0;
            } else {
                let (sum, carry) = k.overflowing_add(&U256::from_u64(d.unsigned_abs()));
                assert!(!carry, "wNAF round-up cannot overflow 256 bits");
                k = sum;
            }
        } else {
            digits.push(0);
        }
        k = k.shr1();
    }
    digits
}

#[test]
fn wnaf_matches_bit_serial_oracle() {
    // Edge scalars, full-width sweep values, and 64-bit values (the batch
    // verifier's coefficient width) with carries at every window position.
    let mut scalars = edge_scalars();
    scalars.extend(sweep_scalars(b"wnaf sweep", 64));
    for k in sweep_scalars(b"wnaf short", 64) {
        scalars.push(Scalar::from_u64(k.0.limbs[0]));
    }
    for k in &scalars {
        for w in 2..=8u32 {
            assert_eq!(k.wnaf(w), wnaf_bit_serial(k, w), "wnaf({w}) of {k:?}");
        }
    }
}

#[test]
fn wnaf_reconstructs_edge_scalars_at_all_widths() {
    for k in edge_scalars() {
        for w in 2..=8u32 {
            let digits = k.wnaf(w);
            let mut acc = Scalar::ZERO;
            let mut pow = Scalar::ONE;
            let two = Scalar::from_u64(2);
            for &d in &digits {
                if d != 0 {
                    assert!(d % 2 != 0, "even digit in wnaf({w}) of {k:?}");
                    assert!(d.unsigned_abs() < 1 << (w - 1), "digit overflow");
                    let term = pow.mul(&Scalar::from_u64(d.unsigned_abs() as u64));
                    acc = if d > 0 {
                        acc.add(&term)
                    } else {
                        acc.add(&term.neg())
                    };
                }
                pow = pow.mul(&two);
            }
            assert_eq!(acc, k, "wnaf({w}) reconstruction of {k:?}");
        }
    }
}

#[test]
fn msm_matches_reference_over_mixed_bases() {
    // Term sets mixing one-shot width-5 tables, prepared width-8 tables
    // and bare width-2 points (the batch verifier's nonce terms), each
    // negated or not, with zero, short (64-bit), edge and full-width
    // scalars, against a sum of reference double-and-add multiplications.
    let g = Affine::G;
    let edges = edge_scalars();
    let mut rng = sweep_scalars(b"msm mix", 4096).into_iter();
    let mut next = move || rng.next().expect("enough draws").0.limbs[0];
    let points: Vec<Affine> = sweep_scalars(b"msm points", 6)
        .iter()
        .map(|k| g.mul(k))
        .chain([Affine::Infinity])
        .collect();
    let one_shot: Vec<PointTable> = points.iter().map(PointTable::new).collect();
    let prepared: Vec<PointTable> = points.iter().map(PointTable::prepared).collect();
    let full = sweep_scalars(b"msm scalars", 64);
    for set in 0..40 {
        let gen_scalar = match set % 4 {
            0 => Scalar::ZERO,
            1 => Scalar::from_u64(next()),
            2 => edges[next() as usize % edges.len()],
            _ => full[next() as usize % full.len()],
        };
        let count = 1 + next() as usize % 7;
        let mut terms = Vec::with_capacity(count + 1);
        let mut expected = g.mul(&gen_scalar);
        for _ in 0..count {
            let p = next() as usize % points.len();
            let kind = next() % 3;
            let scalar = match next() % 4 {
                0 => Scalar::ZERO,
                1 => Scalar::from_u64(next()),
                2 => edges[next() as usize % edges.len()],
                _ => full[next() as usize % full.len()],
            };
            let negate = next() % 2 == 1;
            let base = match kind {
                0 => MsmBase::Table(&one_shot[p]),
                1 => MsmBase::Table(&prepared[p]),
                _ => MsmBase::Point(points[p]),
            };
            terms.push(MsmTerm {
                scalar,
                base,
                negate,
            });
            let part = points[p].mul(&scalar);
            expected = expected.add(&if negate { part.neg() } else { part });
        }
        assert_eq!(
            multi_scalar_mul(&gen_scalar, &terms).to_affine(),
            expected,
            "set {set}: {terms:?}"
        );
        // Cancelling the sum with one more bare term lands exactly on
        // infinity — the batch verifier's accept condition.
        terms.push(MsmTerm {
            scalar: Scalar::ONE,
            base: MsmBase::Point(expected),
            negate: true,
        });
        assert!(
            multi_scalar_mul(&gen_scalar, &terms).is_infinity(),
            "set {set}"
        );
    }
}

#[test]
fn lincomb_prepared_matches_one_shot_over_edge_scalars() {
    let q = Affine::G.mul(&Scalar::from_u64(0xfeed));
    let one_shot = PointTable::new(&q);
    let prepared = PointTable::prepared(&q);
    let edges = edge_scalars();
    for (i, u1) in edges.iter().enumerate() {
        let u2 = &edges[(i + 5) % edges.len()];
        assert_eq!(
            lincomb_gen(u1, &prepared, u2).to_affine(),
            lincomb_gen(u1, &one_shot, u2).to_affine(),
            "u1 = {u1:?}, u2 = {u2:?}"
        );
    }
}

#[test]
fn batch_to_affine_matches_individual_projection() {
    let g = Affine::G.to_jacobian();
    // Mix infinities into every position of a varied batch.
    let mut points = vec![Jacobian::infinity()];
    for k in sweep_scalars(b"batch", 12) {
        points.push(g.mul(&k));
        points.push(Jacobian::infinity());
    }
    let batch = Jacobian::batch_to_affine(&points);
    assert_eq!(batch.len(), points.len());
    for (i, (b, p)) in batch.iter().zip(&points).enumerate() {
        assert_eq!(*b, p.to_affine(), "index {i}");
    }
    assert!(Jacobian::batch_to_affine(&[]).is_empty());
    assert!(Jacobian::batch_to_affine(&[Jacobian::infinity(); 5])
        .iter()
        .all(|p| p.is_infinity()));
}

#[test]
fn scalar_inversion_matches_fermat_reference() {
    for k in edge_scalars() {
        assert_eq!(k.invert(), k.invert_fermat(), "k = {k:?}");
        if let Some(inv) = k.invert() {
            assert_eq!(k.mul(&inv), Scalar::ONE);
        }
    }
    for k in sweep_scalars(b"scalar inv", 16) {
        assert_eq!(k.invert(), k.invert_fermat(), "k = {k:?}");
    }
}

#[test]
fn field_inversion_matches_fermat_reference() {
    let mut values = vec![Fe::ZERO, Fe::ONE, Fe::from_u64(2)];
    let mut state = sha256(b"field inv");
    for _ in 0..16 {
        // Clamp the top byte so the 32-byte string is always < p.
        let mut b = state;
        b[0] &= 0x7f;
        values.push(Fe::from_be_bytes(&b).expect("below p"));
        state = sha256(&state);
    }
    for v in values {
        assert_eq!(v.invert(), v.invert_fermat(), "v = {v:?}");
        if let Some(inv) = v.invert() {
            assert_eq!(v.mul(&inv), Fe::ONE);
        }
    }
}

#[test]
fn squaring_matches_general_multiplication() {
    let mut state = sha256(b"sqr");
    for _ in 0..32 {
        let v = U256::from_be_bytes(&state);
        assert_eq!(v.widening_sqr(), v.widening_mul(&v));
        state = sha256(&state);
    }
    assert_eq!([0u64; 8], U256::ZERO.widening_sqr());
    let max = U256 {
        limbs: [u64::MAX; 4],
    };
    assert_eq!(max.widening_sqr(), max.widening_mul(&max));
}

/// Both verifiers must agree — accept and reject alike — on valid
/// signatures, every single-component tamper, wrong digests, wrong keys,
/// and structurally odd (zero/high) component values.
#[test]
fn verify_decisions_match_reference() {
    let digests: Vec<[u8; 32]> = (0u64..4).map(|i| sha256(&i.to_le_bytes())).collect();
    for seed in 0..4u64 {
        let sk = PrivateKey::from_seed(seed);
        let pk = *sk.public_key().point();
        let prepared = sk.public_key().prepare();
        for z in &digests {
            let sig = sk.sign(z);
            let cases = [
                sig,
                Signature {
                    r: sig.r.add(&Scalar::ONE),
                    s: sig.s,
                },
                Signature {
                    r: sig.r,
                    s: sig.s.add(&Scalar::ONE),
                },
                Signature {
                    r: sig.r.neg(),
                    s: sig.s,
                },
                Signature {
                    r: sig.r,
                    s: sig.s.neg(), // high-S twin: same curve equation
                },
                Signature {
                    r: Scalar::ZERO,
                    s: sig.s,
                },
                Signature {
                    r: sig.r,
                    s: Scalar::ZERO,
                },
                Signature {
                    r: Scalar::ONE,
                    s: Scalar::ONE,
                },
            ];
            for (i, cand) in cases.iter().enumerate() {
                let fast = ecdsa::verify(z, cand, &pk);
                let reference = ecdsa::verify_reference(z, cand, &pk);
                // The fast path drops the redundant r/s zero pre-check; the
                // zero cases still agree because a zero component can never
                // satisfy the final x-equation.
                if cand.r.is_zero() || cand.s.is_zero() {
                    assert!(!fast, "zero component accepted (case {i})");
                    assert!(!reference, "zero component accepted by ref (case {i})");
                } else {
                    assert_eq!(fast, reference, "seed {seed}, case {i}");
                }
                assert_eq!(prepared.verify(z, cand), fast, "prepared disagrees");
            }
            // Cross-digest rejections agree too.
            for other in &digests {
                if other != z {
                    assert_eq!(
                        ecdsa::verify(other, &sig, &pk),
                        ecdsa::verify_reference(other, &sig, &pk)
                    );
                }
            }
        }
    }
}

/// The RFC 6979 known vector must round-trip through the fast path, the
/// reference path, and the compact encoding.
#[test]
fn known_vector_passes_both_paths() {
    let sk = PrivateKey::from_scalar(Scalar::ONE).unwrap();
    let z = sha256(b"Satoshi Nakamoto");
    let sig = sk.sign(&z);
    let pk = sk.public_key();
    assert!(ecdsa::verify(&z, &sig, pk.point()));
    assert!(ecdsa::verify_reference(&z, &sig, pk.point()));
    let parsed = Signature::from_compact(&sig.to_compact()).unwrap();
    assert!(pk.prepare().verify(&z, &parsed));
}

/// Public keys derived via the comb table must equal the reference ladder's,
/// and parse back identically from their compressed encoding.
#[test]
fn key_derivation_matches_reference_ladder() {
    for seed in 0..8u64 {
        let sk = PrivateKey::from_seed(seed);
        let fast = *sk.public_key().point();
        let reference = Affine::generator().mul(sk.scalar());
        assert_eq!(fast, reference, "seed {seed}");
        let encoded = sk.public_key().to_compressed();
        assert_eq!(
            PublicKey::from_compressed(&encoded).unwrap(),
            sk.public_key()
        );
    }
}
