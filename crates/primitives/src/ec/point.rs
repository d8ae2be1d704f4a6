//! secp256k1 group arithmetic: `y² = x³ + 7` over `F_p`.
//!
//! Points are manipulated in Jacobian coordinates (`X/Z²`, `Y/Z³`) so that
//! scalar multiplication needs a single field inversion at the end.
//!
//! Two tiers of scalar multiplication coexist:
//!
//! - The **reference ladder** — [`Jacobian::mul`], [`Jacobian::shamir_mul`]
//!   over plain double-and-add with the generic [`Jacobian::double`] /
//!   [`Jacobian::add_jacobian`] formulas. It is kept byte-for-byte stable as
//!   the differential-testing oracle.
//! - The **fast path** — [`Affine::mul_gen`] (fixed-base comb over a
//!   precomputed generator table) and [`multi_scalar_mul`] (one
//!   interleaved-wNAF Strauss ladder over the generator tables and each
//!   term's own [`PointTable`] or bare point, each at its own window
//!   width; [`lincomb_gen`] is its one-term case), built on the cheaper
//!   [`Jacobian::dbl`] / [`Jacobian::add_mixed`] formulas and
//!   [`Jacobian::batch_to_affine`] normalization.
//!
//! The fast path is still "honest work" in the paper's sense — Script
//! Validation cost drives the Fig. 16b/17b breakdowns — it just removes the
//! algorithmic slack a production validator would never carry.

use std::sync::OnceLock;

use super::field::{Fe, P};
use super::glv;
use super::scalar::{Scalar, N};
use crate::u256::U256;

/// Affine curve point, or the point at infinity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Affine {
    /// The identity element.
    Infinity,
    /// A finite point `(x, y)`.
    Point { x: Fe, y: Fe },
}

/// Jacobian-coordinate point; `z = 0` encodes infinity.
#[derive(Clone, Copy, Debug)]
pub struct Jacobian {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// Generator x-coordinate.
const GX: U256 = U256::from_be_limbs([
    0x79BE667EF9DCBBAC,
    0x55A06295CE870B07,
    0x029BFCDB2DCE28D9,
    0x59F2815B16F81798,
]);

/// Generator y-coordinate.
const GY: U256 = U256::from_be_limbs([
    0x483ADA7726A3C465,
    0x5DA4FBFC0E1108A8,
    0xFD17B448A6855419,
    0x9C47D08FFB10D4B8,
]);

impl Affine {
    /// The standard generator `G`.
    pub const G: Affine = Affine::Point {
        x: Fe(GX),
        y: Fe(GY),
    };

    /// The standard generator `G` (alias for [`Affine::G`]).
    pub fn generator() -> Affine {
        Affine::G
    }

    pub fn is_infinity(&self) -> bool {
        matches!(self, Affine::Infinity)
    }

    /// The affine coordinates, or `None` for infinity.
    pub fn coords(&self) -> Option<(Fe, Fe)> {
        match self {
            Affine::Infinity => None,
            Affine::Point { x, y } => Some((*x, *y)),
        }
    }

    /// Check the curve equation `y² = x³ + 7`.
    pub fn is_on_curve(&self) -> bool {
        match self {
            Affine::Infinity => true,
            Affine::Point { x, y } => {
                let lhs = y.square();
                let rhs = x.square().mul(x).add(&Fe::from_u64(7));
                lhs == rhs
            }
        }
    }

    /// Negate (reflect across the x-axis).
    pub fn neg(&self) -> Affine {
        match self {
            Affine::Infinity => Affine::Infinity,
            Affine::Point { x, y } => Affine::Point { x: *x, y: y.neg() },
        }
    }

    /// The curve endomorphism `φ(x, y) = (β·x, y)`, equal to scalar
    /// multiplication by `λ` (see [`glv`](super::glv)). One field
    /// multiplication instead of a point multiplication.
    pub(crate) fn endo(&self, beta: &Fe) -> Affine {
        match self {
            Affine::Infinity => Affine::Infinity,
            Affine::Point { x, y } => Affine::Point {
                x: x.mul(beta),
                y: *y,
            },
        }
    }

    /// Lift to Jacobian coordinates.
    pub fn to_jacobian(&self) -> Jacobian {
        match self {
            Affine::Infinity => Jacobian::infinity(),
            Affine::Point { x, y } => Jacobian {
                x: *x,
                y: *y,
                z: Fe::ONE,
            },
        }
    }

    /// Reconstruct the point with x-coordinate `x` and y-parity `odd`, if it
    /// lies on the curve (compressed-point decoding).
    pub fn lift_x(x: Fe, odd: bool) -> Option<Affine> {
        let y2 = x.square().mul(&x).add(&Fe::from_u64(7));
        let mut y = y2.sqrt()?;
        if y.is_odd() != odd {
            y = y.neg();
        }
        Some(Affine::Point { x, y })
    }

    /// `k * self` via Jacobian double-and-add.
    pub fn mul(&self, k: &Scalar) -> Affine {
        self.to_jacobian().mul(k).to_affine()
    }

    /// `k·G` via the fixed-base comb table: the scalar's 64 nibbles each
    /// select one precomputed `d·16^w·G`, so the whole multiplication is at
    /// most 63 mixed additions and no doublings. Used by signing and key
    /// derivation; verification goes through [`lincomb_gen`].
    pub fn mul_gen(k: &Scalar) -> Jacobian {
        let t = gen_tables();
        let mut acc = Jacobian::infinity();
        for (w, row) in t.comb.iter().enumerate() {
            let limb = k.0.limbs[w / 16];
            let d = ((limb >> ((w % 16) * 4)) & 0xf) as usize;
            if d != 0 {
                acc = acc.add_mixed(&row[d - 1]);
            }
        }
        acc
    }

    /// `a + b` in affine terms (used by verification: `u1·G + u2·Q`).
    pub fn add(&self, other: &Affine) -> Affine {
        self.to_jacobian()
            .add_jacobian(&other.to_jacobian())
            .to_affine()
    }
}

impl Jacobian {
    pub fn infinity() -> Jacobian {
        Jacobian {
            x: Fe::ONE,
            y: Fe::ONE,
            z: Fe::ZERO,
        }
    }

    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (curve has `a = 0`).
    pub fn double(&self) -> Jacobian {
        if self.is_infinity() || self.y.is_zero() {
            return Jacobian::infinity();
        }
        let y2 = self.y.square();
        let s = self.x.mul(&y2).mul(&Fe::from_u64(4));
        let m = self.x.square().mul(&Fe::from_u64(3));
        let x3 = m.square().sub(&s).sub(&s);
        let y4_8 = y2.square().mul(&Fe::from_u64(8));
        let y3 = m.mul(&s.sub(&x3)).sub(&y4_8);
        let z3 = self.y.mul(&self.z).mul(&Fe::from_u64(2));
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian addition.
    pub fn add_jacobian(&self, other: &Jacobian) -> Jacobian {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = other.x.mul(&z1z1);
        let s1 = self.y.mul(&z2z2).mul(&other.z);
        let s2 = other.y.mul(&z1z1).mul(&self.z);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Jacobian::infinity();
        }
        let h = u2.sub(&u1);
        let r = s2.sub(&s1);
        let h2 = h.square();
        let h3 = h2.mul(&h);
        let u1h2 = u1.mul(&h2);
        let x3 = r.square().sub(&h3).sub(&u1h2).sub(&u1h2);
        let y3 = r.mul(&u1h2.sub(&x3)).sub(&s1.mul(&h3));
        let z3 = h.mul(&self.z).mul(&other.z);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// `k * self`, MSB-first double-and-add.
    pub fn mul(&self, k: &Scalar) -> Jacobian {
        let mut acc = Jacobian::infinity();
        let bits = k.0.bits();
        for i in (0..bits).rev() {
            acc = acc.double();
            if k.0.bit(i) {
                acc = acc.add_jacobian(self);
            }
        }
        acc
    }

    /// Shamir's trick: `a·self + b·other` in a single double-and-add pass
    /// (ECDSA verification computes `u1·G + u2·Q`; the shared pass does
    /// one doubling ladder instead of two).
    pub fn shamir_mul(&self, a: &Scalar, other: &Jacobian, b: &Scalar) -> Jacobian {
        let sum = self.add_jacobian(other);
        let bits = a.0.bits().max(b.0.bits());
        let mut acc = Jacobian::infinity();
        for i in (0..bits).rev() {
            acc = acc.double();
            match (a.0.bit(i), b.0.bit(i)) {
                (true, true) => acc = acc.add_jacobian(&sum),
                (true, false) => acc = acc.add_jacobian(self),
                (false, true) => acc = acc.add_jacobian(other),
                (false, false) => {}
            }
        }
        acc
    }

    /// Project back to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> Affine {
        if self.is_infinity() {
            return Affine::Infinity;
        }
        let zinv = self.z.invert().expect("nonzero z");
        let zinv2 = zinv.square();
        let zinv3 = zinv2.mul(&zinv);
        Affine::Point {
            x: self.x.mul(&zinv2),
            y: self.y.mul(&zinv3),
        }
    }

    /// Fast-path doubling: `dbl-2009-l` (2M + 5S since `a = 0`), versus the
    /// 4M + 4S-plus-small-multiples shape of the reference
    /// [`Jacobian::double`].
    pub fn dbl(&self) -> Jacobian {
        if self.is_infinity() || self.y.is_zero() {
            return Jacobian::infinity();
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        // D = 2·((X1+B)² − A − C)
        let d = self.x.add(&b).square().sub(&a).sub(&c).dbl();
        let e = a.dbl().add(&a); // 3·A
        let f = e.square();
        let x3 = f.sub(&d).sub(&d);
        let c8 = c.dbl().dbl().dbl();
        let y3 = e.mul(&d.sub(&x3)).sub(&c8);
        let z3 = self.y.mul(&self.z).dbl();
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Fast-path mixed addition of an affine point: `madd-2007-bl`
    /// (7M + 4S), versus 12M + 4S for the general [`Jacobian::add_jacobian`].
    /// This is what makes precomputed *affine* tables pay off.
    pub fn add_mixed(&self, other: &Affine) -> Jacobian {
        let (x2, y2) = match other {
            Affine::Infinity => return *self,
            Affine::Point { x, y } => (x, y),
        };
        if self.is_infinity() {
            return other.to_jacobian();
        }
        let z1z1 = self.z.square();
        let u2 = x2.mul(&z1z1);
        let s2 = y2.mul(&self.z).mul(&z1z1);
        if u2 == self.x {
            if s2 == self.y {
                return self.dbl();
            }
            return Jacobian::infinity();
        }
        let h = u2.sub(&self.x);
        let hh = h.square();
        let i = hh.dbl().dbl(); // 4·HH
        let j = h.mul(&i);
        let r = s2.sub(&self.y).dbl();
        let v = self.x.mul(&i);
        let x3 = r.square().sub(&j).sub(&v).sub(&v);
        let y3 = r.mul(&v.sub(&x3)).sub(&self.y.mul(&j).dbl());
        let z3 = self.z.add(&h).square().sub(&z1z1).sub(&hh);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Normalize a batch of Jacobian points with **one** shared field
    /// inversion (Montgomery's simultaneous-inversion trick) instead of one
    /// per point. Infinities map to [`Affine::Infinity`] and are skipped in
    /// the product chain.
    pub fn batch_to_affine(points: &[Jacobian]) -> Vec<Affine> {
        // Forward pass: prefix[i] = product of z over non-infinite points
        // before index i.
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = Fe::ONE;
        for p in points {
            prefix.push(acc);
            if !p.is_infinity() {
                acc = acc.mul(&p.z);
            }
        }
        // acc is a product of nonzero field elements (or ONE), so invertible.
        let mut inv = acc.invert().expect("product of nonzero z is nonzero");
        // Backward pass: peel one z off the running inverse per point.
        let mut out = vec![Affine::Infinity; points.len()];
        for (i, p) in points.iter().enumerate().rev() {
            if p.is_infinity() {
                continue;
            }
            let zinv = inv.mul(&prefix[i]);
            inv = inv.mul(&p.z);
            let zinv2 = zinv.square();
            out[i] = Affine::Point {
                x: p.x.mul(&zinv2),
                y: p.y.mul(&zinv2.mul(&zinv)),
            };
        }
        out
    }

    /// Does this point's affine x-coordinate, reduced mod `n`, equal `r`?
    ///
    /// ECDSA verification ends with exactly this question, and answering it
    /// in projective form (`X == r̂·Z²` for each candidate lift `r̂` of `r`)
    /// removes the final field inversion of [`Jacobian::to_affine`].
    pub fn x_equals_scalar_mod_n(&self, r: &Scalar) -> bool {
        if self.is_infinity() {
            return false;
        }
        let z2 = self.z.square();
        if self.x == Fe(r.0).mul(&z2) {
            return true;
        }
        // x mod n == r also holds if x = r + n (possible since n < p); any
        // higher lift r + 2n exceeds p.
        let (rn, carry) = r.0.overflowing_add(&N);
        !carry && rn < P && self.x == Fe(rn).mul(&z2)
    }
}

/// Comb-table geometry for [`Affine::mul_gen`]: the 256-bit scalar is read
/// as 64 nibbles, and window `w` stores `d·16^w·G` for `d = 1..=15`, so a
/// full fixed-base multiplication is at most 63 mixed additions and **zero**
/// doublings.
const COMB_WINDOWS: usize = 64;
const COMB_TEETH: usize = 15;

/// wNAF window width of the static generator tables: 64 odd multiples
/// each of `G` and `λ·G` (9.2 KB, built once per process), which hold the
/// generator's two GLV streams to ~29 mixed additions per ladder. The
/// same trade-off sets [`PREPARED_KEY_W`].
const GEN_WNAF_W: u32 = 8;

/// Precomputed generator tables, built once per process.
struct GenTables {
    /// `comb[w][d-1] = d·16^w·G`.
    comb: Vec<[Affine; COMB_TEETH]>,
    /// Odd multiples `(2i+1)·G` for the wNAF pass, with the odd multiples
    /// of `λ·G` stored for the GLV halves.
    wnaf: PointTable,
}

static GEN_TABLES: OnceLock<GenTables> = OnceLock::new();

/// Build both generator tables with the reference arithmetic (the tables are
/// an input to the fast path, so they must not depend on it) and normalize
/// everything with a single shared inversion.
fn gen_tables() -> &'static GenTables {
    GEN_TABLES.get_or_init(|| {
        let gen_entries = 1 << (GEN_WNAF_W - 2);
        let g = Affine::G.to_jacobian();
        let mut jac = Vec::with_capacity(COMB_WINDOWS * COMB_TEETH + gen_entries);
        let mut base = g;
        for _ in 0..COMB_WINDOWS {
            let mut acc = base;
            for _ in 0..COMB_TEETH {
                jac.push(acc);
                acc = acc.add_jacobian(&base);
            }
            base = acc; // acc has walked to 16·base: the next window's base
        }
        let two_g = g.double();
        let mut odd = g;
        jac.push(odd);
        for _ in 1..gen_entries {
            odd = odd.add_jacobian(&two_g);
            jac.push(odd);
        }
        let affine = Jacobian::batch_to_affine(&jac);
        let mut comb = Vec::with_capacity(COMB_WINDOWS);
        for w in 0..COMB_WINDOWS {
            let mut row = [Affine::Infinity; COMB_TEETH];
            row.copy_from_slice(&affine[w * COMB_TEETH..(w + 1) * COMB_TEETH]);
            comb.push(row);
        }
        let entries: Box<[Affine]> = affine[COMB_WINDOWS * COMB_TEETH..].into();
        GenTables {
            comb,
            wnaf: PointTable::from_entries(entries),
        }
    })
}

/// Table width for a key used once ([`PointTable::new`], the table of
/// [`super::ecdsa::verify`]). Such a table must pay for its own build:
/// `2^(w-2) − 1` full additions (~1.5 mixed additions each; the `φ`-table's
/// one field multiply per entry is noise beside them) against
/// ~`2·130/(w+1)` mixed additions on the two GLV-split streams it serves.
/// That totals ~56 mixed additions at `w = 4`, ~54 at 5 and ~60 at 6, so 5
/// is cheapest for a single use.
pub const ONE_SHOT_W: u32 = 5;

/// Table width for a prepared key ([`PointTable::prepared`]), the table a
/// node caches per signer key. Once the build is amortized over many uses
/// only the ladder cost `2·130/(w+1)` per use counts: ~43 mixed additions
/// at 5, ~29 at 8, ~26 at 9. Each step past 8 saves under 3 additions per
/// use while doubling the table (9.2 KB at 8 for `Q` and `φ(Q)`, 18.4 KB at
/// 9), and a node caches thousands of keys, so 8 — the generator's width —
/// stops where the returns do.
pub const PREPARED_KEY_W: u32 = 8;

/// Stream width of an [`MsmBase::Point`] term. A width-2 NAF has digits
/// `±1` only, so the point itself is its whole table and the term costs no
/// build at all. The batch verifier's nonce terms carry 64-bit
/// coefficients: a width-`w` table would save `64/3 − 64/(w+1)` mixed
/// additions (5.3 at 3, 8.5 at 4) but cost a doubling, `2^(w-2) − 1`
/// additions and a share of a batch inversion to build, which cancels the
/// saving; width 2 does the same work with no table code.
const BARE_POINT_W: u32 = 2;

/// Precomputed odd multiples `1·Q, 3·Q, …, (2^(w-1) − 1)·Q` of a point,
/// normalized to affine with one shared inversion, together with their
/// images under the endomorphism `φ` (the odd multiples of `λ·Q`), which
/// serve the second half of a GLV-split scalar. The number of entries
/// (`2^(w-2)`) fixes the table's wNAF width `w`.
#[derive(Clone, Debug)]
pub struct PointTable {
    /// `entries[i] = (2i+1)·Q`; all infinity iff `Q` is infinity.
    entries: Box<[Affine]>,
    /// `lambda[i] = φ(entries[i])`.
    lambda: Box<[Affine]>,
}

impl PointTable {
    /// A width-[`ONE_SHOT_W`] table: the one-shot table of
    /// [`super::ecdsa::verify`].
    pub fn new(q: &Affine) -> PointTable {
        PointTable::from_entries(odd_multiples(q, ONE_SHOT_W))
    }

    /// A width-[`PREPARED_KEY_W`] table: the table of a prepared key, built
    /// once and reused for every signature under it.
    pub fn prepared(q: &Affine) -> PointTable {
        PointTable::from_entries(odd_multiples(q, PREPARED_KEY_W))
    }

    fn from_entries(entries: Box<[Affine]>) -> PointTable {
        let beta = &glv::params().beta;
        let lambda = entries.iter().map(|e| e.endo(beta)).collect();
        PointTable { entries, lambda }
    }

    /// The wNAF window width this table serves.
    pub(crate) fn width(&self) -> u32 {
        self.entries.len().trailing_zeros() + 2
    }
}

/// `(2i+1)·Q` for `i < 2^(w-2)`: one doubling and exactly `2^(w-2) − 1`
/// additions (none at all for width 2, whose table is `Q` itself), then
/// one shared inversion. `Q` is already affine, so it is not normalized.
fn odd_multiples(q: &Affine, w: u32) -> Box<[Affine]> {
    let count = 1usize << (w - 2);
    if q.is_infinity() {
        return vec![Affine::Infinity; count].into();
    }
    let mut jac = Vec::with_capacity(count - 1);
    if count > 1 {
        let two_q = q.to_jacobian().dbl();
        let mut acc = q.to_jacobian();
        for _ in 1..count {
            acc = acc.add_jacobian(&two_q);
            jac.push(acc);
        }
    }
    let mut entries = Vec::with_capacity(count);
    entries.push(*q);
    entries.extend(Jacobian::batch_to_affine(&jac));
    entries.into()
}

/// `u1·G + u2·Q`: the one-term case of [`multi_scalar_mul`], and the ECDSA
/// verification ladder. This replaces [`Jacobian::shamir_mul`] on the
/// verification hot path.
pub fn lincomb_gen(u1: &Scalar, q_table: &PointTable, u2: &Scalar) -> Jacobian {
    multi_scalar_mul(
        u1,
        &[MsmTerm {
            scalar: *u2,
            base: MsmBase::Table(q_table),
            negate: false,
        }],
    )
}

/// The point side of one [`MsmTerm`].
#[derive(Clone, Copy, Debug)]
pub enum MsmBase<'a> {
    /// A bare affine point, read as one unsplit width-2 stream
    /// (`BARE_POINT_W`): no table to build. Meant for short scalars; a
    /// full-width one is still correct, at ~85 mixed additions.
    Point(Affine),
    /// A [`PointTable`]: the scalar is GLV-split into two streams at the
    /// table's width, the second reading the stored `φ`-table.
    Table(&'a PointTable),
}

/// One variable-point term of [`multi_scalar_mul`]: contributes
/// `±scalar·Q` where `Q` is the point `base` stands for (`negate` selects
/// the sign without touching any table).
#[derive(Clone, Copy, Debug)]
pub struct MsmTerm<'a> {
    pub scalar: Scalar,
    pub base: MsmBase<'a>,
    pub negate: bool,
}

/// One signed-digit stream of the shared ladder: `digits` index the odd
/// multiples in `entries`, negated when `neg` is set.
struct Stream<'t> {
    digits: Vec<i32>,
    entries: &'t [Affine],
    neg: bool,
}

impl<'t> Stream<'t> {
    fn new(scalar: &Scalar, width: u32, entries: &'t [Affine], neg: bool) -> Stream<'t> {
        debug_assert_eq!(
            entries.len(),
            1 << (width - 2),
            "table does not match width"
        );
        Stream {
            digits: scalar.wnaf(width),
            entries,
            neg,
        }
    }

    /// The table entry for digit `d` (odd, `|d| < 2^(w-1)`), with the
    /// stream's sign applied.
    fn get(&self, d: i32) -> Affine {
        let e = self.entries[(d.unsigned_abs() as usize - 1) / 2];
        if (d < 0) != self.neg {
            e.neg()
        } else {
            e
        }
    }
}

/// The two GLV half-scalar streams of `±k·Q` over `Q`'s table: the low
/// half over the entries, the high half over the stored `φ`-table.
fn split_streams<'t>(table: &'t PointTable, k: &Scalar, negate: bool) -> [Stream<'t>; 2] {
    let (lo, hi) = glv::params().split(k);
    let w = table.width();
    [
        Stream::new(&lo.mag, w, &table.entries, lo.neg ^ negate),
        Stream::new(&hi.mag, w, &table.lambda, hi.neg ^ negate),
    ]
}

/// `gen_scalar·G + Σᵢ ±scalarᵢ·Qᵢ` as one shared interleaved-wNAF Strauss
/// ladder — the engine under ECDSA verification ([`lincomb_gen`]) and
/// batch verification (`ec::batch`).
///
/// The generator and every [`MsmBase::Table`] term take the GLV split:
/// two streams at the table's width, over its entries and its stored
/// `φ`-table (the generator's are the static width-8 `G`/`λG` tables). A
/// [`MsmBase::Point`] term rides one unsplit width-2 stream. All streams
/// share one doubling ladder, so doublings — the dominant cost — are paid
/// once for the whole sum instead of once per term.
pub fn multi_scalar_mul(gen_scalar: &Scalar, terms: &[MsmTerm<'_>]) -> Jacobian {
    let mut streams: Vec<Stream<'_>> = Vec::with_capacity(2 + 2 * terms.len());
    streams.extend(split_streams(&gen_tables().wnaf, gen_scalar, false));
    for term in terms {
        match &term.base {
            MsmBase::Table(table) => {
                streams.extend(split_streams(table, &term.scalar, term.negate));
            }
            MsmBase::Point(p) => streams.push(Stream::new(
                &term.scalar,
                BARE_POINT_W,
                std::slice::from_ref(p),
                term.negate,
            )),
        }
    }

    // Longest streams first: at digit position `i` only the prefix of
    // streams longer than `i` can add, so the short nonce streams cost
    // nothing in the top half of the ladder.
    streams.sort_unstable_by_key(|s| std::cmp::Reverse(s.digits.len()));
    let len = streams.first().map_or(0, |s| s.digits.len());
    let mut acc = Jacobian::infinity();
    for i in (0..len).rev() {
        acc = acc.dbl();
        for stream in streams.iter().take_while(|s| s.digits.len() > i) {
            let d = stream.digits[i];
            if d != 0 {
                acc = acc.add_mixed(&stream.get(d));
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn scalar(v: u64) -> Scalar {
        Scalar::from_u64(v)
    }

    fn x_hex(p: &Affine) -> String {
        hex::encode(&p.coords().unwrap().0.to_be_bytes())
    }

    fn y_hex(p: &Affine) -> String {
        hex::encode(&p.coords().unwrap().1.to_be_bytes())
    }

    #[test]
    fn generator_on_curve() {
        assert!(Affine::generator().is_on_curve());
    }

    #[test]
    fn two_g_known_value() {
        let p2 = Affine::generator().mul(&scalar(2));
        assert_eq!(
            x_hex(&p2),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"
        );
        assert_eq!(
            y_hex(&p2),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a"
        );
    }

    #[test]
    fn three_g_known_value() {
        let p3 = Affine::generator().mul(&scalar(3));
        assert_eq!(
            x_hex(&p3),
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9"
        );
        assert_eq!(
            y_hex(&p3),
            "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672"
        );
    }

    #[test]
    fn add_matches_mul() {
        let g = Affine::generator();
        let sum = g.add(&g.add(&g)); // G + 2G via nested adds
        assert_eq!(sum, g.mul(&scalar(3)));
    }

    #[test]
    fn doubling_matches_addition() {
        let g = Affine::generator().to_jacobian();
        let d = g.double().to_affine();
        let a = g.add_jacobian(&g).to_affine(); // triggers the u1==u2 branch
        assert_eq!(d, a);
        assert_eq!(d, Affine::generator().mul(&scalar(2)));
    }

    #[test]
    fn point_plus_negation_is_infinity() {
        let p = Affine::generator().mul(&scalar(7));
        assert!(p.add(&p.neg()).is_infinity());
    }

    #[test]
    fn infinity_is_identity() {
        let p = Affine::generator().mul(&scalar(5));
        assert_eq!(p.add(&Affine::Infinity), p);
        assert_eq!(Affine::Infinity.add(&p), p);
        assert!(Affine::Infinity.is_on_curve());
    }

    #[test]
    fn n_times_g_is_infinity() {
        use super::super::scalar::N;
        use crate::u256::U256;
        // (n-1)·G + G = n·G = O
        let n_minus_1 = Scalar(N.overflowing_sub(&U256::ONE).0);
        let p = Affine::generator().mul(&n_minus_1);
        assert!(p.add(&Affine::generator()).is_infinity());
        // and (n-1)·G == -G
        assert_eq!(p, Affine::generator().neg());
    }

    #[test]
    fn shamir_matches_separate_muls() {
        let g = Affine::generator().to_jacobian();
        let q = g.mul(&scalar(77));
        for (a, b) in [(1u64, 1u64), (2, 3), (0, 9), (9, 0), (12345, 67890)] {
            let (a, b) = (scalar(a), scalar(b));
            let expected = g.mul(&a).add_jacobian(&q.mul(&b)).to_affine();
            let got = g.shamir_mul(&a, &q, &b).to_affine();
            assert_eq!(got, expected);
        }
        // Degenerate: both zero.
        assert!(g.shamir_mul(&Scalar::ZERO, &q, &Scalar::ZERO).is_infinity());
    }

    #[test]
    fn mul_distributes_over_add() {
        let g = Affine::generator();
        let a = g.mul(&scalar(11));
        let b = g.mul(&scalar(31));
        assert_eq!(a.add(&b), g.mul(&scalar(42)));
    }

    #[test]
    fn mul_by_zero_and_one() {
        let g = Affine::generator();
        assert!(g.mul(&Scalar::ZERO).is_infinity());
        assert_eq!(g.mul(&Scalar::ONE), g);
    }

    #[test]
    fn lift_x_round_trip() {
        let p = Affine::generator().mul(&scalar(9));
        let (x, y) = p.coords().unwrap();
        let lifted = Affine::lift_x(x, y.is_odd()).unwrap();
        assert_eq!(lifted, p);
        let flipped = Affine::lift_x(x, !y.is_odd()).unwrap();
        assert_eq!(flipped, p.neg());
    }

    #[test]
    fn lift_x_rejects_off_curve() {
        // x = 5: 5³+7 = 132 — check via the API rather than asserting QR-ness
        // by hand; if it lifts it must be on the curve.
        for v in 1u64..20 {
            if let Some(p) = Affine::lift_x(Fe::from_u64(v), false) {
                assert!(p.is_on_curve());
            }
        }
    }

    #[test]
    fn fast_dbl_matches_reference_double() {
        let mut p = Affine::G.to_jacobian();
        for _ in 0..16 {
            assert_eq!(p.dbl().to_affine(), p.double().to_affine());
            p = p.add_jacobian(&p.mul(&scalar(3)));
        }
        assert!(Jacobian::infinity().dbl().is_infinity());
        // y = 0 never occurs on secp256k1, but negation pairs exercise the
        // cancellation path via add_mixed below.
    }

    #[test]
    fn add_mixed_matches_reference_add() {
        let g = Affine::G.to_jacobian();
        for (a, b) in [(1u64, 2u64), (5, 9), (7, 7), (100, 1)] {
            let p = g.mul(&scalar(a));
            let q = g.mul(&scalar(b)).to_affine();
            let expected = p.add_jacobian(&q.to_jacobian()).to_affine();
            assert_eq!(p.add_mixed(&q).to_affine(), expected, "({a}, {b})");
        }
        // Identity cases.
        let q = g.mul(&scalar(11)).to_affine();
        assert_eq!(Jacobian::infinity().add_mixed(&q).to_affine(), q);
        assert_eq!(g.add_mixed(&Affine::Infinity).to_affine(), Affine::G);
        // Doubling and cancellation branches (u2 == x1).
        let p = g.mul(&scalar(21));
        let pa = p.to_affine();
        assert_eq!(p.add_mixed(&pa).to_affine(), p.double().to_affine());
        assert!(p.add_mixed(&pa.neg()).is_infinity());
    }

    #[test]
    fn batch_to_affine_matches_individual() {
        let g = Affine::G.to_jacobian();
        let mut pts = vec![Jacobian::infinity()];
        for v in [1u64, 2, 3, 999, 0xffff_ffff] {
            pts.push(g.mul(&scalar(v)));
        }
        pts.push(Jacobian::infinity());
        let batch = Jacobian::batch_to_affine(&pts);
        assert_eq!(batch.len(), pts.len());
        for (b, p) in batch.iter().zip(&pts) {
            assert_eq!(*b, p.to_affine());
        }
        assert!(Jacobian::batch_to_affine(&[]).is_empty());
        let all_inf = Jacobian::batch_to_affine(&[Jacobian::infinity(); 3]);
        assert!(all_inf.iter().all(|p| p.is_infinity()));
    }

    #[test]
    fn mul_gen_matches_reference_ladder() {
        use super::super::scalar::N;
        use crate::u256::U256;
        let n_minus_1 = Scalar(N.overflowing_sub(&U256::ONE).0);
        for k in [scalar(1), scalar(2), scalar(0xdead_beef), n_minus_1] {
            assert_eq!(Affine::mul_gen(&k).to_affine(), Affine::G.mul(&k));
        }
        assert!(Affine::mul_gen(&Scalar::ZERO).is_infinity());
    }

    #[test]
    fn lincomb_gen_matches_shamir() {
        let g = Affine::G.to_jacobian();
        let q = g.mul(&scalar(77));
        let qa = q.to_affine();
        let table = PointTable::new(&qa);
        for (a, b) in [(1u64, 1u64), (2, 3), (0, 9), (9, 0), (12345, 67890)] {
            let (a, b) = (scalar(a), scalar(b));
            let expected = g.shamir_mul(&a, &q, &b).to_affine();
            assert_eq!(lincomb_gen(&a, &table, &b).to_affine(), expected);
        }
        assert!(lincomb_gen(&Scalar::ZERO, &table, &Scalar::ZERO).is_infinity());
    }

    #[test]
    fn tables_hold_odd_multiples_at_every_width() {
        let q = Affine::G.mul(&scalar(0x5eed));
        for w in 2..=8u32 {
            let entries = odd_multiples(&q, w);
            assert_eq!(entries.len(), 1 << (w - 2));
            for (i, e) in entries.iter().enumerate() {
                assert_eq!(*e, q.mul(&scalar(2 * i as u64 + 1)), "w = {w}, i = {i}");
            }
        }
        let lambda_q = q.endo(&glv::params().beta);
        for (table, w) in [
            (PointTable::new(&q), ONE_SHOT_W),
            (PointTable::prepared(&q), PREPARED_KEY_W),
        ] {
            assert_eq!(table.width(), w);
            assert_eq!(table.lambda.len(), table.entries.len());
            for (i, e) in table.lambda.iter().enumerate() {
                assert_eq!(
                    *e,
                    lambda_q.mul(&scalar(2 * i as u64 + 1)),
                    "w = {w}, i = {i}"
                );
            }
        }
        assert_eq!(gen_tables().wnaf.width(), GEN_WNAF_W);
    }

    #[test]
    fn multi_scalar_mul_matches_reference_sum() {
        use super::super::scalar::N;
        use crate::u256::U256;
        let g = Affine::G.to_jacobian();
        let n_minus_1 = Scalar(N.overflowing_sub(&U256::ONE).0);
        let points: Vec<Affine> = [3u64, 77, 1_000_003]
            .iter()
            .map(|&v| g.mul(&scalar(v)).to_affine())
            .collect();
        let tables: Vec<PointTable> = points.iter().map(PointTable::new).collect();
        // Mix short and full-width scalars, plus negated terms, and check
        // against the reference ladder sum.
        let cases: Vec<(Scalar, Vec<(Scalar, bool)>)> = vec![
            (scalar(5), vec![(scalar(7), false)]),
            (Scalar::ZERO, vec![(n_minus_1, false), (scalar(123), true)]),
            (
                n_minus_1,
                vec![
                    (scalar(1), true),
                    (Scalar::from_be_bytes_reduced(&[0xab; 32]), false),
                    (Scalar::ZERO, false),
                ],
            ),
        ];
        for (gen_k, term_ks) in cases {
            let terms: Vec<MsmTerm<'_>> = term_ks
                .iter()
                .zip(&tables)
                .map(|(&(scalar, negate), table)| MsmTerm {
                    scalar,
                    base: MsmBase::Table(table),
                    negate,
                })
                .collect();
            let mut expected = g.mul(&gen_k);
            for ((k, negate), p) in term_ks.iter().zip(&points) {
                let mut part = p.to_jacobian().mul(k).to_affine();
                if *negate {
                    part = part.neg();
                }
                expected = expected.add_jacobian(&part.to_jacobian());
            }
            assert_eq!(
                multi_scalar_mul(&gen_k, &terms).to_affine(),
                expected.to_affine()
            );
        }
        // Degenerate: no terms, zero generator scalar.
        assert!(multi_scalar_mul(&Scalar::ZERO, &[]).is_infinity());
    }

    #[test]
    fn multi_scalar_mul_cancels_to_infinity() {
        // k·G − k·G via a negated term must land exactly on infinity — the
        // batch verifier's accept condition.
        let k = Scalar::from_be_bytes_reduced(&[0x5a; 32]);
        let p = Affine::mul_gen(&k).to_affine();
        let table = PointTable::new(&p);
        let terms = [MsmTerm {
            scalar: Scalar::ONE,
            base: MsmBase::Table(&table),
            negate: true,
        }];
        assert!(multi_scalar_mul(&k, &terms).is_infinity());
    }

    #[test]
    fn point_table_of_infinity_is_infinity() {
        let table = PointTable::new(&Affine::Infinity);
        assert!(table.entries.iter().all(|p| p.is_infinity()));
    }

    #[test]
    fn x_equals_scalar_without_inversion() {
        let g = Affine::G.to_jacobian();
        for v in [1u64, 7, 12345] {
            let p = g.mul(&scalar(v));
            let (x, _) = p.to_affine().coords().unwrap();
            let r = Scalar::from_be_bytes_reduced(&x.to_be_bytes());
            assert!(p.x_equals_scalar_mod_n(&r), "v = {v}");
            assert!(!p.x_equals_scalar_mod_n(&r.add(&Scalar::ONE)));
        }
        assert!(!Jacobian::infinity().x_equals_scalar_mod_n(&Scalar::ONE));
    }
}
