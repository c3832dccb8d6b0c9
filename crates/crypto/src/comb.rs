//! Fixed-base exponentiation: a Lim–Lee comb over a [`MontgomeryCtx`].
//!
//! A base that outlives many exponentiations — the group generator, a
//! trust anchor's public key — is worth a table. The 256-bit exponent is
//! laid out as 8 rows of 32 bits; bit `t` of every row forms one 8-bit
//! *column*, and the table holds the product of `base^(2^(32·i))` over
//! every subset of rows `i`. One lookup therefore consumes a whole
//! column, and walking the 32 columns from the top costs 31 squarings and
//! 32 multiplies — where a windowed ladder pays 252 squarings and some 60
//! multiplies for the same exponent, after building a 16-entry table.
//!
//! `SUBTABLES` trades memory for the remaining squarings: each row is cut
//! into that many blocks, block `j` gets its own 256-entry sub-table
//! (pre-shifted by `j` block widths), and the blocks are walked in
//! parallel, so the squaring chain shrinks to one block width while the
//! multiply count stays at 32.
//!
//! | `SUBTABLES` | table | squarings | multiplies |
//! |---|---|---|---|
//! | 1 | 8 KiB | 31 | 32 |
//! | 4 | 32 KiB | 7 | 32 |
//!
//! Like the rest of the crate this is not constant-time: the table index
//! is the exponent's column.
//!
//! The tables are immutable once built and shared behind an [`Arc`]
//! together with their Montgomery context, so a comb is one pointer and
//! a clone — a verifier handing its key to another thread — bumps a
//! reference count instead of copying kilobytes.

use crate::bigint::U256;
use crate::montgomery::MontgomeryCtx;
use std::sync::Arc;

/// Rows the exponent is cut into; a table index has one bit per row.
const ROWS: usize = 8;
/// Bits per row: `256 / ROWS`.
const ROW_BITS: usize = 256 / ROWS;
/// Entries per sub-table: one per subset of rows.
const ENTRIES: usize = 1 << ROWS;

/// A precomputed table for raising one fixed base to any 256-bit
/// exponent. See the module docs for the layout and the cost.
#[derive(Clone)]
pub struct Comb<const SUBTABLES: usize> {
    shared: Arc<Shared<SUBTABLES>>,
}

/// What every clone of a [`Comb`] shares: the context the entries are
/// in, and the entries.
struct Shared<const SUBTABLES: usize> {
    ctx: MontgomeryCtx,
    /// `tables[j][u]` is the product over the rows `i` set in `u` of
    /// `base^(2^(ROW_BITS·i + BLOCK·j))`, in Montgomery form.
    tables: [[U256; ENTRIES]; SUBTABLES],
}

impl<const SUBTABLES: usize> Comb<SUBTABLES> {
    /// Columns per block: the length of the squaring chain.
    const BLOCK: usize = {
        assert!(ROW_BITS.is_multiple_of(SUBTABLES));
        ROW_BITS / SUBTABLES
    };

    /// Builds the table for `base` (ordinary form, reduced or not) under
    /// `ctx`: 256 squarings plus 247 multiplies per sub-table, paid once.
    pub fn new(ctx: &MontgomeryCtx, base: &U256) -> Self {
        let mut shared = Box::new(Shared {
            ctx: ctx.clone(),
            tables: [[ctx.one_mont(); ENTRIES]; SUBTABLES],
        });
        let tables = &mut shared.tables;
        // `power` walks base^(2^t); bit t is column `t % ROW_BITS` of row
        // `t / ROW_BITS`, and a column that opens a block seeds the
        // single-row entry of that block's sub-table.
        let mut power = ctx.to_mont(base);
        for t in 0..ROWS * ROW_BITS {
            let (row, column) = (t / ROW_BITS, t % ROW_BITS);
            if column % Self::BLOCK == 0 {
                tables[column / Self::BLOCK][1 << row] = power;
            }
            power = ctx.mont_sqr(&power);
        }
        // Every other entry is a smaller subset times its lowest row.
        for table in tables.iter_mut() {
            for u in 1..ENTRIES {
                let low = u & u.wrapping_neg();
                if u != low {
                    table[u] = ctx.mont_mul(&table[u ^ low], &table[low]);
                }
            }
        }
        Comb {
            shared: Arc::from(shared),
        }
    }

    /// Computes `base^exp` modulo the context's modulus.
    pub fn pow(&self, exp: &U256) -> U256 {
        self.shared.ctx.from_mont(&self.pow_mont(exp))
    }

    /// [`Self::pow`], but the result stays in Montgomery form, for
    /// callers that multiply it into other Montgomery-domain factors
    /// before converting out once.
    pub fn pow_mont(&self, exp: &U256) -> U256 {
        let Shared { ctx, tables } = &*self.shared;
        let mut acc = ctx.one_mont();
        for k in (0..Self::BLOCK).rev() {
            if k + 1 != Self::BLOCK {
                acc = ctx.mont_sqr(&acc);
            }
            for (j, table) in tables.iter().enumerate() {
                // Exponent-indexed lookup: a documented simulation
                // tradeoff, as in `MontgomeryCtx::pow_mont`.
                let entry = &table[column(exp, j * Self::BLOCK + k)];
                acc = ctx.mont_mul(&acc, entry);
            }
        }
        acc
    }
}

/// Gathers bit `t` of each of the [`ROWS`] rows of `exp` into a table
/// index (row `i` at bit `i`). A limb holds two rows.
#[inline]
fn column(exp: &U256, t: usize) -> usize {
    let mut index = 0;
    for (i, limb) in exp.limbs().iter().enumerate() {
        index |= ((limb >> t) & 1) << (2 * i);
        index |= ((limb >> (t + ROW_BITS)) & 1) << (2 * i + 1);
    }
    index as usize
}
