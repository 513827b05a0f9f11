//! The Λ threshold tables (paper Section IV-B).
//!
//! Two rows containing `i` and `j` ones share, under the null,
//! `X(i,j) ~ Hypergeometric(N, i, j)` common ones. To make the group graph
//! Erdős–Rényi with a *uniform* per-row-pair exceedance probability p\*,
//! the threshold must depend on the weights: `λᵢⱼ` is the smallest `t`
//! with `P[X(i,j) > t] ≤ p*`.
//!
//! Λ depends only on `(N, p*)`, never on traffic, so one table serves
//! every epoch of a deployment. It is a dense triangle indexed by
//! `(lo, hi) = (min(i, j), max(i, j))` whose entries are filled on first
//! use and then read with a single atomic load: no lock on the pair
//! test's hot path.
//!
//! Tables up to `EAGER_ENTRIES` entries — row widths up to 2,046 bits,
//! the paper's 1,024 included (2.1 MB) — allocate every weight row when
//! they are created; wider tables allocate each row on first touch, so
//! they only materialise the weight band real digests reach. Why not
//! lazily at paper width too: a table kept across epochs that allocates
//! rows as new weights show up in later epochs makes peak RSS depend on
//! where those late long-lived blocks land in the heap — 138.5, 153.9
//! and 154.2 MiB on seeds 1, 3 and 4 of the aligned epoch benchmark
//! (45-s runs), against 139.8–140.0 MiB with every row allocated at
//! creation.

use dcs_stats::hypergeom_tail_quantile;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Tables with at most this many entries (8 MiB) allocate all their
/// weight rows at creation; wider ones allocate rows on first touch.
const EAGER_ENTRIES: usize = 1 << 21;

/// Lazily-filled, lock-free λ table for a fixed row width and p\*.
///
/// Entry `(lo, hi)` lives at `rows[lo][hi − lo]` and stores `λ + 1`, with
/// `0` meaning "not computed yet". A miss computes the quantile with
/// [`hypergeom_tail_quantile`] and publishes it by compare-and-swap from
/// `0`; threads racing on one entry compute the same value, so whichever
/// store lands the table reads the same λ, and only the winning store
/// counts as a computed quantile.
#[derive(Debug)]
pub struct LambdaTable {
    n_bits: u64,
    p_star: f64,
    rows: Box<[OnceLock<Box<[AtomicU32]>>]>,
    /// Quantiles computed since the last [`LambdaTable::take_computed`].
    computed: AtomicU64,
}

impl LambdaTable {
    /// Creates a table for rows of `n_bits` bits at exceedance level
    /// `p_star`, with every weight row allocated if the whole triangle
    /// fits in 2²¹ entries (row widths up to 2,046 bits).
    ///
    /// # Panics
    /// Panics unless `0 < p_star < 1` and `0 < n_bits < u32::MAX`.
    pub fn new(n_bits: usize, p_star: f64) -> Self {
        assert!(n_bits > 0, "rows must be non-empty");
        assert!(
            n_bits < u32::MAX as usize,
            "row width {n_bits} too large for a λ table"
        );
        assert!(p_star > 0.0 && p_star < 1.0, "p* must be in (0,1)");
        let table = LambdaTable {
            n_bits: n_bits as u64,
            p_star,
            rows: (0..=n_bits).map(|_| OnceLock::new()).collect(),
            computed: AtomicU64::new(0),
        };
        if (n_bits + 1).saturating_mul(n_bits + 2) / 2 <= EAGER_ENTRIES {
            for lo in 0..=n_bits {
                table.row(lo);
            }
        }
        table
    }

    /// The entries `(lo, lo ..= n_bits)`, allocated on first touch.
    #[inline]
    fn row(&self, lo: usize) -> &[AtomicU32] {
        self.rows[lo].get_or_init(|| {
            (lo..=self.n_bits as usize)
                .map(|_| AtomicU32::new(0))
                .collect()
        })
    }

    /// Row width in bits.
    pub fn n_bits(&self) -> usize {
        self.n_bits as usize
    }

    /// The per-row-pair exceedance probability p\*.
    pub fn p_star(&self) -> f64 {
        self.p_star
    }

    /// λ for a row pair with weights `i` and `j` (symmetric).
    ///
    /// # Panics
    /// Panics if a weight exceeds the row width.
    #[inline]
    pub fn lambda(&self, i: u32, j: u32) -> u32 {
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        assert!(
            u64::from(hi) <= self.n_bits,
            "weight {hi} exceeds the row width {}",
            self.n_bits
        );
        let slot = &self.row(lo as usize)[(hi - lo) as usize];
        // Relaxed throughout: an entry is self-contained and publishes no
        // other data.
        match slot.load(Ordering::Relaxed) {
            0 => self.fill(slot, lo, hi),
            v => v - 1,
        }
    }

    /// Computes a missing entry and publishes it (cold path).
    #[cold]
    fn fill(&self, slot: &AtomicU32, lo: u32, hi: u32) -> u32 {
        let v =
            hypergeom_tail_quantile(self.p_star, self.n_bits, u64::from(lo), u64::from(hi)) as u32;
        if slot
            .compare_exchange(0, v + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.computed.fetch_add(1, Ordering::Relaxed);
        }
        v
    }

    /// Number of filled entries (for tests / diagnostics; walks the
    /// allocated rows).
    pub fn memo_len(&self) -> usize {
        self.rows
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|row| row.iter())
            .filter(|v| v.load(Ordering::Relaxed) != 0)
            .count()
    }

    /// Quantiles computed (table misses) since the previous call, and
    /// resets the tally. Each entry is counted once over the table's
    /// lifetime, so summing the takes of every epoch gives the exact
    /// number of quantiles the table ever computed.
    pub fn take_computed(&self) -> u64 {
        self.computed.swap(0, Ordering::Relaxed)
    }
}

/// Derives the per-row-pair level p\* that yields a target group-edge
/// probability `p1` when each group pair compares `pairs` row pairs:
/// `p1 = 1 − (1 − p*)^pairs  ⇒  p* = 1 − (1 − p1)^(1/pairs)`.
///
/// # Panics
/// Panics unless `0 < p1 < 1` and `pairs > 0`.
pub fn p_star_for_edge_prob(p1: f64, pairs: usize) -> f64 {
    assert!(p1 > 0.0 && p1 < 1.0, "p1 must be in (0,1)");
    assert!(pairs > 0, "need at least one row pair");
    1.0 - (1.0 - p1).powf(1.0 / pairs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_stats::hypergeom_sf;

    #[test]
    fn lambda_is_tight_quantile() {
        let t = LambdaTable::new(1024, 1e-5);
        let lam = t.lambda(512, 512);
        assert!(hypergeom_sf(i64::from(lam), 1024, 512, 512) <= 1e-5);
        assert!(hypergeom_sf(i64::from(lam) - 1, 1024, 512, 512) > 1e-5);
    }

    #[test]
    fn lambda_symmetric_and_memoised() {
        let t = LambdaTable::new(1024, 1e-4);
        let a = t.lambda(400, 600);
        let b = t.lambda(600, 400);
        assert_eq!(a, b);
        assert_eq!(t.memo_len(), 1, "symmetric pair shares one memo entry");
    }

    /// Every entry of a filled table equals the unchanged quantile
    /// function, read in either weight order, and the table computed
    /// each entry exactly once.
    fn assert_exact(n_bits: usize, p_star: f64, band: std::ops::RangeInclusive<u32>) {
        let t = LambdaTable::new(n_bits, p_star);
        let n = n_bits as u64;
        let mut entries = 0u64;
        for i in band.clone() {
            for j in i..=*band.end() {
                let want = hypergeom_tail_quantile(p_star, n, u64::from(i), u64::from(j)) as u32;
                assert_eq!(t.lambda(i, j), want, "λ({i},{j}) at n_bits {n_bits}");
                assert_eq!(
                    t.lambda(j, i),
                    want,
                    "λ({j},{i}) asymmetric at n_bits {n_bits}"
                );
                entries += 1;
            }
        }
        assert_eq!(t.take_computed(), entries, "each entry computed once");
        assert_eq!(t.take_computed(), 0, "the tally resets on take");
        assert_eq!(t.memo_len() as u64, entries);
        for i in band.clone() {
            for j in band.clone() {
                t.lambda(i, j);
            }
        }
        assert_eq!(t.take_computed(), 0, "a warm table computes nothing");
    }

    #[test]
    fn every_entry_is_the_exact_quantile_small_widths() {
        assert_exact(64, 0.01, 0..=64);
        assert_exact(256, 1e-4, 0..=256);
    }

    #[test]
    fn every_entry_is_the_exact_quantile_paper_band() {
        // The weight band real 1,024-bit rows occupy on the packet
        // workload (254–915).
        assert_exact(1024, 1e-5, 254..=915);
    }

    #[test]
    fn wide_tables_allocate_rows_on_first_touch() {
        // 5,001 weight rows exceed the eager budget: only the rows looked
        // up are allocated, and each key keeps its own entry.
        let (n_bits, p_star) = (5000usize, 1e-3);
        let t = LambdaTable::new(n_bits, p_star);
        assert_eq!(t.rows.iter().filter(|r| r.get().is_some()).count(), 0);
        let keys = [
            (0u32, 0u32),
            (0, 5000),
            (1, 1),
            (2499, 2500),
            (2500, 2500),
            (4999, 5000),
            (5000, 5000),
        ];
        for &(lo, hi) in &keys {
            let want = hypergeom_tail_quantile(p_star, n_bits as u64, lo.into(), hi.into());
            assert_eq!(u64::from(t.lambda(hi, lo)), want, "λ({lo},{hi})");
        }
        assert_eq!(
            t.take_computed(),
            keys.len() as u64,
            "two keys shared an entry"
        );
        assert_eq!(t.rows.iter().filter(|r| r.get().is_some()).count(), 6);
        assert!(LambdaTable::new(1024, p_star)
            .rows
            .iter()
            .all(|r| r.get().is_some()));
    }

    #[test]
    fn racing_fills_agree_and_count_once() {
        let (n_bits, p_star) = (256usize, 1e-4);
        let oracle = LambdaTable::new(n_bits, p_star);
        for threads in 2..=4usize {
            let t = LambdaTable::new(n_bits, p_star);
            let start = std::sync::Barrier::new(threads);
            let seen: Vec<Vec<u32>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|w| {
                        let (t, start) = (&t, &start);
                        s.spawn(move || {
                            start.wait();
                            // Same rows for every thread, in rotated
                            // order and both argument orders, so threads
                            // collide on rows and entries.
                            let mut out = vec![0u32; 257 * 257];
                            for step in 0..257u32 {
                                let i = (step + 61 * w as u32) % 257;
                                for j in 0..257u32 {
                                    let v = if (i + j).is_multiple_of(2) {
                                        t.lambda(i, j)
                                    } else {
                                        t.lambda(j, i)
                                    };
                                    out[i as usize * 257 + j as usize] = v;
                                }
                            }
                            out
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (w, out) in seen.iter().enumerate() {
                for (idx, &v) in out.iter().enumerate() {
                    let (i, j) = ((idx / 257) as u32, (idx % 257) as u32);
                    assert_eq!(v, oracle.lambda(i, j), "thread {w}/{threads}: λ({i},{j})");
                }
            }
            let entries = 257 * 258 / 2;
            assert_eq!(t.memo_len(), entries);
            assert_eq!(
                t.take_computed(),
                entries as u64,
                "racing threads double-counted an entry ({threads} threads)"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the row width")]
    fn overweight_row_rejected() {
        LambdaTable::new(64, 0.01).lambda(3, 65);
    }

    #[test]
    fn lambda_monotone_in_weights() {
        let t = LambdaTable::new(1024, 1e-5);
        // Heavier rows share more ones by chance, so λ must grow.
        let l1 = t.lambda(300, 300);
        let l2 = t.lambda(500, 500);
        let l3 = t.lambda(700, 700);
        assert!(l1 < l2 && l2 < l3);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Soundness pin for the prescreen's weight-class prune: λ must
        /// be monotone non-decreasing in *each* weight separately
        /// (hypergeometric stochastic dominance), off the diagonal too —
        /// the class prune lower-bounds λ(wa, wb) by λ(lo_a, lo_b) and
        /// is conservative only if this holds everywhere.
        #[test]
        fn lambda_monotone_off_diagonal(i in 0u32..=256, j in 0u32..=256, di in 0u32..=16) {
            let t = LambdaTable::new(256, 1e-4);
            proptest::prop_assert!(
                t.lambda(i.min(256 - di) + di, j) >= t.lambda(i.min(256 - di), j),
                "λ decreased when raising one weight ({i},{j})+{di}"
            );
        }
    }

    #[test]
    fn uniformity_across_weight_pairs() {
        // The whole point of Λ: exceedance stays ≈ p* (never above; can be
        // below because the distribution is discrete).
        let p_star = 1e-4;
        let t = LambdaTable::new(1024, p_star);
        for &(i, j) in &[(300u32, 700u32), (450, 512), (512, 512), (600, 650)] {
            let lam = t.lambda(i, j);
            let sf = hypergeom_sf(i64::from(lam), 1024, u64::from(i), u64::from(j));
            assert!(sf <= p_star, "({i},{j}): sf {sf} above p*");
            assert!(
                sf >= p_star / 50.0,
                "({i},{j}): sf {sf} needlessly far below p* (too coarse?)"
            );
        }
    }

    #[test]
    fn degenerate_weights() {
        let t = LambdaTable::new(64, 0.01);
        assert_eq!(t.lambda(0, 30), 0);
        // Full row: shares exactly j ones; λ = j (sf beyond support = 0).
        let lam = t.lambda(64, 30);
        assert_eq!(lam, 30);
    }

    #[test]
    fn p_star_inversion() {
        let p1 = 0.65e-5;
        let p_star = p_star_for_edge_prob(p1, 100);
        let back = 1.0 - (1.0 - p_star).powi(100);
        assert!((back - p1).abs() < 1e-12);
        // For tiny p1, p* ≈ p1/100.
        assert!((p_star - p1 / 100.0).abs() < p1 * 1e-3);
    }

    #[test]
    #[should_panic(expected = "p* must be in")]
    fn invalid_p_star_rejected() {
        LambdaTable::new(10, 0.0);
    }
}
