//! Greedy product search: the naive (Figure 5) and refined (Figure 6)
//! detection algorithms.
//!
//! Both search for a set of columns whose bitwise-AND ("k-product") stays
//! heavy. The naive algorithm works on the whole matrix; the refined one
//! first screens the `n′` heaviest columns (heavier columns are likelier
//! to be pattern columns, Theorem 2), finds a *core* there, and then uses
//! the core's row vector to sweep every remaining column at O(n) cost.
//!
//! Implementation notes:
//! * products are extended only by columns *after* their largest member
//!   (canonical combinatorial order), which enumerates every column set at
//!   most once — the paper's `w ∉ A_v` rule plus duplicate suppression;
//! * the per-iteration "hopefuls" list keeps the H heaviest candidates,
//!   as the paper's priority queue of size O(n) does, in an exact
//!   weight-bucketed keeper (the private `keeper` module): a product weight never
//!   exceeds the router count, so one bucket per weight replaces the
//!   binary heap with the same set, order and eviction bar;
//! * every scan — the 2-product pair scan, the per-hopeful extensions
//!   and the expansion sweep — is one batched AND-popcount kernel call
//!   over a contiguous column range ([`ColMatrix::and_weights_into`]),
//!   and only candidates at or above the keeper's bar are offered;
//! * the candidate fan-outs (all 2-products, per-hopeful extensions, the
//!   heaviest-column screen, and the full-matrix expansion sweep) are cut
//!   into independent column shards ([`ComputeBudget::effective_shards`])
//!   executed by scoped worker threads per [`SearchConfig::compute`].
//!   Candidates are ranked by the *full* `(weight, parent, column)`
//!   tuple — a total order — so each shard's keeper merged into a
//!   global keeper yields exactly the canonical top-H set. The search
//!   result is therefore bit-identical for every thread count *and*
//!   every shard count (see the determinism tests).

use crate::keeper::{Candidate, CandidateKeeper, TopKeeper};
use crate::termination::{stop_point, TerminationConfig};
use crate::thresholds::ln_natural_occurrence;
use dcs_bitmap::words::{iter_ones, weight};
use dcs_bitmap::ColMatrix;
use dcs_parallel::{map_chunks, run_jobs, split_range, ComputeBudget};
use std::ops::Range;
use std::time::Instant;

/// Reusable buffers for repeated refined detections (one per epoch).
///
/// Holds everything [`refined_detect_cached`] needs between the fused
/// matrix and the detection report: the column ranking, the screened
/// working matrix, and the per-worker fan-out buffers of the product
/// search. All of it is allocated on the first epoch and reused —
/// steady-state detection performs no per-epoch screening allocations
/// beyond what the candidate products themselves need.
#[derive(Debug)]
pub struct SearchScratch {
    /// Column indices ranked by descending weight (truncated to n′).
    order: Vec<usize>,
    /// The screening histogram: per-weight column counts, then output
    /// slots.
    weight_slots: Vec<usize>,
    /// The screened working matrix (the n′ heaviest columns).
    work: ColMatrix,
    /// Per-shard fan-out buffers of the product search.
    fanouts: Vec<Vec<u32>>,
}

impl Default for SearchScratch {
    fn default() -> Self {
        SearchScratch {
            order: Vec::new(),
            weight_slots: Vec::new(),
            work: ColMatrix::new(0, 0),
            fanouts: Vec::new(),
        }
    }
}

impl SearchScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// Capacities of the internal buffers (column order, screening
    /// histogram, screened matrix words, summed fan-out slots) —
    /// diagnostic hook for steady-state reuse tests: across epochs of
    /// equal shape these must not grow.
    pub fn capacities(&self) -> [usize; 4] {
        [
            self.order.capacity(),
            self.weight_slots.capacity(),
            self.work.word_capacity(),
            self.fanouts.iter().map(Vec::capacity).sum(),
        ]
    }
}

/// Wall-clock nanoseconds of the stages behind
/// [`refined_detect_cached`], one field per pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchTimings {
    /// Ranking the columns and materialising the n′ heaviest (screening).
    pub screen_ns: u64,
    /// Greedy product search plus the termination-procedure read
    /// (core-finding).
    pub core_ns: u64,
    /// Expansion sweep of the core row vector across all columns.
    pub expand_ns: u64,
    /// Natural-occurrence verdict and report assembly.
    pub verdict_ns: u64,
}

impl SearchTimings {
    /// Everything after screening — the historical "sweep" aggregate
    /// (core search + expansion + verdict).
    pub fn sweep_ns(&self) -> u64 {
        self.core_ns + self.expand_ns + self.verdict_ns
    }
}

/// Work accounting of one product search: how many candidate products
/// were actually AND-popcounted, how many the conservative weight-bound
/// break discarded without computing, and how many of the computed ones
/// came from a sketch-seeded outer column.
///
/// These are *effort* numbers, not detection inputs: the pruned
/// candidates are exactly those that provably cannot enter the bounded
/// candidate keeper (their weight upper bound sits strictly below the
/// full keeper's bar), so the detection set never depends on them —
/// or on the seed-first scan order that makes the bar rise early. The
/// counters do depend on shard/worker partitioning and scan order, so
/// they are excluded from cross-thread metric determinism checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchWork {
    /// Candidate products AND-popcounted.
    pub pairs_scanned: u64,
    /// Candidates discarded by the conservative weight-bound break.
    pub pairs_pruned: u64,
    /// Scanned candidates whose outer column was a sketch seed.
    pub seeded_pairs: u64,
}

impl SearchWork {
    /// Accumulates another shard's counters.
    pub fn absorb(&mut self, other: SearchWork) {
        self.pairs_scanned += other.pairs_scanned;
        self.pairs_pruned += other.pairs_pruned;
        self.seeded_pairs += other.seeded_pairs;
    }

    /// Total candidates considered (scanned + pruned) — invariant
    /// across seed sets for an identical search, since seeding only
    /// reorders the scan.
    pub fn candidates(&self) -> u64 {
        self.pairs_scanned + self.pairs_pruned
    }
}

/// Tuning parameters of the greedy search.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SearchConfig {
    /// Size of the per-iteration hopefuls list (the paper's O(n)).
    pub hopefuls: usize,
    /// Upper bound on product order (the paper's `num_iterations`,
    /// ≈ b + c).
    pub max_iterations: usize,
    /// Screening budget n′ for the refined algorithm.
    pub n_prime: usize,
    /// Core-expansion slack γ: columns within γ of the core weight join
    /// the witness set (paper: "setting γ to 2 or 3 will work very well").
    pub gamma: u32,
    /// Non-natural level ε for the final verdict.
    pub epsilon: f64,
    /// Weight-curve reader configuration.
    pub termination: TerminationConfig,
    /// Threads and kernel blocking for the parallel sections.
    pub compute: ComputeBudget,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            hopefuls: 1_000,
            max_iterations: 40,
            n_prime: 4_000,
            gamma: 2,
            epsilon: 1e-3,
            termination: TerminationConfig::default(),
            compute: ComputeBudget::default(),
        }
    }
}

/// Result of an aligned-case detection run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignedDetection {
    /// Whether a non-naturally-occurring pattern was found.
    pub found: bool,
    /// Routers (row indices) of the detected pattern — the 1-bits of the
    /// final core product.
    pub rows: Vec<u32>,
    /// Columns of the full witness set (original matrix indices).
    pub cols: Vec<usize>,
    /// Columns of the core alone (original matrix indices).
    pub core_cols: Vec<usize>,
    /// Heaviest-product weight after each iteration (the Figure-7 curve);
    /// `weight_curve[k]` is the best (k+2)-product weight.
    pub weight_curve: Vec<u32>,
    /// Index into `weight_curve` where the termination procedure stopped.
    pub stopped_at: Option<usize>,
}

impl AlignedDetection {
    fn not_found(weight_curve: Vec<u32>) -> Self {
        AlignedDetection {
            found: false,
            rows: Vec::new(),
            cols: Vec::new(),
            core_cols: Vec::new(),
            weight_curve,
            stopped_at: None,
        }
    }
}

/// A k-product under construction.
#[derive(Debug, Clone)]
struct Product {
    words: Vec<u64>,
    weight: u32,
    /// Member columns, ascending (indices into the *working* matrix).
    members: Vec<u32>,
}

/// Columns per batched kernel call of the expansion sweep, in words of
/// column data: 32 KiB, so a batch and its weights stay L1/L2-resident.
const SWEEP_BATCH_WORDS: usize = 4096;

/// AND-popcounts `base` against the contiguous `work` columns `range`
/// in one batched kernel call ([`ColMatrix::and_weights_into`]) and
/// offers the candidates that reach the keeper's current bar as
/// `(weight, parent, column)`. `fanout` is the caller's reusable buffer.
fn scan_batch<K: CandidateKeeper>(
    work: &ColMatrix,
    base: &[u64],
    range: Range<usize>,
    parent: u32,
    keeper: &mut K,
    fanout: &mut Vec<u32>,
) {
    if fanout.len() < range.len() {
        fanout.resize(range.len(), 0);
    }
    let weights = &mut fanout[..range.len()];
    work.and_weights_into(base, range.clone(), weights);
    // Most candidates sit below the bar once the keeper is full: test a
    // block's maximum (one branch-free reduction) before looking inside.
    for (block, chunk) in weights.chunks(FILTER_BLOCK).enumerate() {
        if chunk.iter().fold(0, |m, &w| m.max(w)) < keeper.bar() {
            continue;
        }
        let first = range.start + block * FILTER_BLOCK;
        for (j, &w) in (first..).zip(chunk) {
            if w >= keeper.bar() {
                keeper.offer((w, parent, j as u32));
            }
        }
    }
}

/// Candidates per bar test of [`scan_batch`]'s filter.
const FILTER_BLOCK: usize = 32;

/// Merges per-shard keepers into the canonical global top-H, full tuple
/// descending.
fn merge_keepers<K: CandidateKeeper>(keepers: Vec<K>) -> Vec<Candidate> {
    let mut iter = keepers.into_iter();
    let Some(mut acc) = iter.next() else {
        return Vec::new();
    };
    for keeper in iter {
        acc.absorb(keeper);
    }
    acc.into_desc()
}

/// Runs the greedy core search on `work` (a column subset of the original
/// matrix). Returns the best product per iteration. `fanouts` provides
/// per-shard fan-out buffers, reused across iterations and calls.
///
/// `seeded` (empty = no seeding) flags the work-matrix columns the
/// heavy-hitter sketch nominated; each shard scans its seeded outer
/// columns first. Seeding is **advisory**: the keepers retain a
/// canonical top-H for any offer order, so the only effect is that the
/// eviction bar rises early and the conservative weight-bound break — a
/// candidate whose `min(w_outer, max w_remaining)` upper bound sits
/// strictly below a full keeper's bar can never enter and is skipped
/// unscanned — fires sooner. `work_stats` accumulates the
/// scanned/pruned/seeded candidate counts.
fn product_search<K: CandidateKeeper>(
    work: &ColMatrix,
    cfg: &SearchConfig,
    fanouts: &mut Vec<Vec<u32>>,
    seeded: &[bool],
    work_stats: &mut SearchWork,
) -> (Vec<u32>, Vec<Product>) {
    let n = work.ncols();
    let mut curve = Vec::new();
    let mut best_per_iter: Vec<Product> = Vec::new();
    if n < 2 {
        return (curve, best_per_iter);
    }
    // A product weight never exceeds the row count: the keepers' bucket
    // range.
    let max_weight = work.nrows() as u32;
    // Per-column weight upper bounds for the conservative break: a
    // product with column j weighs at most w[j], and any candidate
    // drawn from columns ≥ j weighs at most suffix_max[j]. (On the
    // refined path the columns arrive weight-sorted so suffix_max[j]
    // == w[j]; the naive path is unsorted and needs the real suffix.)
    let w: Vec<u32> = (0..n).map(|j| weight(work.column(j))).collect();
    let mut suffix_max = w.clone();
    for j in (0..n - 1).rev() {
        suffix_max[j] = suffix_max[j].max(suffix_max[j + 1]);
    }

    // Iteration 1: all 2-products, keep the H heaviest. Shard s owns the
    // outer indices congruent to s modulo the shard count (the pair loop
    // is triangular, striding balances the shards) and fills a private
    // keeper; merging them reproduces the canonical global top-H
    // because candidates are totally ordered — for any shard count and
    // any worker count. Outer column i is scanned against its whole
    // surviving tail i+1..end in one batched kernel call.
    let shards = search_shards(&cfg.compute, n);
    fanouts.resize_with(shards.max(fanouts.len()), Vec::new);
    let mut keepers: Vec<K> = (0..shards)
        .map(|_| K::new(cfg.hopefuls, max_weight))
        .collect();
    let mut shard_stats: Vec<SearchWork> = vec![SearchWork::default(); shards];
    type ScanJob<'a, K> = (((usize, &'a mut K), &'a mut SearchWork), &'a mut Vec<u32>);
    let jobs: Vec<ScanJob<K>> = keepers
        .iter_mut()
        .enumerate()
        .zip(shard_stats.iter_mut())
        .zip(fanouts.iter_mut())
        .collect();
    run_jobs(
        jobs,
        cfg.compute.workers_for(shards),
        |(((s, keeper), stats), fanout)| {
            let mut own: Vec<usize> = (s..n).step_by(shards).collect();
            if !seeded.is_empty() {
                // Stable partition: seeded outer columns first (false < true).
                own.sort_by_key(|&i| !seeded[i]);
            }
            for i in own {
                let start = i + 1;
                if start >= n {
                    continue;
                }
                let bar = keeper.bar();
                if w[i] < bar {
                    stats.pairs_pruned += (n - start) as u64;
                    continue;
                }
                let end = start + suffix_max[start..].partition_point(|&sm| sm >= bar);
                stats.pairs_pruned += (n - end) as u64;
                scan_batch(work, work.column(i), start..end, i as u32, keeper, fanout);
                let scanned = (end - start) as u64;
                stats.pairs_scanned += scanned;
                if !seeded.is_empty() && seeded[i] {
                    stats.seeded_pairs += scanned;
                }
            }
        },
    );
    for s in shard_stats {
        work_stats.absorb(s);
    }
    // Heaviest first: the merged set comes out full tuple descending.
    let mut hopefuls: Vec<Product> = merge_keepers(keepers)
        .into_iter()
        .map(|(w, i, j)| {
            let mut words = work.column(i as usize).to_vec();
            dcs_bitmap::words::and_assign(&mut words, work.column(j as usize));
            Product {
                words,
                weight: w,
                members: vec![i, j],
            }
        })
        .collect();
    record_best(&hopefuls, &mut curve, &mut best_per_iter);

    // Iterations 2..: extend each hopeful with columns after its max
    // member. Shards stride the hopefuls list; each shard scans one
    // hopeful against all its candidate columns in one batched kernel
    // call, reusing its persistent fan-out buffer across iterations and
    // epochs.
    for _ in 1..cfg.max_iterations {
        if hopefuls.is_empty() || curve.last() == Some(&0) {
            break;
        }
        let shards = search_shards(&cfg.compute, hopefuls.len());
        fanouts.resize_with(shards.max(fanouts.len()), Vec::new);
        let hopefuls_ref = &hopefuls;
        let suffix_ref = &suffix_max;
        let mut keepers: Vec<K> = (0..shards)
            .map(|_| K::new(cfg.hopefuls, max_weight))
            .collect();
        let mut shard_stats: Vec<SearchWork> = vec![SearchWork::default(); shards];
        let jobs: Vec<ScanJob<K>> = keepers
            .iter_mut()
            .enumerate()
            .zip(shard_stats.iter_mut())
            .zip(fanouts.iter_mut())
            .collect();
        run_jobs(
            jobs,
            cfg.compute.workers_for(shards),
            |(((s, keeper), stats), fanout)| {
                for pi in (s..hopefuls_ref.len()).step_by(shards) {
                    let p = &hopefuls_ref[pi];
                    let start = p.members.last().copied().unwrap_or(0) as usize + 1;
                    if start >= n {
                        continue;
                    }
                    // An extension of p weighs at most min(p.weight,
                    // w[j]) — skip what cannot enter the full keeper.
                    let bar = keeper.bar();
                    if p.weight < bar {
                        stats.pairs_pruned += (n - start) as u64;
                        continue;
                    }
                    let end = start + suffix_ref[start..].partition_point(|&sm| sm >= bar);
                    stats.pairs_pruned += (n - end) as u64;
                    scan_batch(work, &p.words, start..end, pi as u32, keeper, fanout);
                    stats.pairs_scanned += (end - start) as u64;
                }
            },
        );
        for s in shard_stats {
            work_stats.absorb(s);
        }
        let next = merge_keepers(keepers);
        if next.is_empty() {
            break;
        }
        hopefuls = next
            .into_iter()
            .map(|(w, pi, j)| {
                let parent = &hopefuls[pi as usize];
                let mut words = parent.words.clone();
                dcs_bitmap::words::and_assign(&mut words, work.column(j as usize));
                let mut members = parent.members.clone();
                members.push(j);
                Product {
                    words,
                    weight: w,
                    members,
                }
            })
            .collect();
        record_best(&hopefuls, &mut curve, &mut best_per_iter);

        // Early exit: once the curve shows a plateau followed by a dive we
        // already have everything the termination procedure needs.
        if let Some(stop) = stop_point(&curve, cfg.termination) {
            if curve.len() - stop > 3 {
                break;
            }
        }
    }
    (curve, best_per_iter)
}

/// Shard count for a product-search fan-out of `items` work units.
///
/// A sharded plan only pays off when more than one worker executes it:
/// each per-shard keeper sees a fraction of the candidates, so its
/// eviction bar sits below the single global keeper's and it accepts
/// more entries. Run sequentially that is strictly extra work for the
/// same canonical result — so with one worker the plan collapses to one
/// shard. Legal because the merged top-H is shard-count-invariant (see
/// the determinism tests): shards only ever change where time is spent,
/// never what is detected.
fn search_shards(budget: &ComputeBudget, items: usize) -> usize {
    let shards = budget.effective_shards().min(items).max(1);
    if budget.workers_for(shards) == 1 {
        1
    } else {
        shards
    }
}

fn record_best(hopefuls: &[Product], curve: &mut Vec<u32>, best: &mut Vec<Product>) {
    let b = hopefuls.first().expect("hopefuls non-empty");
    curve.push(b.weight);
    best.push(b.clone());
}

/// Iterated multi-pattern detection (the Section II-D layering for the
/// aligned case): run the refined search, remove the witness columns of
/// each found pattern, and repeat on the remaining columns until nothing
/// non-natural is left or `max_patterns` are found.
///
/// Distinct contents occupy distinct column sets (two different payload
/// streams hash to different indices with overwhelming probability), so
/// column removal cleanly peels one content at a time — including weaker
/// patterns initially shadowed by a dominant one.
pub fn refined_detect_multi(
    matrix: &ColMatrix,
    cfg: &SearchConfig,
    max_patterns: usize,
) -> Vec<AlignedDetection> {
    let mut remaining: Vec<usize> = (0..matrix.ncols()).collect();
    let mut found = Vec::new();
    for _ in 0..max_patterns {
        if remaining.len() < 2 {
            break;
        }
        let work = matrix.select_columns(&remaining);
        let mut det = refined_detect(&work, cfg);
        if !det.found {
            break;
        }
        // Map work-matrix column ids back to the original matrix.
        det.cols = det.cols.iter().map(|&c| remaining[c]).collect();
        det.core_cols = det.core_cols.iter().map(|&c| remaining[c]).collect();
        let taken: std::collections::HashSet<usize> = det.cols.iter().copied().collect();
        remaining.retain(|c| !taken.contains(c));
        found.push(det);
    }
    found
}

/// The naive algorithm (Figure 5): product search over the whole matrix,
/// no screening, no expansion sweep.
pub fn naive_detect(matrix: &ColMatrix, cfg: &SearchConfig) -> AlignedDetection {
    let identity: Vec<usize> = (0..matrix.ncols()).collect();
    detect_inner::<TopKeeper>(
        matrix,
        matrix,
        &identity,
        cfg,
        false,
        &mut Vec::new(),
        &[],
        &mut SearchWork::default(),
    )
    .0
}

/// The refined algorithm (Figure 6): screen the n′ heaviest columns, find
/// a core there, then sweep all columns with the core row vector.
pub fn refined_detect(matrix: &ColMatrix, cfg: &SearchConfig) -> AlignedDetection {
    let n = matrix.ncols();
    // The weight pass is a full-matrix popcount, split over contiguous
    // column chunks. (The streaming ingest path skips it entirely: the
    // fusion transpose hands [`refined_detect_cached`] the weights it
    // accumulated while scattering.)
    let weights: Vec<u32> = map_chunks(n, cfg.compute.workers_for(n), |range| {
        range
            .map(|j| weight(matrix.column(j)))
            .collect::<Vec<u32>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let mut scratch = SearchScratch::new();
    refined_detect_cached(matrix, &weights, cfg, &mut scratch).0
}

/// [`refined_detect`] with the column weights precomputed (by the fusion
/// transpose) and every screening buffer drawn from `scratch` — the
/// steady-state epoch path. Returns the detection and per-stage timings.
///
/// Screening selects the n′ heaviest columns by the total order
/// `(weight desc, index asc)` with an O(n) counting sort (see
/// `screen_heaviest`).
///
/// # Panics
/// Panics if `weights.len() != matrix.ncols()`.
pub fn refined_detect_cached(
    matrix: &ColMatrix,
    weights: &[u32],
    cfg: &SearchConfig,
    scratch: &mut SearchScratch,
) -> (AlignedDetection, SearchTimings) {
    let (det, timings, _) = refined_detect_seeded(matrix, weights, cfg, &[], scratch);
    (det, timings)
}

/// [`refined_detect_cached`] with an advisory heavy-hitter seed set:
/// `seeds` are *original-matrix* column indices (the sketch's top-k
/// candidates; out-of-range or screened-out entries are ignored). Seeded
/// columns are scanned first inside each product-search shard so the
/// keeper's eviction bar rises early and the conservative
/// weight-bound break prunes more of the pair scan.
///
/// Seeding is provably lossless: screening membership, the work-matrix
/// order, and the retained top-H candidate set (a canonical function of
/// the candidate multiset under the full-tuple total order) are all
/// unchanged, so the detection is byte-identical to the unseeded run —
/// see `seeding_never_changes_detection` in the tests. Only the returned
/// [`SearchWork`] differs.
///
/// # Panics
/// Panics if `weights.len() != matrix.ncols()`.
pub fn refined_detect_seeded(
    matrix: &ColMatrix,
    weights: &[u32],
    cfg: &SearchConfig,
    seeds: &[usize],
    scratch: &mut SearchScratch,
) -> (AlignedDetection, SearchTimings, SearchWork) {
    refined_search::<TopKeeper>(matrix, weights, cfg, seeds, scratch)
}

/// Writes the `n_prime` heaviest columns under `(weight desc, index
/// asc)` to `order`, in that order.
///
/// Column weights never exceed the router count, so this is a counting
/// sort: one pass builds the weight histogram in `slots`; walking it from
/// the heaviest weight down turns each count into that weight's first
/// output slot and finds the cut weight where n′ slots fill; a second
/// pass drops each column of weight ≥ cut into its weight's next slot in
/// index order. Columns at the cut weight beyond n′ find their slots
/// taken and are left out — the highest indices, as the total order
/// requires.
fn screen_heaviest(
    weights: &[u32],
    n_prime: usize,
    slots: &mut Vec<usize>,
    order: &mut Vec<usize>,
) {
    slots.clear();
    for &w in weights {
        let w = w as usize;
        if w >= slots.len() {
            slots.resize(w + 1, 0);
        }
        slots[w] += 1;
    }
    let mut filled = 0;
    let mut cut = slots.len();
    for w in (0..slots.len()).rev() {
        if filled >= n_prime {
            break;
        }
        let count = slots[w];
        slots[w] = filled;
        filled += count;
        cut = w;
    }
    order.clear();
    order.resize(n_prime, 0);
    for (j, &w) in weights.iter().enumerate() {
        let w = w as usize;
        if w >= cut && slots[w] < n_prime {
            order[slots[w]] = j;
            slots[w] += 1;
        }
    }
}

/// [`refined_detect_seeded`] with the candidate keeper as a parameter
/// (the tests run the binary-heap oracle through it).
fn refined_search<K: CandidateKeeper>(
    matrix: &ColMatrix,
    weights: &[u32],
    cfg: &SearchConfig,
    seeds: &[usize],
    scratch: &mut SearchScratch,
) -> (AlignedDetection, SearchTimings, SearchWork) {
    let n = matrix.ncols();
    assert_eq!(weights.len(), n, "one weight per column");
    let n_prime = cfg.n_prime.min(n);
    let t0 = Instant::now();
    let SearchScratch {
        order,
        weight_slots,
        work,
        fanouts,
    } = scratch;
    screen_heaviest(weights, n_prime, weight_slots, order);
    matrix.select_columns_into(order, work);
    let seeded: Vec<bool> = if seeds.is_empty() {
        Vec::new()
    } else {
        let set: std::collections::HashSet<usize> = seeds.iter().copied().collect();
        order.iter().map(|j| set.contains(j)).collect()
    };
    let screen_ns = t0.elapsed().as_nanos() as u64;
    let mut work_stats = SearchWork::default();
    let (det, mut timings) = detect_inner::<K>(
        matrix,
        work,
        order,
        cfg,
        true,
        fanouts,
        &seeded,
        &mut work_stats,
    );
    timings.screen_ns = screen_ns;
    (det, timings, work_stats)
}

/// Shared tail: search `work` (whose column `k` is original column
/// `mapping[k]`), read the curve, optionally expand across `matrix`.
/// Returns the detection plus per-stage timings (`screen_ns` left zero —
/// screening happens in the caller).
#[allow(clippy::too_many_arguments)]
fn detect_inner<K: CandidateKeeper>(
    matrix: &ColMatrix,
    work: &ColMatrix,
    mapping: &[usize],
    cfg: &SearchConfig,
    expand: bool,
    fanouts: &mut Vec<Vec<u32>>,
    seeded: &[bool],
    work_stats: &mut SearchWork,
) -> (AlignedDetection, SearchTimings) {
    let mut timings = SearchTimings::default();
    let t_core = Instant::now();
    let (curve, best) = product_search::<K>(work, cfg, fanouts, seeded, work_stats);
    let stopped = stop_point(&curve, cfg.termination);
    timings.core_ns = t_core.elapsed().as_nanos() as u64;
    let Some(stop) = stopped else {
        return (AlignedDetection::not_found(curve), timings);
    };
    let core = &best[stop];
    let core_cols: Vec<usize> = core.members.iter().map(|&k| mapping[k as usize]).collect();

    // Witness set: the core plus (refined only) every other column sharing
    // ≥ weight(core) − γ ones with the core row vector. This is the O(n)
    // full-matrix sweep: each column shard scans its contiguous range in
    // batched kernel calls of `SWEEP_BATCH_WORDS` words of columns, so
    // the core row vector and the batch weights stay cache-hot. Survivor
    // sets from disjoint ranges are sorted after the merge, so the
    // witness set is shard-count-invariant.
    let mut cols = core_cols.clone();
    if expand {
        let t_expand = Instant::now();
        let thresh = core.weight.saturating_sub(cfg.gamma);
        let core_set: std::collections::HashSet<usize> = core_cols.iter().copied().collect();
        let batch_cols = (SWEEP_BATCH_WORDS / matrix.words_per_col().max(1)).max(1);
        let n = matrix.ncols();
        let ranges = split_range(n, cfg.compute.effective_shards());
        let mut survivors: Vec<Vec<usize>> = ranges.iter().map(|_| Vec::new()).collect();
        let jobs: Vec<(Range<usize>, &mut Vec<usize>)> =
            ranges.iter().cloned().zip(survivors.iter_mut()).collect();
        run_jobs(
            jobs,
            cfg.compute.workers_for(ranges.len()),
            |(range, out)| {
                let mut batch_weights = vec![0u32; batch_cols.min(range.len())];
                let mut start = range.start;
                while start < range.end {
                    let end = (start + batch_cols).min(range.end);
                    let batch = &mut batch_weights[..end - start];
                    matrix.and_weights_into(&core.words, start..end, batch);
                    for (j, &w) in (start..end).zip(batch.iter()) {
                        if w >= thresh && !core_set.contains(&j) {
                            out.push(j);
                        }
                    }
                    start = end;
                }
            },
        );
        cols.extend(survivors.into_iter().flatten());
        cols.sort_unstable();
        timings.expand_ns = t_expand.elapsed().as_nanos() as u64;
    }

    // Verdict: is (weight(core) × |cols|) non-naturally-occurring in the
    // full matrix?
    let t_verdict = Instant::now();
    let ln_p = ln_natural_occurrence(
        matrix.nrows() as u64,
        matrix.ncols() as u64,
        u64::from(core.weight),
        cols.len() as u64,
    );
    let found = ln_p <= cfg.epsilon.ln();
    let det = if found {
        AlignedDetection {
            found,
            rows: iter_ones(&core.words).map(|r| r as u32).collect(),
            cols,
            core_cols,
            weight_curve: curve,
            stopped_at: Some(stop),
        }
    } else {
        AlignedDetection {
            found: false,
            rows: Vec::new(),
            cols: Vec::new(),
            core_cols,
            weight_curve: curve,
            stopped_at: Some(stop),
        }
    };
    timings.verdict_ns = t_verdict.elapsed().as_nanos() as u64;
    (det, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keeper::HeapKeeper;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// m×n Bernoulli(1/2) matrix with an optional planted a×b pattern.
    /// Returns (matrix, pattern_rows, pattern_cols).
    fn planted_matrix(
        rng: &mut StdRng,
        m: usize,
        n: usize,
        a: usize,
        b: usize,
    ) -> (ColMatrix, Vec<u32>, Vec<usize>) {
        let mut mat = ColMatrix::new(m, n);
        for r in 0..m {
            for c in 0..n {
                if rng.gen::<bool>() {
                    mat.set(r, c);
                }
            }
        }
        // Plant: first `a` rows × a random set of `b` columns (random rows
        // would be equivalent; fixed rows simplify assertions).
        let mut cols: Vec<usize> = (0..n).collect();
        use rand::seq::SliceRandom;
        cols.shuffle(rng);
        let pattern_cols: Vec<usize> = {
            let mut v = cols.into_iter().take(b).collect::<Vec<_>>();
            v.sort_unstable();
            v
        };
        for &c in &pattern_cols {
            for r in 0..a {
                mat.set(r, c);
            }
        }
        (mat, (0..a as u32).collect(), pattern_cols)
    }

    fn small_cfg() -> SearchConfig {
        SearchConfig {
            hopefuls: 200,
            max_iterations: 25,
            n_prime: 120,
            gamma: 2,
            epsilon: 1e-3,
            termination: TerminationConfig::default(),
            compute: ComputeBudget::sequential(),
        }
    }

    #[test]
    fn refined_finds_planted_pattern() {
        let mut r = StdRng::seed_from_u64(42);
        let (mat, rows, cols) = planted_matrix(&mut r, 96, 800, 30, 12);
        let det = refined_detect(&mat, &small_cfg());
        assert!(det.found, "pattern not found; curve {:?}", det.weight_curve);
        // Most detected rows are true pattern rows.
        let row_hits = det.rows.iter().filter(|r| rows.contains(r)).count();
        assert!(
            row_hits * 10 >= det.rows.len() * 8,
            "row precision too low: {row_hits}/{}",
            det.rows.len()
        );
        // The witness set recovers a good share of the pattern columns.
        let col_hits = det.cols.iter().filter(|c| cols.contains(c)).count();
        assert!(
            col_hits >= cols.len() / 2,
            "recovered only {col_hits}/{} pattern columns",
            cols.len()
        );
    }

    #[test]
    fn refined_rejects_pure_noise() {
        let mut r = StdRng::seed_from_u64(43);
        let (mat, _, _) = planted_matrix(&mut r, 96, 800, 0, 0);
        let det = refined_detect(&mat, &small_cfg());
        assert!(!det.found, "false positive on pure noise");
    }

    #[test]
    fn naive_finds_planted_pattern_small() {
        let mut r = StdRng::seed_from_u64(44);
        let (mat, _, cols) = planted_matrix(&mut r, 64, 150, 24, 10);
        let cfg = SearchConfig {
            hopefuls: 150,
            ..small_cfg()
        };
        let det = naive_detect(&mat, &cfg);
        assert!(
            det.found,
            "naive missed pattern; curve {:?}",
            det.weight_curve
        );
        let hits = det.cols.iter().filter(|c| cols.contains(c)).count();
        assert!(hits >= 5, "naive recovered {hits} pattern columns");
    }

    #[test]
    fn naive_rejects_pure_noise_small() {
        let mut r = StdRng::seed_from_u64(45);
        let (mat, _, _) = planted_matrix(&mut r, 64, 150, 0, 0);
        let det = naive_detect(&mat, &small_cfg());
        assert!(!det.found);
    }

    #[test]
    fn weight_curve_shape_dive_plateau() {
        // With a planted pattern the curve must contain a plateau.
        let mut r = StdRng::seed_from_u64(46);
        let (mat, _, _) = planted_matrix(&mut r, 96, 800, 30, 12);
        let det = refined_detect(&mat, &small_cfg());
        assert!(det.stopped_at.is_some());
        let stop = det.stopped_at.unwrap();
        assert!(stop >= 1, "plateau should take a few iterations");
        // First step is a dive: from ~m/4 two-product to deeper products.
        assert!(det.weight_curve[0] > det.weight_curve[stop]);
    }

    #[test]
    fn tiny_matrices_do_not_panic() {
        let cfg = small_cfg();
        let det = naive_detect(&ColMatrix::new(8, 0), &cfg);
        assert!(!det.found);
        let det = naive_detect(&ColMatrix::new(8, 1), &cfg);
        assert!(!det.found);
        let mut m = ColMatrix::new(2, 2);
        m.set(0, 0);
        m.set(0, 1);
        let det = naive_detect(&m, &cfg);
        assert!(!det.found, "a 1x2 'pattern' is naturally occurring");
    }

    #[test]
    fn multi_detection_separates_two_contents() {
        let mut r = StdRng::seed_from_u64(48);
        // Two disjoint patterns: rows 0..30 x 12 cols, rows 40..70 x 12
        // other cols.
        let m = 96;
        let n = 800;
        let mut mat = ColMatrix::new(m, n);
        for c in 0..n {
            for row in 0..m {
                if r.gen::<bool>() {
                    mat.set(row, c);
                }
            }
        }
        use rand::seq::SliceRandom;
        let mut cols: Vec<usize> = (0..n).collect();
        cols.shuffle(&mut r);
        let cols_a: Vec<usize> = cols[..12].to_vec();
        let cols_b: Vec<usize> = cols[12..24].to_vec();
        for &c in &cols_a {
            for row in 0..30 {
                mat.set(row, c);
            }
        }
        for &c in &cols_b {
            for row in 40..70 {
                mat.set(row, c);
            }
        }
        let dets = refined_detect_multi(&mat, &small_cfg(), 4);
        assert!(dets.len() >= 2, "found {} patterns, wanted 2", dets.len());
        // Each truth pattern should be the best match of some detection.
        let row_match = |det: &AlignedDetection, lo: u32, hi: u32| {
            let hits = det.rows.iter().filter(|&&x| x >= lo && x < hi).count();
            hits * 10 >= det.rows.len() * 8 && hits >= 20
        };
        assert!(
            dets.iter().any(|d| row_match(d, 0, 30)),
            "pattern A (rows 0..30) not separated"
        );
        assert!(
            dets.iter().any(|d| row_match(d, 40, 70)),
            "pattern B (rows 40..70) not separated"
        );
        // Witness columns must not overlap across the two reports.
        let all: Vec<usize> = dets.iter().flat_map(|d| d.cols.iter().copied()).collect();
        let distinct: std::collections::HashSet<usize> = all.iter().copied().collect();
        assert_eq!(all.len(), distinct.len(), "column sets overlap");
    }

    #[test]
    fn multi_detection_on_noise_is_empty() {
        let mut r = StdRng::seed_from_u64(49);
        let (mat, _, _) = planted_matrix(&mut r, 96, 600, 0, 0);
        assert!(refined_detect_multi(&mat, &small_cfg(), 3).is_empty());
    }

    #[test]
    fn expansion_recovers_out_of_core_columns() {
        // Plant a pattern wide enough that the screening keeps only part
        // of it; expansion must pull in the rest.
        let mut r = StdRng::seed_from_u64(47);
        let (mat, _, cols) = planted_matrix(&mut r, 96, 600, 32, 20);
        let cfg = SearchConfig {
            n_prime: 60, // tight screening: most pattern columns excluded
            ..small_cfg()
        };
        let det = refined_detect(&mat, &cfg);
        assert!(det.found);
        assert!(
            det.cols.len() > det.core_cols.len(),
            "expansion added nothing"
        );
        let hits = det.cols.iter().filter(|c| cols.contains(c)).count();
        assert!(
            hits >= 15,
            "expansion recovered only {hits}/{} columns",
            cols.len()
        );
    }

    #[test]
    fn cached_detect_matches_uncached_and_reuses_scratch() {
        let mut r = StdRng::seed_from_u64(52);
        let (mat, _, _) = planted_matrix(&mut r, 96, 800, 30, 12);
        let cfg = small_cfg();
        let plain = refined_detect(&mat, &cfg);
        let weights = mat.col_weights();
        let mut scratch = SearchScratch::new();
        let (cached, timings) = refined_detect_cached(&mat, &weights, &cfg, &mut scratch);
        assert_eq!(cached.found, plain.found);
        assert_eq!(cached.rows, plain.rows);
        assert_eq!(cached.cols, plain.cols);
        assert_eq!(cached.core_cols, plain.core_cols);
        assert_eq!(cached.weight_curve, plain.weight_curve);
        assert!(timings.sweep_ns() > 0);
        assert!(timings.core_ns > 0, "core search must be timed");
        // A second epoch through the same scratch must not regrow the
        // screening buffers.
        let order_cap = scratch.order.capacity();
        let (again, _) = refined_detect_cached(&mat, &weights, &cfg, &mut scratch);
        assert_eq!(again.cols, plain.cols);
        assert_eq!(scratch.order.capacity(), order_cap);
    }

    #[test]
    fn refined_detect_is_shard_count_invariant() {
        // Shards decide only how the screen, pair scan, hopeful
        // extensions, and expansion sweep are partitioned; the bounded
        // heaps merge by the full candidate tuple, so the detection must
        // be bit-identical for any shard count — at any worker count.
        let mut r = StdRng::seed_from_u64(53);
        let (mat, _, _) = planted_matrix(&mut r, 96, 800, 30, 14);
        let run = |threads: usize, shards: usize| {
            let cfg = SearchConfig {
                compute: ComputeBudget::with_threads(threads).with_shards(shards),
                ..small_cfg()
            };
            let weights = mat.col_weights();
            let mut scratch = SearchScratch::new();
            refined_detect_cached(&mat, &weights, &cfg, &mut scratch).0
        };
        let seq = run(1, 1);
        assert!(seq.found, "planted pattern not found");
        for (threads, shards) in [(1, 2), (2, 2), (2, 8), (4, 3), (1, 8)] {
            let par = run(threads, shards);
            assert_eq!(par.rows, seq.rows, "t={threads} s={shards}: rows differ");
            assert_eq!(par.cols, seq.cols, "t={threads} s={shards}: cols differ");
            assert_eq!(
                par.core_cols, seq.core_cols,
                "t={threads} s={shards}: core differs"
            );
            assert_eq!(
                par.weight_curve, seq.weight_curve,
                "t={threads} s={shards}: weight curve differs"
            );
            assert_eq!(
                par.stopped_at, seq.stopped_at,
                "t={threads} s={shards}: termination differs"
            );
        }
    }

    #[test]
    fn seeded_run_is_shard_count_invariant() {
        // Seeds reorder each shard's scan and shift when the heap bar
        // rises, so different shard counts prune different candidate
        // subsets — making this the sharpest oracle that the prune is
        // exact: every partition must still converge on the same
        // canonical top-H.
        let mut r = StdRng::seed_from_u64(54);
        let (mat, _, cols) = planted_matrix(&mut r, 96, 800, 30, 14);
        let run = |threads: usize, shards: usize| {
            let cfg = SearchConfig {
                compute: ComputeBudget::with_threads(threads).with_shards(shards),
                ..small_cfg()
            };
            let weights = mat.col_weights();
            let mut scratch = SearchScratch::new();
            refined_detect_seeded(&mat, &weights, &cfg, &cols, &mut scratch)
        };
        let (seq, _, seq_work) = run(1, 1);
        assert!(seq.found, "planted pattern not found");
        assert!(seq_work.seeded_pairs > 0, "seeds never entered the scan");
        for (threads, shards) in [(1, 2), (2, 2), (2, 8), (4, 3)] {
            let (par, _, work) = run(threads, shards);
            assert_eq!(par.rows, seq.rows, "t={threads} s={shards}: rows differ");
            assert_eq!(par.cols, seq.cols, "t={threads} s={shards}: cols differ");
            assert_eq!(
                par.weight_curve, seq.weight_curve,
                "t={threads} s={shards}: weight curve differs"
            );
            // The split between scanned and pruned shifts with the
            // partition, but their sum counts every candidate exactly
            // once per iteration.
            assert_eq!(
                work.candidates(),
                seq_work.candidates(),
                "t={threads} s={shards}: candidate total differs"
            );
        }
    }

    #[test]
    fn bucketed_search_matches_heap_reference() {
        // The weight-bucketed keeper must reproduce the binary-heap
        // search exactly — detection and work counters — on a one-word
        // 24-router matrix (weights span a narrow band, so ties at the
        // bar are the common case) and a three-word 130-row one, with
        // and without seeds, sequential and sharded.
        for (m, n, a, b, seed) in [
            (24, 3_000, 16, 20, 60u64),
            (24, 3_000, 0, 0, 61),
            (130, 900, 40, 12, 62),
        ] {
            let mut r = StdRng::seed_from_u64(seed);
            let (mat, _, plant) = planted_matrix(&mut r, m, n, a, b);
            let weights = mat.col_weights();
            for (threads, shards) in [(1, 1), (2, 3)] {
                let cfg = SearchConfig {
                    compute: ComputeBudget::with_threads(threads).with_shards(shards),
                    ..small_cfg()
                };
                for seeds in [&[][..], &plant[..]] {
                    let run = |bucketed: bool| {
                        let mut scratch = SearchScratch::new();
                        let (det, _, work) = if bucketed {
                            refined_search::<TopKeeper>(&mat, &weights, &cfg, seeds, &mut scratch)
                        } else {
                            refined_search::<HeapKeeper>(&mat, &weights, &cfg, seeds, &mut scratch)
                        };
                        (det, work)
                    };
                    let (det, work) = run(true);
                    let (oracle, oracle_work) = run(false);
                    let ctx = format!("{m}x{n} t={threads} s={shards} seeds={}", seeds.len());
                    assert_eq!(det, oracle, "{ctx}: detection differs");
                    assert_eq!(work, oracle_work, "{ctx}: work counters differ");
                    assert!(work.pairs_scanned > 0, "{ctx}: nothing scanned");
                }
            }
            let found = refined_detect(&mat, &small_cfg()).found;
            assert_eq!(found, a > 0, "{m}x{n}: plant {a}x{b} detection");
        }
    }

    proptest! {
        /// The counting-sort screen equals a full sort by
        /// `(weight desc, index asc)` cut to n′, ties at the cut included.
        #[test]
        fn screen_matches_sorted_cut(
            weights in proptest::collection::vec(0u32..30, 0..400),
            cut in 0usize..500,
        ) {
            let n_prime = cut.min(weights.len());
            let mut expect: Vec<usize> = (0..weights.len()).collect();
            expect.sort_by_key(|&j| (std::cmp::Reverse(weights[j]), j));
            expect.truncate(n_prime);
            let (mut slots, mut order) = (vec![7; 3], vec![1; 9]);
            screen_heaviest(&weights, n_prime, &mut slots, &mut order);
            prop_assert_eq!(order, expect);
        }

        /// Seeding is advisory: for any seed set — empty, on-pattern,
        /// off-pattern, out of range, duplicated — the detection is
        /// byte-identical to the unseeded run. Only the work counters
        /// may move.
        #[test]
        fn seeding_never_changes_detection(
            matrix_seed in 0u64..64,
            raw_seeds in proptest::collection::vec(0usize..1000, 0..20),
            shards in 1usize..5,
        ) {
            let mut r = StdRng::seed_from_u64(matrix_seed);
            let plant = (matrix_seed % 3) != 0; // mix noise and pattern
            let (a, b) = if plant { (24, 10) } else { (0, 0) };
            let (mat, _, _) = planted_matrix(&mut r, 64, 300, a, b);
            let cfg = SearchConfig {
                compute: ComputeBudget::sequential().with_shards(shards),
                ..small_cfg()
            };
            let weights = mat.col_weights();
            let mut scratch = SearchScratch::new();
            let (base, _, base_work) =
                refined_detect_seeded(&mat, &weights, &cfg, &[], &mut scratch);
            let (seeded, _, work) =
                refined_detect_seeded(&mat, &weights, &cfg, &raw_seeds, &mut scratch);
            prop_assert_eq!(seeded.found, base.found);
            prop_assert_eq!(&seeded.rows, &base.rows);
            prop_assert_eq!(&seeded.cols, &base.cols);
            prop_assert_eq!(&seeded.core_cols, &base.core_cols);
            prop_assert_eq!(&seeded.weight_curve, &base.weight_curve);
            prop_assert_eq!(seeded.stopped_at, base.stopped_at);
            // Scanned + pruned covers the same candidate set either way.
            prop_assert_eq!(work.candidates(), base_work.candidates());
        }
    }

    #[test]
    fn refined_detect_is_thread_count_invariant() {
        // The parallel fan-outs use bounded heaps ordered by the full
        // (weight, i, j) tuple, so the merged top-H — and therefore the
        // whole search — must not depend on how work was partitioned.
        let mut r = StdRng::seed_from_u64(51);
        let (mat, _, _) = planted_matrix(&mut r, 96, 800, 30, 14);
        let run = |threads: usize| {
            let cfg = SearchConfig {
                compute: ComputeBudget::with_threads(threads),
                ..small_cfg()
            };
            refined_detect(&mat, &cfg)
        };
        let seq = run(1);
        assert!(seq.found, "planted pattern not found");
        for threads in [2, 8] {
            let par = run(threads);
            assert_eq!(par.found, seq.found, "threads={threads}: found differs");
            assert_eq!(par.rows, seq.rows, "threads={threads}: rows differ");
            assert_eq!(par.cols, seq.cols, "threads={threads}: cols differ");
            assert_eq!(
                par.core_cols, seq.core_cols,
                "threads={threads}: core differs"
            );
            assert_eq!(
                par.weight_curve, seq.weight_curve,
                "threads={threads}: weight curve differs"
            );
            assert_eq!(
                par.stopped_at, seq.stopped_at,
                "threads={threads}: termination differs"
            );
        }
    }
}
