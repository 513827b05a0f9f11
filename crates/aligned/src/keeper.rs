//! Exact bounded top-H keeper of the product search, bucketed by weight.
//!
//! The search keeps the `H` largest candidates `(weight, parent, column)`
//! under the full-tuple total order. A candidate's weight is the popcount
//! of an m-bit product, so it never exceeds `nrows`. [`TopKeeper`] keeps
//! one bucket of `(parent, column)` pairs per weight instead of a binary
//! heap:
//!
//! * **Same bar.** A bounded min-heap of the `H` largest tuples offered
//!   so far has, once full, the minimum weight of the `H`-th largest
//!   tuple — which is the `H`-th largest *weight* offered so far (tuples
//!   sorted by the full order are sorted by weight). That number needs no
//!   tie-break, only per-weight counts: it is the largest `w` with at
//!   least `H` offered candidates of weight ≥ `w`. The keeper tracks it
//!   incrementally as [`TopKeeper::bar`] and reports 0 until `H`
//!   candidates have been offered, exactly like the heap.
//! * **Same set.** Every candidate of weight ≥ bar is stored; anything
//!   below the bar is outside the top `H` now and forever (the set only
//!   grows more competitive), so it is dropped. Candidates tied *at* the
//!   bar are resolved by `(parent, column)` only when needed: the bar
//!   bucket is trimmed to its largest `H − above` pairs once it grows
//!   past twice that, and again when the set is read out. The scans
//!   offer candidates in ascending `(parent, column)` order, so a trim is
//!   usually a cut of the bucket's oldest entries.
//! * **Same order.** [`TopKeeper::into_desc`] emits buckets from the
//!   heaviest down, each sorted by `(parent, column)` descending — the
//!   full tuple descending, which is the heap's `into_sorted_vec` order.
//!
//! An offer at the bar is one `Vec` push (the heap paid a pop and a push
//! for every tie that beat its minimum), and raising the bar walks the
//! buckets upward, at most `nrows` steps over a keeper's life.

/// One search candidate: `(weight, parent, column)`.
pub(crate) type Candidate = (u32, u32, u32);

/// The bounded candidate store of one product-search fan-out. The
/// search is generic over it so tests can run the binary-heap reference
/// ([`HeapKeeper`]) through the same code.
pub(crate) trait CandidateKeeper: Send + Sized {
    /// An empty keeper of capacity `cap` for weights `0..=max_weight`.
    fn new(cap: usize, max_weight: u32) -> Self;
    /// Weight strictly below which no offer can enter (0 until full).
    fn bar(&self) -> u32;
    /// Offers one candidate.
    fn offer(&mut self, item: Candidate);
    /// The retained top-`cap` set, full tuple descending.
    fn into_desc(self) -> Vec<Candidate>;

    /// Offers every candidate another keeper retained. Every member of
    /// the global top-`cap` is in its own shard's top-`cap`, so merging
    /// shard keepers yields the canonical global set.
    fn absorb(&mut self, other: Self) {
        for item in other.into_desc() {
            if item.0 < self.bar() {
                break;
            }
            self.offer(item);
        }
    }
}

/// The stored `(parent, column)` pairs of one weight.
#[derive(Debug, Clone)]
struct Bucket {
    pairs: Vec<(u32, u32)>,
    /// Whether `pairs` is non-decreasing. The scans offer each shard's
    /// candidates in ascending `(parent, column)` order, so a bucket
    /// usually is, and trimming it to its largest pairs is then a cut of
    /// its tail instead of a selection.
    ascending: bool,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        pairs: Vec::new(),
        ascending: true,
    };

    #[inline]
    fn push(&mut self, pair: (u32, u32)) {
        if self.pairs.last().is_some_and(|&last| last > pair) {
            self.ascending = false;
        }
        self.pairs.push(pair);
    }

    fn clear(&mut self) {
        self.pairs.clear();
        self.ascending = true;
    }

    /// Keeps the `keep` largest pairs, leaving them ascending.
    fn keep_largest(&mut self, keep: usize) {
        let len = self.pairs.len();
        if len <= keep {
            return;
        }
        if self.ascending {
            self.pairs.drain(..len - keep);
        } else {
            self.pairs.select_nth_unstable(len - keep);
            self.pairs.drain(..len - keep);
            self.pairs.sort_unstable();
            self.ascending = true;
        }
    }
}

/// Exact weight-bucketed top-`cap` keeper (see the module docs).
#[derive(Debug)]
pub(crate) struct TopKeeper {
    cap: usize,
    /// `buckets[w]`: stored candidates of weight `w`. Buckets below
    /// `bar` are empty.
    buckets: Vec<Bucket>,
    /// The heap-equivalent eviction bar.
    bar: u32,
    /// Stored candidates of weight strictly above `bar` (always < `cap`).
    above: usize,
}

impl TopKeeper {
    /// Trims the bar bucket to the `cap − above` largest pairs, the only
    /// ones of its weight still in the top `cap`.
    fn trim_bar_bucket(&mut self) {
        let need = self.cap - self.above;
        self.buckets[self.bar as usize].keep_largest(need);
    }
}

impl CandidateKeeper for TopKeeper {
    fn new(cap: usize, max_weight: u32) -> Self {
        TopKeeper {
            cap,
            buckets: vec![Bucket::EMPTY; max_weight as usize + 1],
            bar: 0,
            above: 0,
        }
    }

    #[inline]
    fn bar(&self) -> u32 {
        self.bar
    }

    #[inline]
    fn offer(&mut self, (w, parent, col): Candidate) {
        if self.cap == 0 || w < self.bar {
            return;
        }
        self.buckets[w as usize].push((parent, col));
        if w == self.bar {
            // A tie at the bar never moves it; only bound the bucket.
            let need = self.cap - self.above;
            if self.buckets[w as usize].pairs.len() > 2 * need + TRIM_SLACK {
                self.trim_bar_bucket();
            }
            return;
        }
        self.above += 1;
        while self.above >= self.cap {
            // `cap` candidates sit strictly above the bar: everything at
            // the bar is out, and the bar rises to the next stored weight.
            self.buckets[self.bar as usize].clear();
            let next = (self.bar as usize + 1..self.buckets.len())
                .find(|&v| !self.buckets[v].pairs.is_empty())
                .expect("above > 0 implies a stored weight above the bar");
            self.above -= self.buckets[next].pairs.len();
            self.bar = next as u32;
        }
    }

    fn into_desc(mut self) -> Vec<Candidate> {
        if self.cap == 0 {
            return Vec::new();
        }
        self.trim_bar_bucket();
        let mut out = Vec::with_capacity(self.cap);
        for (w, bucket) in self.buckets.iter_mut().enumerate().rev() {
            if !bucket.ascending {
                bucket.pairs.sort_unstable();
            }
            out.extend(bucket.pairs.iter().rev().map(|&(p, c)| (w as u32, p, c)));
        }
        out
    }
}

/// Ties a bar bucket may hold beyond twice what it needs before a trim,
/// so a nearly full keeper (small need) does not trim on every offer.
const TRIM_SLACK: usize = 64;

#[cfg(test)]
pub(crate) use oracle::HeapKeeper;

/// The binary-heap keeper the bucketed one replaced, kept as the test
/// oracle.
#[cfg(test)]
mod oracle {
    use super::{Candidate, CandidateKeeper};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Bounded min-heap keeping the `cap` largest candidates.
    #[derive(Debug)]
    pub(crate) struct HeapKeeper {
        cap: usize,
        heap: BinaryHeap<Reverse<Candidate>>,
    }

    /// Offers `item` to a bounded min-heap keeping the `cap` largest
    /// candidates. Eviction compares the full tuple, so the retained set
    /// is a canonical function of the offered multiset.
    pub(crate) fn push_bounded(
        heap: &mut BinaryHeap<Reverse<Candidate>>,
        cap: usize,
        item: Candidate,
    ) {
        if cap == 0 {
            return;
        }
        if heap.len() < cap {
            heap.push(Reverse(item));
        } else if let Some(Reverse(min)) = heap.peek() {
            if item > *min {
                heap.pop();
                heap.push(Reverse(item));
            }
        }
    }

    impl CandidateKeeper for HeapKeeper {
        fn new(cap: usize, _max_weight: u32) -> Self {
            HeapKeeper {
                cap,
                heap: BinaryHeap::new(),
            }
        }

        fn bar(&self) -> u32 {
            if self.heap.len() == self.cap {
                self.heap.peek().map_or(0, |Reverse((w, _, _))| *w)
            } else {
                0
            }
        }

        fn offer(&mut self, item: Candidate) {
            push_bounded(&mut self.heap, self.cap, item);
        }

        fn into_desc(self) -> Vec<Candidate> {
            self.heap
                .into_sorted_vec()
                .into_iter()
                .map(|Reverse(item)| item)
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Candidate streams with heavy ties: weights from a narrow band
    /// (like the 15–23 of a 24-router search), parents and columns from
    /// small ranges so whole tuples repeat too.
    fn arb_stream(max_weight: u32) -> impl Strategy<Value = Vec<Candidate>> {
        let lo = max_weight.saturating_sub(6);
        proptest::collection::vec((lo..=max_weight, 0u32..12, 0u32..40), 0..600)
    }

    fn run<K: CandidateKeeper>(
        cap: usize,
        max_weight: u32,
        stream: &[Candidate],
    ) -> (Vec<u32>, Vec<Candidate>) {
        let mut k = K::new(cap, max_weight);
        let mut bars = Vec::with_capacity(stream.len());
        for &item in stream {
            k.offer(item);
            bars.push(k.bar());
        }
        (bars, k.into_desc())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Same bar after every offer, same set, same order as the heap.
        #[test]
        fn bucketed_keeper_equals_heap_oracle(
            cap in 0usize..50,
            shape in 0usize..5,
            stream in arb_stream(130),
            scan_order in any::<bool>(),
        ) {
            let max_weight = [0u32, 1, 23, 24, 130][shape];
            let mut stream: Vec<Candidate> = stream
                .into_iter()
                .map(|(w, p, c)| (w.min(max_weight), p, c))
                .collect();
            if scan_order {
                // The scans' offer order: ascending (parent, column).
                stream.sort_by_key(|&(_, p, c)| (p, c));
            }
            let (bars, set) = run::<TopKeeper>(cap, max_weight, &stream);
            let (oracle_bars, oracle_set) = run::<HeapKeeper>(cap, max_weight, &stream);
            prop_assert_eq!(bars, oracle_bars);
            prop_assert_eq!(set, oracle_set);
        }

        /// Any offer order, split into any number of shards and merged,
        /// keeps the heap oracle's set and order.
        #[test]
        fn sharded_merge_equals_heap_oracle(
            cap in 1usize..50,
            stream in arb_stream(24),
            shards in 1usize..6,
            rotate in 0usize..600,
        ) {
            let (_, expect) = run::<HeapKeeper>(cap, 24, &stream);
            let mut shuffled = stream.clone();
            if !shuffled.is_empty() {
                let r = rotate % shuffled.len();
                shuffled.rotate_left(r);
                shuffled.reverse();
            }
            let mut keepers: Vec<TopKeeper> = (0..shards).map(|_| TopKeeper::new(cap, 24)).collect();
            for (i, &item) in shuffled.iter().enumerate() {
                keepers[i % shards].offer(item);
            }
            let mut iter = keepers.into_iter();
            let mut acc = iter.next().unwrap();
            for k in iter {
                acc.absorb(k);
            }
            prop_assert_eq!(acc.into_desc(), expect);
        }
    }

    #[test]
    fn bar_tracks_hth_largest_weight() {
        let mut k = TopKeeper::new(3, 10);
        for (w, bar) in [
            (5, 0),
            (7, 0),
            (5, 5),
            (9, 5),
            (9, 7),
            (2, 7),
            (7, 7),
            (10, 9),
        ] {
            k.offer((w, 0, 0));
            assert_eq!(k.bar(), bar, "after offering weight {w}");
        }
        assert_eq!(k.into_desc(), vec![(10, 0, 0), (9, 0, 0), (9, 0, 0)]);
    }

    #[test]
    fn ties_at_the_bar_keep_the_largest_tuples() {
        // Far more ties than capacity: the bar bucket is trimmed on the
        // way and the survivors are the largest (parent, column) pairs.
        let mut k = TopKeeper::new(4, 24);
        for p in 0..1_000u32 {
            k.offer((20, p % 7, p));
        }
        assert_eq!(k.bar(), 20);
        assert!(
            k.buckets[20].pairs.len() <= 8 + TRIM_SLACK,
            "bar bucket not bounded"
        );
        assert_eq!(
            k.into_desc(),
            vec![(20, 6, 993), (20, 6, 986), (20, 6, 979), (20, 6, 972)]
        );
    }
}
