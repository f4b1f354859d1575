//! Deterministic, integer-only mergeable rank sketch (KLL/GK family).
//!
//! Every per-host training distribution in this workspace is a stream of
//! non-negative integer feature counts. [`KllSketch`] summarises such a
//! stream in bounded memory while answering rank/quantile queries with a
//! **guaranteed, explicitly-ledgered** rank error — the property the
//! paper's percentile threshold heuristics need at fleet scale, where
//! storing every sample per host is the memory wall (ROADMAP item 1).
//!
//! # Design
//!
//! The sketch is a stack of *levels*. Level `l` holds a sorted `Vec<u64>`
//! of items, each representing `2^l` original samples. New samples enter
//! level 0 with weight 1. When a level overflows its capacity, it is
//! *compacted*: the even-length prefix of its sorted buffer is halved by
//! keeping every second item (alternating between even and odd positions
//! via a per-level parity bit — the deterministic stand-in for KLL's coin
//! flip) and promoting the survivors to level `l+1` at doubled weight.
//!
//! Each compaction at level `l` perturbs the rank of any query point by at
//! most `2^l` (half of one pair's weight). The sketch therefore keeps an
//! **exact integer error ledger**: `err += 2^l` per compaction. A
//! compaction is only permitted while `err + 2^l ≤ ⌊W·ε⌋` (`W` = total
//! samples ingested); otherwise it is deferred and the buffer simply
//! grows. The advertised bound `rank error ≤ ⌊W·ε⌋` is thus true **by
//! construction**, not by probabilistic argument — there is no randomness
//! anywhere in the structure.
//!
//! # Determinism and mergeability
//!
//! * All state is integer (`u64`/`u128` saturating arithmetic); no float
//!   ever enters the stored state. Float samples are quantized to the u64
//!   lattice at ingest ([`KllSketch::insert_f64`]) and rejected if
//!   non-finite — mirroring `hids-metrics`' saturating-integer discipline.
//! * [`KllSketch::merge`] is a **lossless level-wise union**: per-level
//!   sorted multiset union, parity XOR, saturating scalar sums. Union of
//!   multisets is commutative *and* associative, so `merge(a,b)` and
//!   `merge(b,a)` (and any re-association) are byte-identical. Compaction
//!   never runs inside `merge`; callers compact explicitly (or via
//!   [`KllSketch::pool`]) once the union is formed.
//! * [`KllSketch::pool`] merges *any number* of sketches in a canonical
//!   order (a total order on sketch state), compressing after each step,
//!   so shard-merge order can never change the output — the fleet-scale
//!   determinism bar.
//!
//! Error composition under merge is additive: `err_a + err_b ≤
//! ε·W_a + ε·W_b = ε·(W_a + W_b)`, so the bound survives arbitrary
//! merging.
//!
//! # Capacity policy
//!
//! Classic KLL shrinks capacities geometrically and relies on random
//! parity for error cancellation; with deterministic parity the worst
//! case does not cancel, so this sketch uses a uniform per-level capacity
//! `cap = max(8, ⌈H/ε⌉)` (`H` = current number of levels). Each level
//! then contributes ≈ `W·ε/H` rank error, summing to the budget across
//! all `H` levels — and the ledger enforces the sum exactly.
//!
//! # Query and merge cost
//!
//! Every level is kept sorted, so no query re-sorts anything:
//!
//! * [`cdf`](KllSketch::cdf), [`below`](KllSketch::below) and
//!   [`exceedance`](KllSketch::exceedance) sum `2^l · partition_point`
//!   over the levels — `O(H log k)` for `k` items per level, no
//!   allocation.
//! * The rank reads behind [`quantile`](KllSketch::quantile) and
//!   [`quantile_discrete`](KllSketch::quantile_discrete) binary-search
//!   each level for its smallest item whose expanded `≤` count exceeds
//!   the rank and keep the least such item (`O(H² log² k)`, no
//!   allocation).
//! * [`merge`](KllSketch::merge) and compaction fold one sorted run into
//!   another with a backward in-place linear merge (no scratch buffer).
//! * [`pool`](KllSketch::pool) appends levels unsorted while it folds,
//!   sorts a level only when compaction halves it, and sorts every level
//!   once before returning. Compaction decides only from level lengths
//!   and the ledger, and halves its (sorted) input, so the result is
//!   byte-identical to folding with sorted merges.
//!
//! [`oracle`] keeps sort-per-call reference bodies of the queries and of
//! `pool`, which the differential tests compare against bit for bit.

use std::cmp::Ordering;

/// Magic bytes prefixing the canonical serialized form.
const MAGIC: &[u8; 4] = b"KLL1";

/// Parts-per-million denominator for the integer error budget.
const PPM: u64 = 1_000_000;

/// A deterministic mergeable quantile sketch over `u64` samples.
///
/// See the [module docs](self) for the design and determinism argument.
/// The boundary/NaN contract of the quantile queries is pinned (and
/// tested) in one place: the [`crate::source`] module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KllSketch {
    /// Error budget in parts-per-million of total weight (ε·10⁶).
    eps_ppm: u32,
    /// Total samples ingested (the sketch's "n").
    weight: u64,
    /// Exact rank-error ledger: sum of 2^l over performed compactions.
    err: u64,
    /// Number of compactions performed (health metric).
    compactions: u64,
    /// Exact minimum sample (u64::MAX while empty).
    min: u64,
    /// Exact maximum sample (0 while empty).
    max: u64,
    /// Exact saturating sum of samples (for the mean).
    sum: u128,
    /// Exact saturating sum of squared samples (for the stddev).
    sum_sq: u128,
    /// `levels[l]` holds sorted items of weight `2^l`.
    levels: Vec<Vec<u64>>,
    /// Compaction parity per level: `false` keeps even positions next.
    parities: Vec<bool>,
}

impl KllSketch {
    /// Create an empty sketch with rank-error budget `eps` (fraction of
    /// total weight).
    ///
    /// # Panics
    /// Panics unless `0 < eps < 1` and `eps` is finite. Callers validate
    /// user input before reaching here (see `repro` argument parsing).
    pub fn new(eps: f64) -> Self {
        assert!(
            eps.is_finite() && eps > 0.0 && eps < 1.0,
            "sketch eps must lie in (0, 1)"
        );
        // Round up so the realized budget never exceeds the requested one
        // is the wrong direction — round *down* the permissiveness: a
        // smaller eps_ppm is strictly tighter. Use ceil to avoid 0.
        let ppm = (eps * PPM as f64).ceil() as u64;
        Self::with_eps_ppm(ppm.clamp(1, PPM - 1) as u32)
    }

    /// Create an empty sketch with the budget in parts-per-million
    /// (`eps_ppm = ε·10⁶`, clamped to `[1, 999_999]`).
    pub fn with_eps_ppm(eps_ppm: u32) -> Self {
        Self {
            eps_ppm: eps_ppm.clamp(1, (PPM - 1) as u32),
            weight: 0,
            err: 0,
            compactions: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
            sum_sq: 0,
            levels: Vec::new(),
            parities: Vec::new(),
        }
    }

    /// The configured budget in parts-per-million.
    pub fn eps_ppm(&self) -> u32 {
        self.eps_ppm
    }

    /// Total samples ingested.
    pub fn len(&self) -> u64 {
        self.weight
    }

    /// Whether no samples have been ingested.
    pub fn is_empty(&self) -> bool {
        self.weight == 0
    }

    /// Current worst-case rank-error bound, in absolute rank units.
    ///
    /// This is the *exact ledger* of incurred compaction error, always
    /// `≤ ⌊len·ε⌋`; a query's rank is off by at most this many positions.
    pub fn rank_error_bound(&self) -> u64 {
        self.err
    }

    /// Number of compactions performed over the sketch's lifetime
    /// (including lifetimes of merged-in sketches).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Approximate in-memory footprint of the sketch state in bytes
    /// (items + fixed header; identical to the serialized size).
    pub fn state_bytes(&self) -> u64 {
        let header = 4 + 4 + 5 * 8 + 2 * 16 + 4;
        let levels: u64 = self
            .levels
            .iter()
            .map(|l| 1 + 4 + 8 * l.len() as u64)
            .sum();
        header as u64 + levels
    }

    /// Number of stored items across all levels.
    pub fn stored_items(&self) -> u64 {
        self.levels.iter().map(|l| l.len() as u64).sum()
    }

    /// The hard error budget at the current weight: `⌊W·ε⌋` in rank units.
    fn budget(&self) -> u64 {
        ((self.weight as u128 * self.eps_ppm as u128) / PPM as u128) as u64
    }

    /// Per-level capacity at height `h`: `max(8, ⌈h/ε⌉)`.
    fn capacity(&self, h: usize) -> usize {
        let cap = (h as u64 * PPM).div_ceil(self.eps_ppm as u64);
        (cap as usize).max(8)
    }

    /// Ingest one integer sample.
    pub fn insert(&mut self, v: u64) {
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
            self.parities.push(false);
        }
        let level0 = &mut self.levels[0];
        let at = level0.partition_point(|&x| x <= v);
        level0.insert(at, v);
        self.weight = self.weight.saturating_add(1);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum = self.sum.saturating_add(v as u128);
        self.sum_sq = self.sum_sq.saturating_add((v as u128) * (v as u128));
        self.compress();
    }

    /// Quantize a float sample onto the u64 lattice (round to nearest,
    /// clamp to `[0, u64::MAX]`) and ingest it. Returns `false` — without
    /// panicking — for NaN/±∞, which carry no rank information.
    pub fn insert_f64(&mut self, v: f64) -> bool {
        if !v.is_finite() {
            return false;
        }
        let q = if v <= 0.0 {
            0
        } else if v >= u64::MAX as f64 {
            u64::MAX
        } else {
            v.round() as u64
        };
        self.insert(q);
        true
    }

    /// Ingest a batch of integer counts.
    pub fn extend_from_counts(&mut self, counts: &[u64]) {
        for &c in counts {
            self.insert(c);
        }
    }

    /// Compact overflowing levels while the error ledger stays within the
    /// hard budget `⌊W·ε⌋`. Runs automatically on insert; callers only
    /// need it explicitly after [`merge`](Self::merge).
    pub fn compress(&mut self) {
        self.compress_with(|s, l| s.compact_level(l, Runs::Sorted));
    }

    /// The compaction schedule, with the kernel that halves one level
    /// supplied by the caller. Decisions depend only on level lengths,
    /// the ledger and the weight — never on item order.
    fn compress_with(&mut self, mut compact: impl FnMut(&mut Self, usize)) {
        loop {
            let h = self.levels.len();
            if h == 0 {
                return;
            }
            let cap = self.capacity(h);
            let budget = self.budget();
            let mut compacted = false;
            for l in 0..self.levels.len() {
                if self.levels[l].len() <= cap {
                    continue;
                }
                let cost = 1u64 << l.min(63);
                if self.err.saturating_add(cost) > budget {
                    // Deferred: the bound is inviolable, the buffer grows.
                    continue;
                }
                compact(self, l);
                compacted = true;
            }
            if !compacted {
                return;
            }
        }
    }

    /// Halve level `l`'s even prefix into level `l+1`, flipping parity and
    /// charging `2^l` to the error ledger. With [`Runs::Lazy`] level `l`
    /// is sorted first and the survivors are appended to level `l+1`
    /// unsorted; with [`Runs::Sorted`] both levels are already sorted and
    /// the survivors are merged in place.
    fn compact_level(&mut self, l: usize, runs: Runs) {
        if l + 1 == self.levels.len() {
            self.levels.push(Vec::new());
            self.parities.push(false);
        }
        let (lower, upper) = self.levels.split_at_mut(l + 1);
        let buf = &mut lower[l];
        let target = &mut upper[0];
        if runs == Runs::Lazy {
            buf.sort_unstable();
        }
        let m = buf.len() & !1;
        let start = usize::from(self.parities[l]);
        let survivors = buf[..m].iter().copied().skip(start).step_by(2);
        match runs {
            Runs::Sorted => merge_run(target, survivors),
            Runs::Lazy => target.extend(survivors),
        }
        // The odd leftover (if any) stays behind at its own weight. The
        // emptied buffer's capacity is released: kept, it would pin every
        // level's high-water mark in memory for the sketch's lifetime.
        buf.drain(..m);
        buf.shrink_to_fit();
        self.parities[l] = !self.parities[l];
        self.err = self.err.saturating_add(1u64 << l.min(63));
        self.compactions = self.compactions.saturating_add(1);
    }

    /// Lossless level-wise union with `other`.
    ///
    /// Commutative **and** associative with byte-identical results: the
    /// union of sorted multisets per level, XOR of parities, and
    /// saturating scalar sums are each order-insensitive. No compaction
    /// happens here — call [`compress`](Self::compress) (or use
    /// [`pool`](Self::pool)) afterwards to restore the memory bound.
    ///
    /// # Panics
    /// Panics if the two sketches were built with different `eps` budgets;
    /// mixing budgets would make the merged ledger meaningless.
    pub fn merge(&mut self, other: &KllSketch) {
        self.union(other, Runs::Sorted);
    }

    /// [`merge`](Self::merge)'s union; with [`Runs::Lazy`] the other
    /// sketch's levels are appended and left unsorted.
    fn union(&mut self, other: &KllSketch, runs: Runs) {
        assert!(
            self.eps_ppm == other.eps_ppm,
            "cannot merge sketches with different eps budgets"
        );
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
            self.parities.push(false);
        }
        for (l, items) in other.levels.iter().enumerate() {
            match runs {
                Runs::Sorted => merge_run(&mut self.levels[l], items.iter().copied()),
                Runs::Lazy => self.levels[l].extend_from_slice(items),
            }
            self.parities[l] ^= other.parities[l];
        }
        self.weight = self.weight.saturating_add(other.weight);
        self.err = self.err.saturating_add(other.err);
        self.compactions = self.compactions.saturating_add(other.compactions);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum = self.sum.saturating_add(other.sum);
        self.sum_sq = self.sum_sq.saturating_add(other.sum_sq);
    }

    /// A total order on sketch state, used to canonicalize merge order in
    /// [`pool`](Self::pool). Two sketches compare equal iff their
    /// serialized bytes are equal.
    pub fn canonical_cmp(a: &KllSketch, b: &KllSketch) -> Ordering {
        a.eps_ppm
            .cmp(&b.eps_ppm)
            .then(a.weight.cmp(&b.weight))
            .then(a.err.cmp(&b.err))
            .then(a.compactions.cmp(&b.compactions))
            .then(a.min.cmp(&b.min))
            .then(a.max.cmp(&b.max))
            .then(a.sum.cmp(&b.sum))
            .then(a.sum_sq.cmp(&b.sum_sq))
            .then(a.levels.len().cmp(&b.levels.len()))
            .then_with(|| {
                for l in 0..a.levels.len() {
                    let ord = a.parities[l]
                        .cmp(&b.parities[l])
                        .then(a.levels[l].len().cmp(&b.levels[l].len()))
                        .then_with(|| a.levels[l].cmp(&b.levels[l]));
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            })
    }

    /// Merge any number of sketches into one, **independent of input
    /// order**: inputs are first sorted by [`canonical_cmp`](Self::canonical_cmp)
    /// (a total order on state), then folded with union + compress, so the
    /// accumulator stays memory-bounded and every permutation of the same
    /// multiset of inputs yields byte-identical output.
    ///
    /// The fold leaves levels unsorted and sorts only the level a
    /// compaction halves; every level is sorted once at the end. The bytes
    /// equal those of folding with [`merge`](Self::merge) and
    /// [`compress`](Self::compress) (see [`oracle::pool`]).
    ///
    /// # Panics
    /// Panics if `sketches` is empty or mixes `eps` budgets.
    pub fn pool(sketches: &[&KllSketch]) -> KllSketch {
        assert!(!sketches.is_empty(), "pool needs at least one sketch");
        let mut order: Vec<usize> = (0..sketches.len()).collect();
        order.sort_by(|&i, &j| Self::canonical_cmp(sketches[i], sketches[j]));
        let mut acc = sketches[order[0]].clone();
        for &i in &order[1..] {
            acc.union(sketches[i], Runs::Lazy);
            acc.compress_with(|s, l| s.compact_level(l, Runs::Lazy));
        }
        for level in &mut acc.levels {
            level.sort_unstable();
        }
        acc
    }

    /// All stored items with their weights, aggregated by value and sorted
    /// ascending: `(value, weight)` with weights summing to `len()`.
    pub fn weighted_items(&self) -> Vec<(u64, u64)> {
        let mut flat: Vec<(u64, u64)> = Vec::with_capacity(self.stored_items() as usize);
        for (l, items) in self.levels.iter().enumerate() {
            let w = 1u64 << l.min(63);
            flat.extend(items.iter().map(|&v| (v, w)));
        }
        flat.sort_unstable_by_key(|&(v, _)| v);
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(flat.len());
        for (v, w) in flat {
            match out.last_mut() {
                Some(last) if last.0 == v => last.1 = last.1.saturating_add(w),
                _ => out.push((v, w)),
            }
        }
        out
    }

    /// Expanded (saturating) weight of the stored items satisfying `pred`,
    /// which must hold on a prefix of every sorted level.
    fn weight_where(&self, pred: impl Fn(u64) -> bool) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .fold(0u64, |acc, (l, items)| {
                let n = items.partition_point(|&v| pred(v)) as u64;
                acc.saturating_add(n.saturating_mul(1u64 << l.min(63)))
            })
    }

    /// The value at expanded (0-based) rank `r`, i.e. the `r`-th element
    /// of the weight-expanded sorted sample: the least stored value whose
    /// expanded `≤` count exceeds `r`. Falls back to the largest stored
    /// value when `r` is past the end. Returns 0.0 on an empty sketch.
    fn value_at_rank(&self, r: u64) -> f64 {
        let mut best: Option<u64> = None;
        for items in &self.levels {
            // Only items below the current best can improve on it.
            let end = best.map_or(items.len(), |b| items.partition_point(|&v| v < b));
            let head = &items[..end];
            let at = head.partition_point(|&v| self.weight_where(|x| x <= v) <= r);
            if let Some(&v) = head.get(at) {
                best = Some(v);
            }
        }
        match best.or_else(|| self.levels.iter().filter_map(|l| l.last().copied()).max()) {
            Some(v) => v as f64,
            None => 0.0,
        }
    }

    /// Quantile by linear interpolation over the weight-expanded sample
    /// (Hyndman–Fan type 7) — the same formula as
    /// [`EmpiricalDist::quantile`](crate::EmpiricalDist::quantile), so an
    /// uncompacted sketch answers bit-identically to the exact path.
    /// Boundary/NaN contract: see the [`crate::source`] module docs.
    /// Returns 0.0 on an empty sketch.
    pub fn quantile(&self, q: f64) -> f64 {
        self.quantile_by(q, Self::value_at_rank)
    }

    /// [`quantile`](Self::quantile) over the rank read `at_rank`.
    fn quantile_by(&self, q: f64, at_rank: impl Fn(&Self, u64) -> f64) -> f64 {
        if self.weight == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if self.weight == 1 {
            return at_rank(self, 0);
        }
        let pos = q * (self.weight - 1) as f64;
        let lo = pos.floor();
        let hi = pos.ceil();
        // NaN `pos` floors/ceils to NaN and casts to 0: both ranks become
        // 0 and the branch below returns the minimum — the same pinned
        // behavior as the exact path.
        let lo_r = lo as u64;
        let hi_r = hi as u64;
        if lo_r == hi_r {
            at_rank(self, lo_r)
        } else {
            let frac = pos - lo;
            at_rank(self, lo_r) * (1.0 - frac) + at_rank(self, hi_r) * frac
        }
    }

    /// The smallest stored value `v` such that at least `q·W` expanded
    /// samples are `≤ v` — the sketch analogue of
    /// [`EmpiricalDist::quantile_discrete`](crate::EmpiricalDist::quantile_discrete).
    /// Returns 0.0 on an empty sketch.
    pub fn quantile_discrete(&self, q: f64) -> f64 {
        self.quantile_discrete_by(q, Self::value_at_rank)
    }

    /// [`quantile_discrete`](Self::quantile_discrete) over the rank read
    /// `at_rank`.
    fn quantile_discrete_by(&self, q: f64, at_rank: impl Fn(&Self, u64) -> f64) -> f64 {
        if self.weight == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.weight as f64).ceil() as u64).clamp(1, self.weight);
        at_rank(self, rank - 1)
    }

    /// Fraction of expanded samples `≤ x`. Returns 0.0 on an empty sketch.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.weight == 0 {
            return 0.0;
        }
        self.weight_where(|v| v as f64 <= x) as f64 / self.weight as f64
    }

    /// Fraction of expanded samples strictly greater than `x` (the
    /// false-positive rate of threshold `x`).
    pub fn exceedance(&self, x: f64) -> f64 {
        if self.weight == 0 {
            return 0.0;
        }
        1.0 - self.cdf(x)
    }

    /// Fraction of expanded samples strictly below `x` (the paper's
    /// false-negative rate via `below(T - b)`).
    pub fn below(&self, x: f64) -> f64 {
        if self.weight == 0 {
            return 0.0;
        }
        self.weight_where(|v| (v as f64) < x) as f64 / self.weight as f64
    }

    /// Exact minimum sample (0.0 on an empty sketch).
    pub fn min(&self) -> f64 {
        if self.weight == 0 {
            0.0
        } else {
            self.min as f64
        }
    }

    /// Exact maximum sample (0.0 on an empty sketch).
    pub fn max(&self) -> f64 {
        if self.weight == 0 {
            0.0
        } else {
            self.max as f64
        }
    }

    /// Exact sample mean, from the saturating integer sum (0.0 on an
    /// empty sketch).
    pub fn mean(&self) -> f64 {
        if self.weight == 0 {
            0.0
        } else {
            self.sum as f64 / self.weight as f64
        }
    }

    /// Unbiased sample standard deviation from the exact integer moment
    /// sums, clamped at 0 before the square root (0.0 for fewer than two
    /// samples).
    pub fn stddev(&self) -> f64 {
        if self.weight < 2 {
            return 0.0;
        }
        let n = self.weight as f64;
        let mean = self.mean();
        let ss = self.sum_sq as f64 - n * mean * mean;
        (ss.max(0.0) / (n - 1.0)).sqrt()
    }

    /// Canonical serialized form (little-endian). Two sketches have equal
    /// bytes iff their state is equal — the basis of the byte-identical
    /// merge tests.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.state_bytes() as usize);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.eps_ppm.to_le_bytes());
        out.extend_from_slice(&self.weight.to_le_bytes());
        out.extend_from_slice(&self.err.to_le_bytes());
        out.extend_from_slice(&self.compactions.to_le_bytes());
        out.extend_from_slice(&self.min.to_le_bytes());
        out.extend_from_slice(&self.max.to_le_bytes());
        out.extend_from_slice(&self.sum.to_le_bytes());
        out.extend_from_slice(&self.sum_sq.to_le_bytes());
        out.extend_from_slice(&(self.levels.len() as u32).to_le_bytes());
        for (l, items) in self.levels.iter().enumerate() {
            out.push(u8::from(self.parities[l]));
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for &v in items {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Decode a sketch from its canonical serialized form. Returns an
    /// error (never panics) on truncated, corrupt, or invariant-violating
    /// input — the snapshot codec treats any error as a torn record. The
    /// invariants checked: every level is sorted, the levels expand to
    /// exactly `weight` (`Σ len_l·2^l`), and the ledger is within budget
    /// (`err ≤ ⌊weight·ε⌋`).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SketchDecodeError> {
        let mut r = Reader { buf: bytes, at: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(SketchDecodeError::BadMagic);
        }
        let eps_ppm = r.u32()?;
        if eps_ppm == 0 || eps_ppm as u64 >= PPM {
            return Err(SketchDecodeError::BadField("eps_ppm"));
        }
        let weight = r.u64()?;
        let err = r.u64()?;
        let compactions = r.u64()?;
        let min = r.u64()?;
        let max = r.u64()?;
        let sum = r.u128()?;
        let sum_sq = r.u128()?;
        let n_levels = r.u32()? as usize;
        if n_levels > 64 {
            return Err(SketchDecodeError::BadField("n_levels"));
        }
        let mut levels = Vec::with_capacity(n_levels);
        let mut parities = Vec::with_capacity(n_levels);
        let mut expanded = 0u128;
        for l in 0..n_levels {
            let parity = r.u8()?;
            if parity > 1 {
                return Err(SketchDecodeError::BadField("parity"));
            }
            let len = r.u32()? as usize;
            let mut items = Vec::with_capacity(len.min(1 << 20));
            let mut prev = 0u64;
            for i in 0..len {
                let v = r.u64()?;
                if i > 0 && v < prev {
                    return Err(SketchDecodeError::BadField("unsorted level"));
                }
                prev = v;
                items.push(v);
            }
            expanded += (len as u128) << l;
            levels.push(items);
            parities.push(parity == 1);
        }
        if r.at != bytes.len() {
            return Err(SketchDecodeError::TrailingBytes);
        }
        // Rank reads walk the levels against `weight`: the two must agree.
        if expanded != weight as u128 {
            return Err(SketchDecodeError::BadField(
                "levels do not expand to weight",
            ));
        }
        let sketch = Self {
            eps_ppm,
            weight,
            err,
            compactions,
            min,
            max,
            sum,
            sum_sq,
            levels,
            parities,
        };
        if err > sketch.budget() {
            return Err(SketchDecodeError::BadField("err > floor(weight * eps)"));
        }
        Ok(sketch)
    }
}

/// Whether a level-wise kernel keeps every level sorted as it goes
/// (`merge`, `compress`) or defers sorting to the end (`pool`'s fold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Runs {
    Sorted,
    Lazy,
}

/// Merge the ascending run `src` into the ascending `dst` in place,
/// filling from the back so no scratch buffer is needed.
fn merge_run<I>(dst: &mut Vec<u64>, src: I)
where
    I: DoubleEndedIterator<Item = u64> + ExactSizeIterator,
{
    let mut i = dst.len();
    dst.resize(i + src.len(), 0);
    let mut k = dst.len();
    for v in src.rev() {
        while i > 0 && dst[i - 1] > v {
            i -= 1;
            k -= 1;
            dst[k] = dst[i];
        }
        k -= 1;
        dst[k] = v;
    }
}

/// Sort-per-call reference bodies of the sketch queries and of
/// [`KllSketch::pool`], retained as differential-test oracles. Nothing
/// here runs on the hot path.
pub mod oracle {
    use super::KllSketch;

    /// [`KllSketch::quantile`] over the oracle rank read.
    pub fn quantile(s: &KllSketch, q: f64) -> f64 {
        s.quantile_by(q, value_at_rank)
    }

    /// [`KllSketch::quantile_discrete`] over the oracle rank read.
    pub fn quantile_discrete(s: &KllSketch, q: f64) -> f64 {
        s.quantile_discrete_by(q, value_at_rank)
    }

    /// The value at expanded (0-based) rank `r`, read off a freshly sorted
    /// [`KllSketch::weighted_items`]. `r` is clamped to the last item.
    /// Returns 0.0 on an empty sketch.
    pub fn value_at_rank(s: &KllSketch, r: u64) -> f64 {
        let items = s.weighted_items();
        let mut cum = 0u64;
        for &(v, w) in &items {
            cum = cum.saturating_add(w);
            if r < cum {
                return v as f64;
            }
        }
        match items.last() {
            Some(&(v, _)) => v as f64,
            None => 0.0,
        }
    }

    /// Fraction of expanded samples `≤ x`. Returns 0.0 on an empty sketch.
    pub fn cdf(s: &KllSketch, x: f64) -> f64 {
        if s.weight == 0 {
            return 0.0;
        }
        let mut cum = 0u64;
        for &(v, w) in &s.weighted_items() {
            if v as f64 <= x {
                cum = cum.saturating_add(w);
            } else {
                break;
            }
        }
        cum as f64 / s.weight as f64
    }

    /// Fraction of expanded samples strictly greater than `x`.
    pub fn exceedance(s: &KllSketch, x: f64) -> f64 {
        if s.weight == 0 {
            return 0.0;
        }
        1.0 - cdf(s, x)
    }

    /// Fraction of expanded samples strictly below `x`.
    pub fn below(s: &KllSketch, x: f64) -> f64 {
        if s.weight == 0 {
            return 0.0;
        }
        let mut cum = 0u64;
        for &(v, w) in &s.weighted_items() {
            if (v as f64) < x {
                cum = cum.saturating_add(w);
            } else {
                break;
            }
        }
        cum as f64 / s.weight as f64
    }

    /// [`KllSketch::pool`] folded with sorting merges and compactions.
    ///
    /// # Panics
    /// Panics if `sketches` is empty or mixes `eps` budgets.
    pub fn pool(sketches: &[&KllSketch]) -> KllSketch {
        assert!(!sketches.is_empty(), "pool needs at least one sketch");
        let mut order: Vec<usize> = (0..sketches.len()).collect();
        order.sort_by(|&i, &j| KllSketch::canonical_cmp(sketches[i], sketches[j]));
        let mut acc = sketches[order[0]].clone();
        for &i in &order[1..] {
            merge(&mut acc, sketches[i]);
            acc.compress_with(compact_level);
        }
        acc
    }

    /// Level-wise union by `extend` + `sort_unstable`.
    fn merge(s: &mut KllSketch, other: &KllSketch) {
        assert!(
            s.eps_ppm == other.eps_ppm,
            "cannot merge sketches with different eps budgets"
        );
        while s.levels.len() < other.levels.len() {
            s.levels.push(Vec::new());
            s.parities.push(false);
        }
        for (l, items) in other.levels.iter().enumerate() {
            s.levels[l].extend_from_slice(items);
            s.levels[l].sort_unstable();
            s.parities[l] ^= other.parities[l];
        }
        s.weight = s.weight.saturating_add(other.weight);
        s.err = s.err.saturating_add(other.err);
        s.compactions = s.compactions.saturating_add(other.compactions);
        s.min = s.min.min(other.min);
        s.max = s.max.max(other.max);
        s.sum = s.sum.saturating_add(other.sum);
        s.sum_sq = s.sum_sq.saturating_add(other.sum_sq);
    }

    /// Halve level `l` by copying survivors out and re-sorting the target.
    fn compact_level(s: &mut KllSketch, l: usize) {
        let buf = std::mem::take(&mut s.levels[l]);
        let m = buf.len() & !1;
        let start = usize::from(s.parities[l]);
        let promoted: Vec<u64> = buf[..m].iter().copied().skip(start).step_by(2).collect();
        // The odd leftover (if any) stays behind at its own weight.
        s.levels[l] = buf[m..].to_vec();
        s.parities[l] = !s.parities[l];
        if l + 1 == s.levels.len() {
            s.levels.push(Vec::new());
            s.parities.push(false);
        }
        let target = &mut s.levels[l + 1];
        target.extend_from_slice(&promoted);
        target.sort_unstable();
        s.err = s.err.saturating_add(1u64 << l.min(63));
        s.compactions = s.compactions.saturating_add(1);
    }
}

/// Why [`KllSketch::from_bytes`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchDecodeError {
    /// The 4-byte magic prefix did not match `KLL1`.
    BadMagic,
    /// The buffer ended before the declared structure.
    Truncated,
    /// A field held an invariant-violating value.
    BadField(&'static str),
    /// Bytes remained after the declared structure.
    TrailingBytes,
}

impl std::fmt::Display for SketchDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "bad sketch magic"),
            Self::Truncated => write!(f, "truncated sketch"),
            Self::BadField(which) => write!(f, "bad sketch field: {which}"),
            Self::TrailingBytes => write!(f, "trailing bytes after sketch"),
        }
    }
}

impl std::error::Error for SketchDecodeError {}

/// Bounds-checked little-endian reader for [`KllSketch::from_bytes`].
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SketchDecodeError> {
        let end = self
            .at
            .checked_add(n)
            .ok_or(SketchDecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(SketchDecodeError::Truncated);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SketchDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SketchDecodeError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, SketchDecodeError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn u128(&mut self) -> Result<u128, SketchDecodeError> {
        let s = self.take(16)?;
        let mut b = [0u8; 16];
        b.copy_from_slice(s);
        Ok(u128::from_le_bytes(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmpiricalDist;

    fn sketch_of(eps: f64, vals: &[u64]) -> KllSketch {
        let mut s = KllSketch::new(eps);
        s.extend_from_counts(vals);
        s
    }

    #[test]
    fn uncompacted_matches_empirical_dist_bitwise() {
        // Small stream, generous eps: capacity is never exceeded, so the
        // sketch holds the exact sample and must answer bit-identically.
        let vals: Vec<u64> = vec![9, 1, 4, 4, 7, 0, 2, 2];
        let s = sketch_of(0.1, &vals);
        assert_eq!(s.compactions(), 0);
        let d = EmpiricalDist::from_counts(&vals);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile(q), d.quantile(q), "q={q}");
            assert_eq!(s.quantile_discrete(q), d.quantile_discrete(q), "q={q}");
        }
        for x in [0.0, 0.5, 2.0, 4.0, 6.9, 9.0, 100.0] {
            assert_eq!(s.cdf(x), d.cdf(x));
            assert_eq!(s.exceedance(x), d.exceedance(x));
            assert_eq!(s.below(x), d.below(x));
        }
        assert_eq!(s.min(), d.min());
        assert_eq!(s.max(), d.max());
        assert_eq!(s.mean(), d.mean());
        assert_eq!(s.len(), d.len() as u64);
    }

    #[test]
    fn error_ledger_respects_hard_budget() {
        let mut s = KllSketch::new(0.01);
        for i in 0..100_000u64 {
            s.insert(i * 37 % 4096);
            let budget = (s.len() as u128 * s.eps_ppm() as u128 / 1_000_000) as u64;
            assert!(
                s.rank_error_bound() <= budget,
                "ledger {} exceeds budget {} at n={}",
                s.rank_error_bound(),
                budget,
                s.len()
            );
        }
        // The sketch must actually compact at this scale.
        assert!(s.compactions() > 0);
        assert!(s.stored_items() < 100_000);
    }

    #[test]
    fn rank_error_within_bound_vs_exact() {
        let vals: Vec<u64> = (0..50_000u64).map(|i| (i * i) % 10_007).collect();
        let s = sketch_of(0.02, &vals);
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let err = s.rank_error_bound();
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            let v = s.quantile_discrete(q);
            let target = ((q * n as f64).ceil() as u64).clamp(1, n);
            // 1-based rank range occupied by v in the exact sample.
            let lo = sorted.partition_point(|&x| (x as f64) < v) as u64 + 1;
            let hi = sorted.partition_point(|&x| x as f64 <= v) as u64;
            assert!(
                hi + err >= target && lo <= target + err,
                "q={q}: value {v} ranks [{lo},{hi}], target {target}, err {err}"
            );
        }
    }

    #[test]
    fn merge_is_commutative_byte_identically() {
        let a = sketch_of(0.05, &(0..3000).map(|i| i % 77).collect::<Vec<_>>());
        let b = sketch_of(0.05, &(0..2000).map(|i| i * 13 % 991).collect::<Vec<_>>());
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_bytes(), ba.to_bytes());
    }

    #[test]
    fn merge_is_associative_byte_identically() {
        let a = sketch_of(0.05, &(0..1500).map(|i| i % 31).collect::<Vec<_>>());
        let b = sketch_of(0.05, &(0..1100).map(|i| i * 7 % 129).collect::<Vec<_>>());
        let c = sketch_of(0.05, &(0..900).map(|i| i * 3 % 513).collect::<Vec<_>>());
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c.to_bytes(), a_bc.to_bytes());
    }

    #[test]
    fn pool_is_permutation_invariant() {
        let parts: Vec<KllSketch> = (0..8)
            .map(|k| sketch_of(0.02, &(0..1000).map(|i| (i * (k + 3)) % 509).collect::<Vec<_>>()))
            .collect();
        let refs: Vec<&KllSketch> = parts.iter().collect();
        let forward = KllSketch::pool(&refs);
        let mut rev: Vec<&KllSketch> = refs.clone();
        rev.reverse();
        let backward = KllSketch::pool(&rev);
        let mut rot: Vec<&KllSketch> = refs.clone();
        rot.rotate_left(3);
        let rotated = KllSketch::pool(&rot);
        assert_eq!(forward.to_bytes(), backward.to_bytes());
        assert_eq!(forward.to_bytes(), rotated.to_bytes());
        let total: u64 = parts.iter().map(|p| p.len()).sum();
        assert_eq!(forward.len(), total);
    }

    #[test]
    fn serialization_roundtrips() {
        let s = sketch_of(0.01, &(0..25_000).map(|i| i % 333).collect::<Vec<_>>());
        let bytes = s.to_bytes();
        let back = KllSketch::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(s, back);
        assert_eq!(bytes.len() as u64, s.state_bytes());
    }

    #[test]
    fn from_bytes_rejects_corruption_without_panic() {
        let s = sketch_of(0.05, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let bytes = s.to_bytes();
        assert!(KllSketch::from_bytes(&[]).is_err());
        assert!(KllSketch::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            KllSketch::from_bytes(&bad_magic),
            Err(SketchDecodeError::BadMagic)
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            KllSketch::from_bytes(&trailing),
            Err(SketchDecodeError::TrailingBytes)
        );
    }

    /// A hand-built `KLL1` image: header fields as given (min/max/sums
    /// zero), then `(parity, items)` per level.
    fn image(eps_ppm: u32, weight: u64, err: u64, levels: &[(u8, &[u64])]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&eps_ppm.to_le_bytes());
        for field in [weight, err, 0, 0, 0] {
            out.extend_from_slice(&field.to_le_bytes());
        }
        out.extend_from_slice(&[0u8; 32]);
        out.extend_from_slice(&(levels.len() as u32).to_le_bytes());
        for &(parity, items) in levels {
            out.push(parity);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for v in items {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn from_bytes_accepts_consistent_hand_built_images() {
        // 2·1 + 1·2 = 4 expanded samples; budget ⌊4·0.5⌋ = 2.
        let ok = image(500_000, 4, 2, &[(1, &[1, 2]), (0, &[5])]);
        let s = KllSketch::from_bytes(&ok).expect("consistent image");
        assert_eq!(s.len(), 4);
        assert_eq!(s.quantile_discrete(1.0), 5.0);
        assert_eq!(s.to_bytes(), ok);
        assert!(KllSketch::from_bytes(&image(10_000, 0, 0, &[])).is_ok());
    }

    #[test]
    fn from_bytes_rejects_levels_that_do_not_expand_to_weight() {
        let want = Err(SketchDecodeError::BadField(
            "levels do not expand to weight",
        ));
        // Fewer expanded samples than the weight claims.
        assert_eq!(
            KllSketch::from_bytes(&image(500_000, 5, 0, &[(0, &[1, 2, 3])])),
            want
        );
        // More: the level-1 item counts twice.
        assert_eq!(
            KllSketch::from_bytes(&image(500_000, 3, 0, &[(0, &[1, 2]), (0, &[5])])),
            want
        );
        // Stored items within the weight, but not at their level weights.
        assert_eq!(
            KllSketch::from_bytes(&image(500_000, 6, 0, &[(0, &[]), (0, &[]), (0, &[7])])),
            want
        );
        // Items with a zero weight.
        assert_eq!(
            KllSketch::from_bytes(&image(500_000, 0, 0, &[(0, &[9])])),
            want
        );
        // The top level's weight 2^63 must not wrap the sum.
        let mut levels: Vec<(u8, &[u64])> = vec![(0, &[]); 64];
        levels[63] = (0, &[1, 2]);
        assert_eq!(KllSketch::from_bytes(&image(500_000, 0, 0, &levels)), want);
    }

    #[test]
    fn from_bytes_rejects_a_ledger_over_budget() {
        let want = Err(SketchDecodeError::BadField("err > floor(weight * eps)"));
        // ε = 0.01 over 4 samples: ⌊0.04⌋ = 0, so any charged error is over.
        assert_eq!(
            KllSketch::from_bytes(&image(10_000, 4, 1, &[(0, &[1, 2, 3, 4])])),
            want
        );
        // ε = 0.5 over 4 samples: budget 2.
        assert_eq!(
            KllSketch::from_bytes(&image(500_000, 4, 3, &[(0, &[1, 2, 3, 4])])),
            want
        );
        assert!(KllSketch::from_bytes(&image(500_000, 4, 2, &[(0, &[1, 2, 3, 4])])).is_ok());
        assert_eq!(
            KllSketch::from_bytes(&image(500_000, 0, u64::MAX, &[])),
            want
        );
    }

    #[test]
    fn empty_and_degenerate_queries_do_not_panic() {
        let e = KllSketch::new(0.01);
        assert_eq!(e.quantile(0.5), 0.0);
        assert_eq!(e.quantile_discrete(0.99), 0.0);
        assert_eq!(e.cdf(1.0), 0.0);
        assert_eq!(e.exceedance(1.0), 0.0);
        assert_eq!(e.below(1.0), 0.0);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.stddev(), 0.0);
        assert_eq!(e.min(), 0.0);
        assert_eq!(e.max(), 0.0);
        assert!(e.is_empty());

        let one = sketch_of(0.01, &[42]);
        assert_eq!(one.quantile(0.0), 42.0);
        assert_eq!(one.quantile(1.0), 42.0);
        assert_eq!(one.quantile(f64::NAN), 42.0);
        assert_eq!(one.stddev(), 0.0);
    }

    #[test]
    fn insert_f64_quantizes_and_rejects_non_finite() {
        let mut s = KllSketch::new(0.1);
        assert!(s.insert_f64(3.4));
        assert!(s.insert_f64(3.6));
        assert!(s.insert_f64(-2.0));
        assert!(!s.insert_f64(f64::NAN));
        assert!(!s.insert_f64(f64::INFINITY));
        assert!(!s.insert_f64(f64::NEG_INFINITY));
        assert_eq!(s.len(), 3);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn duplicate_heavy_stream_is_fine() {
        let s = sketch_of(0.01, &vec![7u64; 40_000]);
        assert_eq!(s.quantile(0.5), 7.0);
        assert_eq!(s.quantile_discrete(0.99), 7.0);
        assert_eq!(s.min(), 7.0);
        assert_eq!(s.max(), 7.0);
        assert_eq!(s.mean(), 7.0);
        assert!(s.stored_items() < 40_000);
    }

    #[test]
    fn mean_matches_exact_sum() {
        let vals: Vec<u64> = (0..10_000).map(|i| i % 97).collect();
        let s = sketch_of(0.01, &vals);
        let d = EmpiricalDist::from_counts(&vals);
        assert_eq!(s.mean(), d.mean());
        // stddev uses a different (moment-sum) formulation: close, not
        // necessarily bitwise equal.
        assert!((s.stddev() - d.stddev()).abs() < 1e-9 * d.stddev().max(1.0));
    }

    #[test]
    fn compression_is_substantial_at_scale() {
        let vals: Vec<u64> = (0..200_000u64).map(|i| (i * 2654435761) % 65_536).collect();
        let s = sketch_of(0.02, &vals);
        let exact_bytes = vals.len() as u64 * 8;
        assert!(
            s.state_bytes() * 10 < exact_bytes,
            "sketch {} bytes vs exact {} bytes",
            s.state_bytes(),
            exact_bytes
        );
    }

    #[test]
    #[should_panic(expected = "eps")]
    fn mismatched_eps_merge_rejected() {
        let mut a = KllSketch::new(0.01);
        let b = KllSketch::new(0.02);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "(0, 1)")]
    fn eps_out_of_range_rejected() {
        let _ = KllSketch::new(1.5);
    }
}
