//! Deterministic streaming quantile sketch.
//!
//! The adaptive shard controller needs the decayed distribution of
//! observed speeds to pick partition boundaries and to tell whether the
//! current ones still split the mass. Classic sketches
//! (GK, KLL, t-digest) are randomized or merge-order sensitive; here
//! determinism is a hard requirement — the same update stream must
//! produce the same boundaries on every run and on every WAL replay,
//! or recovery would rebuild a differently-sharded coordinator. This
//! sketch is therefore a fixed-range linear histogram: `buckets`
//! equal-width counters over `[lo, hi]`, values clamped into range;
//! boundaries are read off the counts ([`partition`](QuantileSketch::partition))
//! and mass is summed bucket by bucket
//! ([`mass_between`](QuantileSketch::mass_between)).
//!
//! Accuracy is bounded by the bucket width `(hi - lo) / buckets` —
//! for boundary picking (hundreds of buckets over a workload-bounded
//! domain) that is far below the slack the rebalance imbalance
//! threshold already tolerates. [`halve`](QuantileSketch::halve) decays
//! history so the distribution tracks drift instead of averaging over
//! the whole stream's lifetime; halving is exact integer arithmetic and
//! keeps determinism.

/// A deterministic fixed-range linear-histogram quantile sketch.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl QuantileSketch {
    /// A sketch over `[lo, hi]` with `buckets` equal-width counters.
    ///
    /// # Panics
    /// If `hi <= lo`, `buckets == 0`, or either bound is not finite.
    #[must_use]
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(hi > lo, "sketch range must be non-empty");
        assert!(buckets >= 1, "sketch needs at least one bucket");
        Self {
            lo,
            hi,
            counts: vec![0; buckets],
            total: 0,
        }
    }

    /// Records one observation. Values outside `[lo, hi]` clamp into
    /// range; NaN is ignored.
    pub fn observe(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        let v = value.clamp(self.lo, self.hi);
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = (((v - self.lo) / width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Total observations currently weighted in the sketch (halving
    /// shrinks this — it is a decayed weight, not a lifetime count).
    #[must_use]
    pub fn weight(&self) -> u64 {
        self.total
    }

    /// The `k - 1` interior boundaries of a **churn-aware** `k`-way
    /// split: minimizes, by dynamic programming over the bucket grid,
    ///
    /// ```text
    /// J(edges) = Σ_parts (weight_part / total)²
    ///          + churn_penalty · Σ_edges density(edge)
    /// ```
    ///
    /// where `density(edge)` is the mass share of the two buckets
    /// flanking the edge. The quadratic term is the balance surrogate
    /// (expected probe work grows with the heaviest parts); the linear
    /// term charges each edge for the objects that live next to it —
    /// exactly the ones whose re-steers will keep crossing it and
    /// forcing shard migrations. On a smooth distribution the density
    /// term is the same wherever an edge lands, so the split stays
    /// near equal-weight; on a clustered distribution (the skewed
    /// workloads) edges snap into the inter-cluster gaps, trading a
    /// bounded population imbalance for near-zero migration churn.
    /// `churn_penalty = 0` reduces to the best quadratic balance on the
    /// grid, near the equal-weight split.
    ///
    /// Returns strictly ascending edge values on bucket boundaries;
    /// empty when `k <= 1`, the sketch is empty, or the grid has fewer
    /// boundaries than `k - 1`. Deterministic: pure integer/float
    /// arithmetic over the counts with first-wins tie-breaking.
    #[must_use]
    pub fn partition(&self, k: usize, churn_penalty: f64) -> Vec<f64> {
        let b = self.counts.len();
        if k <= 1 || self.total == 0 || b < k {
            return Vec::new();
        }
        let total = self.total as f64;
        // prefix[i] = mass strictly below boundary i (i in 0..=b).
        let mut prefix = vec![0.0f64; b + 1];
        for (i, &c) in self.counts.iter().enumerate() {
            prefix[i + 1] = prefix[i] + c as f64;
        }
        let bal = |lo: usize, hi: usize| {
            let w = (prefix[hi] - prefix[lo]) / total;
            w * w
        };
        // Interior boundary i (1..b) sits between buckets i-1 and i.
        let edge_cost =
            |i: usize| churn_penalty * (self.counts[i - 1] + self.counts[i]) as f64 / total;

        // best[m-1][i]: cost of splitting [0, boundary i) into m parts
        // with the m-th edge at i; from[m-1][i]: that edge's predecessor.
        let parts = k - 1;
        let mut best = vec![vec![f64::INFINITY; b + 1]; parts];
        let mut from = vec![vec![0usize; b + 1]; parts];
        for (i, slot) in best[0].iter_mut().enumerate().take(b).skip(1) {
            *slot = bal(0, i) + edge_cost(i);
        }
        for m in 1..parts {
            let (done, todo) = best.split_at_mut(m);
            let prev = &done[m - 1];
            for i in (m + 1)..b {
                let mut acc = f64::INFINITY;
                let mut arg = 0usize;
                for (h, &p) in prev.iter().enumerate().take(i).skip(m) {
                    let cand = p + bal(h, i);
                    if cand < acc {
                        acc = cand;
                        arg = h;
                    }
                }
                todo[0][i] = acc + edge_cost(i);
                from[m][i] = arg;
            }
        }
        let mut last = 0usize;
        let mut acc = f64::INFINITY;
        for (i, &p) in best[parts - 1].iter().enumerate().take(b).skip(parts) {
            let cand = p + bal(i, b);
            if cand < acc {
                acc = cand;
                last = i;
            }
        }
        if last == 0 {
            return Vec::new();
        }
        let mut idx = Vec::with_capacity(parts);
        let mut at = last;
        for m in (0..parts).rev() {
            idx.push(at);
            if m > 0 {
                at = from[m][at];
            }
        }
        idx.reverse();
        let width = (self.hi - self.lo) / b as f64;
        idx.into_iter()
            .map(|i| self.lo + i as f64 * width)
            .collect()
    }

    /// The decayed mass observed in `[a, b)`: the sum of the buckets
    /// whose midpoints fall inside. Exact when `a` and `b` lie on
    /// bucket boundaries (as [`partition`](Self::partition) edges do);
    /// bucket-granular otherwise.
    #[must_use]
    pub fn mass_between(&self, a: f64, b: f64) -> u64 {
        if b <= a || self.total == 0 {
            return 0;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let mid = self.lo + (*i as f64 + 0.5) * width;
                mid >= a && mid < b
            })
            .map(|(_, &c)| c)
            .sum()
    }

    /// Halves every bucket (integer division) so newer observations
    /// outweigh old ones — call after each consumed decision to decay
    /// history. Deterministic and idempotent at zero.
    pub fn halve(&mut self) {
        self.total = 0;
        for c in &mut self.counts {
            *c /= 2;
            self.total += *c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamping_nan_and_extremes() {
        let mut s = QuantileSketch::new(0.0, 1.0, 10);
        s.observe(f64::NAN); // ignored
        assert_eq!(s.weight(), 0);
        s.observe(-5.0); // clamps to 0.0, the first bucket
        s.observe(7.0); // clamps to 1.0, the last bucket
        assert_eq!(s.weight(), 2);
        assert_eq!(s.mass_between(0.0, 0.1), 1);
        assert_eq!(s.mass_between(0.9, 1.0), 1);
        assert_eq!(s.mass_between(0.1, 0.9), 0);
        assert!(s.partition(1, 0.0).is_empty());
    }

    #[test]
    fn halving_decays_weight_but_keeps_shape() {
        let mut s = QuantileSketch::new(0.0, 10.0, 100);
        for i in 0..400 {
            s.observe(f64::from(i % 100) / 10.0);
        }
        let before = (s.mass_between(0.0, 5.0), s.partition(2, 0.0));
        assert_eq!(before.0, 200);
        s.halve();
        assert_eq!(s.weight(), 200);
        assert_eq!(s.mass_between(0.0, 5.0), 100);
        assert_eq!(s.partition(2, 0.0), before.1, "shape drifted");
        // Halving to zero empties the sketch cleanly.
        let mut tiny = QuantileSketch::new(0.0, 1.0, 4);
        tiny.observe(0.5);
        tiny.halve();
        assert_eq!(tiny.weight(), 0);
        assert_eq!(tiny.mass_between(0.0, 1.0), 0);
        assert!(tiny.partition(2, 0.0).is_empty());
    }

    #[test]
    fn churn_aware_partition_balances_smooth_mass() {
        // Uniform density: the edge-density term is flat, so the DP
        // must land near the equal-weight quartiles.
        let mut s = QuantileSketch::new(0.0, 100.0, 200);
        for i in 0..2000 {
            s.observe(i as f64 / 20.0);
        }
        let edges = s.partition(4, 24.0);
        assert_eq!(edges.len(), 3);
        for (e, expect) in edges.iter().zip([25.0, 50.0, 75.0]) {
            assert!(
                (e - expect).abs() < 2.0,
                "uniform split edge {e} far from {expect}"
            );
        }
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn churn_aware_partition_snaps_edges_into_cluster_gaps() {
        // The VelocitySkew shape: 80% of mass in [0, 0.9], 20% in
        // [2.1, 3.0], nothing between. Equal-weight quartiles would cut
        // the slow cluster twice (maximum churn); the churn-aware split
        // must put every edge in the empty gap instead, accepting the
        // [80%, 0, 0, 20%] imbalance.
        let mut s = QuantileSketch::new(0.0, 3.0, 256);
        for i in 0..1600 {
            s.observe(0.9 * (i as f64 / 1600.0));
        }
        for i in 0..400 {
            s.observe(2.1 + 0.9 * (i as f64 / 400.0));
        }
        let edges = s.partition(4, 24.0);
        assert_eq!(edges.len(), 3);
        for e in &edges {
            assert!(
                (0.89..=2.11).contains(e),
                "edge {e} cuts a cluster instead of the gap {edges:?}"
            );
        }
        // Zero penalty degenerates to the balance-only split, which
        // *does* cut the slow cluster — the penalty is what moves it.
        let greedy = s.partition(4, 0.0);
        assert!(
            greedy.iter().filter(|e| **e < 0.89).count() >= 2,
            "balance-only split should cut the slow cluster: {greedy:?}"
        );
    }

    #[test]
    fn deterministic_across_identical_streams() {
        let feed = |s: &mut QuantileSketch| {
            for i in 0..777 {
                s.observe((i as f64 * 0.37) % 3.0);
            }
        };
        let mut x = QuantileSketch::new(0.0, 3.0, 128);
        let mut y = QuantileSketch::new(0.0, 3.0, 128);
        feed(&mut x);
        feed(&mut y);
        assert_eq!(x.weight(), y.weight());
        assert_eq!(x.partition(4, 24.0), y.partition(4, 24.0));
        assert_eq!(x.mass_between(0.4, 1.9), y.mass_between(0.4, 1.9));
    }
}
