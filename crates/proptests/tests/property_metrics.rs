//! Metrics-histogram property tests: the log₂ latency histogram behind
//! `/metrics` and `qof stats`. Quantiles must be monotone in `q` and
//! bounded by the recorded extremes' bucket bounds; merging histograms
//! must be exactly equivalent to recording the union of their samples
//! (the metrics-history window's merge path); and the Prometheus rendering
//! must stay cumulative with the `+Inf` bucket carrying the total.

use proptest::prelude::*;
use qof::pat::{render_prometheus, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};

fn histogram_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &s in samples {
        h.record(s);
    }
    h
}

proptest! {
    /// quantile(q) is monotone non-decreasing in q, and every quantile of
    /// a non-empty histogram lies between the buckets of min and max.
    #[test]
    fn quantile_is_monotone_in_q(
        samples in prop::collection::vec(0u64..1u64 << 40, 1..200),
        qs in prop::collection::vec(0.0f64..=1.0, 2..10),
    ) {
        let h = histogram_of(&samples);
        let mut qs = qs;
        qs.sort_by(f64::total_cmp);
        let values: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
        for w in values.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles not monotone: {:?} for {:?}", values, qs);
        }
        // Bucket upper bounds over-approximate by at most 2× (a quantile
        // is the exclusive upper bound of its sample's log₂ bucket).
        let max = *samples.iter().max().unwrap();
        let min = *samples.iter().min().unwrap();
        prop_assert!(h.quantile(1.0) <= max.max(1).saturating_mul(2));
        prop_assert!(h.quantile(0.0) > min);
    }

    /// merge(a, b) is indistinguishable from recording a's and b's samples
    /// into one histogram: same buckets, count, sum, and quantiles.
    #[test]
    fn merge_equals_recording_the_union(
        a in prop::collection::vec(0u64..1u64 << 40, 0..100),
        b in prop::collection::vec(0u64..1u64 << 40, 0..100),
    ) {
        let mut merged = histogram_of(&a);
        merged.merge(&histogram_of(&b));
        let union: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let direct = histogram_of(&union);
        prop_assert_eq!(merged.bucket_counts(), direct.bucket_counts());
        prop_assert_eq!(merged.count(), direct.count());
        prop_assert_eq!(merged.sum(), direct.sum());
        for q in [0.0, 0.5, 0.95, 1.0] {
            prop_assert_eq!(merged.quantile(q), direct.quantile(q));
        }
    }

    /// The Prometheus rendering of any workload keeps `_bucket` series
    /// cumulative, ends them at `+Inf` == `_count`, and reports the exact
    /// query/error counters.
    #[test]
    fn prometheus_rendering_is_cumulative(
        latencies in prop::collection::vec((0u64..1u64 << 40, any::<bool>()), 0..100),
    ) {
        let reg = MetricsRegistry::new();
        let errors = latencies.iter().filter(|(_, ok)| !ok).count() as u64;
        for &(nanos, ok) in &latencies {
            reg.record_query(nanos, ok);
        }
        let text = render_prometheus(&reg.snapshot());
        prop_assert!(text.contains(&format!("qof_queries_total {}", latencies.len())));
        prop_assert!(text.contains(&format!("qof_query_errors_total {errors}")));
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("qof_query_latency_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        prop_assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{:?}", buckets);
        prop_assert_eq!(*buckets.last().unwrap(), latencies.len() as u64);
    }
}

#[test]
fn bucket_bounds_cover_the_index_space() {
    // Non-property sanity: every bucket except the last has a finite
    // power-of-two bound, and bounds strictly increase.
    let mut prev = 0;
    for i in 0..HISTOGRAM_BUCKETS - 1 {
        let b = Histogram::bucket_upper_bound(i).unwrap();
        assert!(b.is_power_of_two() && b > prev, "bucket {i}: {b}");
        prev = b;
    }
    assert_eq!(Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
}
