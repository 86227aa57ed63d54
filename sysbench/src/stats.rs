//! Exact-sample percentiles and per-op arithmetic.
//!
//! The benchmark owns this code (no `apps::hist`, no `obs` histogram):
//! every latency sample is kept and sorted, so a percentile is a value
//! that was measured, not a bucket bound.
//!
//! **The quiet decile.** The host this runs on is shared, and its
//! interference is one-sided and comes in levels that last 0.3–1 s
//! (`kv-read` flips between 137, 122 and 103 kops/s inside one run), so
//! a mean or a median over a run moves by 20 % with the neighbours. Every
//! bounded timing is therefore measured many times in a run — per slice
//! of [`SLICE_OPS`] operations, per crash drill, per set-up — and
//! reported at the decile the interference does not reach: the 10th
//! percentile of a time, the 90th of a rate.

/// Operations per slice of the measured phase (64 lockstep windows,
/// about 60 ms on `kv-read` and 0.4 s of open-loop arrivals).
pub const SLICE_OPS: usize = 8192;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the samples at or below it.
/// Returns 0 for an empty sample.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `values` in ascending order.
pub fn ascending(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of each slice of `in_order` (latencies in arrival order),
/// ascending. The last slice may be short.
pub fn slice_medians(in_order: &[u64]) -> Vec<u64> {
    let mut medians: Vec<u64> = in_order
        .chunks(SLICE_OPS)
        .map(|slice| {
            let mut slice = slice.to_vec();
            slice.sort_unstable();
            percentile(&slice, 50.0)
        })
        .collect();
    medians.sort_unstable();
    medians
}

/// `total / ops` as a float; 0 when nothing was counted.
pub fn per_op(total: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total as f64 / ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 75.0), 30);
        assert_eq!(percentile(&[10, 20, 30, 40], 76.0), 40);
        assert_eq!(percentile::<u64>(&[], 50.0), 0);
        assert_eq!(percentile(&ascending(vec![3.5, 1.5, 2.5]), 10.0), 1.5);
        assert_eq!(percentile(&ascending(vec![3.5, 1.5, 2.5]), 90.0), 3.5);
    }

    #[test]
    fn slice_medians_are_per_slice_and_ascending() {
        // Two full slices (medians 9 and 5) and a short one (median 7).
        let mut v = vec![9u64; SLICE_OPS];
        v.extend(vec![5u64; SLICE_OPS]);
        v.extend([7, 7, 100]);
        assert_eq!(slice_medians(&v), vec![5, 7, 9]);
        assert_eq!(slice_medians(&[]), Vec::<u64>::new());
    }

    #[test]
    fn per_op_divides_and_guards_zero() {
        assert_eq!(per_op(442_000, 1000), 442.0);
        assert_eq!(per_op(1, 4), 0.25);
        assert_eq!(per_op(5, 0), 0.0);
    }
}
