//! Order statistics over the samples one run collects.

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples —
/// the same rule as Python's `statistics.quantiles(..., method="inclusive")`,
/// so `percentile(v, 50.0)` is the usual median.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// What the report prints for every metric: median, min–max, sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
    Summary {
        median: median(samples),
        min: samples.iter().copied().fold(f64::INFINITY, f64::min),
        max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_and_hits_the_ends() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        // Between two samples: 25% of the way from 10 to 20.
        assert_eq!(percentile(&[10.0, 20.0], 25.0), 12.5);
    }

    #[test]
    fn summary_reports_min_max_and_count() {
        let s = summarize(&[5.0, 1.0, 9.0, 3.0]);
        assert_eq!(
            s,
            Summary {
                median: 4.0,
                min: 1.0,
                max: 9.0,
                n: 4
            }
        );
    }

    #[test]
    fn mean_is_the_arithmetic_mean() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
