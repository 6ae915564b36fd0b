//! Order statistics over latency samples.

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it: the value at sorted index `n - 11`, reported with its percentile
/// `100 (n - 10) / n` and `n`. Never below the median: with fewer than
/// 22 samples the median is returned as the tail, at percentile 50.
pub struct Tail {
    pub value: f64,
    pub pct: f64,
    pub n: usize,
}

pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n < 22 {
        return Tail {
            value: median(v),
            pct: 50.0,
            n,
        };
    }
    Tail {
        value: s[n - 11],
        pct: 100.0 * (n - 10) as f64 / n as f64,
        n,
    }
}
