//! Order statistics and the run-to-run comparison rule.

/// Median of an unsorted sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method). A single value
/// is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Whether `a` reads strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// The outcome of comparing a change's runs against its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins by the gain rule.
    Improved,
    /// No worse than the parent by more than the bound.
    WithinBound,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The runs spread wider than the bound, so no call can be made.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare `change` runs against `parent` runs of one metric.
///
/// - **Improved**: the change wins at least nine tenths of the pairs
///   (runs paired in order, ties counting for neither) and the medians
///   differ by more than the parent's own quartile spread — or, when the
///   spread is wider than the bound, every change run beats every parent
///   run.
/// - **Unresolved**: either side's quartile spread, as a share of its
///   median, is wider than `bound`.
/// - **Regressed**: the change's median is worse than the parent's by
///   more than `bound` (a share of the parent's median).
/// - **Within-bound** otherwise.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (pm, cm) = (median(parent), median(change));
    let (pq1, pq3) = quartiles(parent);
    let (cq1, cq3) = quartiles(change);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.beats(**c, **p))
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && (cm - pm).abs() > pq3 - pq1 {
        return Verdict::Improved;
    }
    let spread = |q1: f64, q3: f64, m: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    if spread(pq1, pq3, pm) > bound || spread(cq1, cq3, cm) > bound {
        let all_better = change
            .iter()
            .all(|c| parent.iter().all(|p| better.beats(*c, *p)));
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let worse = match better {
        Better::Lower => cm - pm,
        Better::Higher => pm - cm,
    };
    if pm != 0.0 && worse / pm.abs() > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5, 100.2];
        assert_eq!(
            verdict(
                &base,
                &[100.1, 100.0, 99.5, 101.0, 100.3],
                Better::Lower,
                0.05
            ),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(
                &base,
                &[110.0, 111.0, 109.0, 110.5, 110.2],
                Better::Lower,
                0.05
            ),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &[90.0, 91.0, 89.0, 90.5, 90.2], Better::Lower, 0.05),
            Verdict::Improved
        );
        assert_eq!(
            verdict(
                &base,
                &[80.0, 120.0, 100.0, 70.0, 130.0],
                Better::Lower,
                0.05
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &[90.0, 91.0, 89.0, 90.5, 90.2], Better::Higher, 0.05),
            Verdict::Regressed
        );
    }
}
