//! Small numeric helpers: medians, quartile spreads, seed derivation and
//! the ensemble-mean coverage crossing.

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let q = quartiles(values);
    q[1]
}

/// The three quartile cut points, computed the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) does. A single
/// value is its own quartiles; an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        n => {
            let cut = |j: usize| {
                // Exclusive method: position j*(n+1)/4, 1-based.
                let m = (n + 1) as f64 * j as f64 / 4.0;
                let lo = (m.floor() as usize).clamp(1, n - 1);
                let frac = (m - lo as f64).clamp(0.0, 1.0);
                v[lo - 1] + (v[lo] - v[lo - 1]) * frac
            };
            [cut(1), cut(2), cut(3)]
        }
    }
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// SplitMix64 finaliser: decorrelated member seeds from one benchmark
/// seed.
pub fn derive_seed(seed: u64, member: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((member as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED69));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tests at which the ensemble-mean coverage curve first reaches
/// `target_bins`. Each history lists one member's recorded coverage
/// points, monotone in both coordinates; each member's curve is linear
/// between them, so the mean curve is piecewise linear with corners at
/// the union of the members' points and the crossing is solved exactly
/// on it. `None` if the mean curve never gets there.
pub fn mean_curve_crossing(histories: &[Vec<(usize, usize)>], target_bins: f64) -> Option<f64> {
    let curves: Vec<Vec<(f64, f64)>> =
        histories.iter().map(|h| h.iter().map(|&(t, b)| (t as f64, b as f64)).collect()).collect();
    let coverage_at = |curve: &[(f64, f64)], tests: f64| {
        interpolate(curve, tests).unwrap_or_else(|| curve.last().map_or(0.0, |&(_, b)| b))
    };
    let mut corners: Vec<usize> = histories.iter().flatten().map(|&(t, _)| t).collect();
    corners.sort_unstable();
    corners.dedup();
    let (mut t0, mut m0) = (0.0, 0.0);
    for t in corners {
        let t1 = t as f64;
        let m1 = curves.iter().map(|c| coverage_at(c, t1)).sum::<f64>() / curves.len() as f64;
        if m1 >= target_bins {
            return Some(if m1 > m0 {
                t0 + (t1 - t0) * (target_bins - m0) / (m1 - m0)
            } else {
                t1
            });
        }
        (t0, m0) = (t1, m1);
    }
    None
}

/// Linear interpolation of `y` at `x` over points sorted by `x`, starting
/// from `(0, 0)`; `None` past the last point.
pub fn interpolate(points: &[(f64, f64)], x: f64) -> Option<f64> {
    let after = points.partition_point(|&(px, _)| px < x);
    let &(x1, y1) = points.get(after)?;
    let (x0, y0) = after.checked_sub(1).map_or((0.0, 0.0), |i| points[i]);
    Some(if x1 <= x0 { y1 } else { y0 + (y1 - y0) * (x - x0) / (x1 - x0) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn mean_curve_crossing_interpolates_between_corners() {
        let a = vec![(10, 4)];
        let b = vec![(10, 2), (20, 6)];
        // Mean curve: 0 at 0, 3 at 10, 5 at 20.
        assert_eq!(mean_curve_crossing(&[a.clone(), b.clone()], 3.0), Some(10.0));
        assert_eq!(mean_curve_crossing(&[a.clone(), b.clone()], 1.5), Some(5.0));
        assert_eq!(mean_curve_crossing(&[a.clone(), b.clone()], 4.0), Some(15.0));
        assert_eq!(mean_curve_crossing(&[a, b], 5.5), None);
    }
}
