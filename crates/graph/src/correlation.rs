//! Pearson correlation, used to reproduce the metric-vs-latency r-values of
//! Fig. 6 of the paper.

/// Pearson correlation coefficient between two equally long samples.
///
/// Returns `None` when the samples are shorter than two elements, have
/// different lengths, or either sample has zero variance.
///
/// # Example
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// let ys = [2.0, 4.0, 6.0, 8.0];
/// let r = msfu_graph::correlation::pearson(&xs, &ys).unwrap();
/// assert!((r - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    if var_x <= 0.0 || var_y <= 0.0 {
        return None;
    }
    Some(cov / (var_x.sqrt() * var_y.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_and_negative_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let up: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        let down: Vec<f64> = xs.iter().map(|x| -2.0 * x + 7.0).collect();
        assert!((pearson(&xs, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncorrelated_data_near_zero() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, -1.0, 1.0, -1.0];
        let r = pearson(&xs, &ys).unwrap();
        assert!(r.abs() < 0.5);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(pearson(&[1.0], &[2.0]).is_none());
        assert!(pearson(&[1.0, 2.0], &[2.0]).is_none());
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_none());
    }
}
