//! Order statistics and the bitwise loss check.

/// The `p`-th percentile (0..=100) of `xs`, interpolating linearly
/// between the two closest ranks; `None` for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `xs`; `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// How one engine step ended, as the correctness gate sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// The step returned this loss (its `f32` bit pattern).
    Loss(u32),
    /// The step returned an error.
    Error(String),
}

/// A step the gate counts as failed.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// 0-based step index.
    pub step: usize,
    /// What went wrong, for the log.
    pub detail: String,
}

/// Compares every engine step with the reference trainer's loss for the
/// same inputs, bit for bit. A step is failed if it errored, if its loss
/// differs in any bit, or if the reference has no loss for it.
pub fn check_losses(engine: &[StepOutcome], reference: &[u32]) -> Vec<Mismatch> {
    engine
        .iter()
        .enumerate()
        .filter_map(|(step, outcome)| {
            let detail = match (outcome, reference.get(step)) {
                (StepOutcome::Loss(e), Some(r)) if e == r => return None,
                (StepOutcome::Loss(e), Some(r)) => format!(
                    "loss {} ({e:#010x}) != reference {} ({r:#010x})",
                    f32::from_bits(*e),
                    f32::from_bits(*r)
                ),
                (StepOutcome::Loss(_), None) => "no reference loss".to_string(),
                (StepOutcome::Error(msg), _) => format!("step error: {msg}"),
            };
            Some(Mismatch { step, detail })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_samples() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(5.0));
        assert_eq!(percentile(&xs, 25.0), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 10.0], 75.0), Some(4.75));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn one_ulp_off_is_flagged() {
        let loss = 4.158_883_f32.to_bits();
        let engine = [StepOutcome::Loss(loss), StepOutcome::Loss(loss + 1)];
        let bad = check_losses(&engine, &[loss, loss]);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].step, 1);
        assert!(check_losses(&engine[..1], &[loss]).is_empty());
    }

    #[test]
    fn errors_and_missing_references_are_flagged() {
        let engine = [
            StepOutcome::Error("boom".into()),
            StepOutcome::Loss(1.0f32.to_bits()),
        ];
        let bad = check_losses(&engine, &[1.0f32.to_bits()]);
        assert_eq!(
            bad.iter().map(|m| m.step).collect::<Vec<_>>(),
            vec![0, 1],
            "{bad:?}"
        );
    }
}
