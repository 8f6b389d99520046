//! Statistics the benchmark computes itself, independent of the program's
//! own metric code: nearest-rank percentiles, and tie-averaged rank-sum AUC
//! with its impression-weighted grouped form (the paper's TAUC, Eq. 20, and
//! CAUC, Eq. 21).

use std::collections::BTreeMap;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// The median as the mean of the two middle values (odd lengths: the middle
/// one); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// AUC as the Mann–Whitney rank sum with tied scores given the mean of the
/// ranks they span. `None` when the labels hold a single class.
pub fn rank_sum_auc(scores: &[f32], labels: &[f32]) -> Option<f64> {
    assert_eq!(
        scores.len(),
        labels.len(),
        "scores and labels differ in length"
    );
    let positive = |l: f32| l > 0.5;
    let n_pos = labels.iter().filter(|&&l| positive(l)).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return None;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut pos_rank_sum = 0.0f64;
    let mut start = 0;
    while start < order.len() {
        let mut end = start + 1;
        while end < order.len() && scores[order[end]] == scores[order[start]] {
            end += 1;
        }
        // Ranks start+1 ..= end share their mean.
        let mean_rank = (start + 1 + end) as f64 / 2.0;
        let pos_in_group = order[start..end]
            .iter()
            .filter(|&&i| positive(labels[i]))
            .count();
        pos_rank_sum += mean_rank * pos_in_group as f64;
        start = end;
    }
    let n_pos = n_pos as f64;
    Some((pos_rank_sum - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg as f64))
}

/// Impression-weighted mean of per-group AUCs, skipping groups whose AUC is
/// undefined; `None` when no group has one.
pub fn grouped_rank_sum_auc(scores: &[f32], labels: &[f32], groups: &[u32]) -> Option<f64> {
    assert_eq!(
        scores.len(),
        groups.len(),
        "scores and groups differ in length"
    );
    let mut by_group: BTreeMap<u32, (Vec<f32>, Vec<f32>)> = BTreeMap::new();
    for ((&s, &l), &g) in scores.iter().zip(labels).zip(groups) {
        let entry = by_group.entry(g).or_default();
        entry.0.push(s);
        entry.1.push(l);
    }
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (s, l) in by_group.values() {
        if let Some(a) = rank_sum_auc(s, l) {
            num += s.len() as f64 * a;
            den += s.len() as f64;
        }
    }
    (den > 0.0).then(|| num / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.1), Some(1.0));
        // Five samples: p90 is rank ceil(4.5) = 5, p50 is rank 3.
        let five = [3.0, 1.0, 5.0, 2.0, 4.0];
        assert_eq!(percentile(&five, 90.0), Some(5.0));
        assert_eq!(percentile(&five, 50.0), Some(3.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn auc_hand_computed_cases() {
        // Perfect and inverted orderings.
        assert_eq!(
            rank_sum_auc(&[0.1, 0.2, 0.8, 0.9], &[0.0, 0.0, 1.0, 1.0]),
            Some(1.0)
        );
        assert_eq!(
            rank_sum_auc(&[0.9, 0.8, 0.2, 0.1], &[0.0, 0.0, 1.0, 1.0]),
            Some(0.0)
        );
        // One tie across the classes: pairs (p=0.5 vs n=0.5) count a half.
        // Positives {0.5, 0.9}, negatives {0.5, 0.1}: wins 1 + 1 + 1 + 0.5 of 4.
        let got = rank_sum_auc(&[0.5, 0.9, 0.5, 0.1], &[1.0, 1.0, 0.0, 0.0]).unwrap();
        assert!((got - 0.875).abs() < 1e-12, "{got}");
        // Everything tied is exactly one half.
        assert_eq!(
            rank_sum_auc(&[0.3; 5], &[1.0, 0.0, 0.0, 1.0, 0.0]),
            Some(0.5)
        );
        // A single class has no AUC.
        assert_eq!(rank_sum_auc(&[0.1, 0.7], &[1.0, 1.0]), None);
        assert_eq!(rank_sum_auc(&[0.1, 0.7], &[0.0, 0.0]), None);
        assert_eq!(rank_sum_auc(&[], &[]), None);
    }

    #[test]
    fn grouped_auc_weights_by_impressions_and_skips_single_class_groups() {
        // Group 1 (3 rows): AUC 1. Group 2 (2 rows): AUC 0. Group 3: one class.
        let scores = [0.1, 0.9, 0.2, 0.8, 0.3, 0.5, 0.6];
        let labels = [0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let groups = [1, 1, 1, 2, 2, 3, 3];
        let got = grouped_rank_sum_auc(&scores, &labels, &groups).unwrap();
        assert!((got - 3.0 / 5.0).abs() < 1e-12, "{got}");
        assert_eq!(
            grouped_rank_sum_auc(&[0.2, 0.4], &[1.0, 1.0], &[1, 2]),
            None
        );
    }
}
