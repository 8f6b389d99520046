//! Output checks, computed by the benchmark apart from the program. Each
//! returns `Err` with a reason naming the first violation it finds.

use crate::stats::{grouped_rank_sum_auc, rank_sum_auc};
use basm_data::Dataset;
use basm_metrics::{EvalAccumulator, MetricReport};
use basm_serving::{CompletedRequest, Exposure, LoadSummary, ShedReason};

/// How far test AUC may sit above the generator's oracle AUC (`true_prob`
/// ranked on the same rows). Label noise makes the oracle beatable only by
/// chance; on 16k rows the chance margin is well under a hundredth.
pub const ORACLE_AUC_TOLERANCE: f64 = 0.01;

/// Agreement required between the program's AUC/TAUC/CAUC and ours.
pub const AUC_AGREEMENT: f64 = 1e-9;

/// One served list: positions are 0, 1, 2, …; scores are finite, in [0, 1]
/// and non-increasing; items are distinct and all in `city_pool` (sorted).
pub fn check_response(
    exposures: &[Exposure],
    top_k: usize,
    city_pool: &[u32],
) -> Result<(), String> {
    if exposures.len() > top_k {
        return Err(format!("{} exposures for top-{top_k}", exposures.len()));
    }
    for (i, e) in exposures.iter().enumerate() {
        if e.position as usize != i {
            return Err(format!("exposure {i} has position {}", e.position));
        }
        if !e.score.is_finite() || !(0.0..=1.0).contains(&e.score) {
            return Err(format!("exposure {i} has score {}", e.score));
        }
        if i > 0 && e.score > exposures[i - 1].score {
            return Err(format!(
                "score rises at position {i}: {} > {}",
                e.score,
                exposures[i - 1].score
            ));
        }
        if exposures[..i].iter().any(|p| p.item == e.item) {
            return Err(format!("item {} exposed twice", e.item));
        }
        if city_pool.binary_search(&e.item).is_err() {
            return Err(format!("item {} is not in the user's city", e.item));
        }
    }
    Ok(())
}

/// The exposures must be the top `k` of `candidates` under `scores`, sorted
/// descending with ties kept in recall order, scores bit for bit.
pub fn check_top_k(
    exposures: &[Exposure],
    candidates: &[u32],
    scores: &[f32],
    k: usize,
) -> Result<(), String> {
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    order.truncate(k);
    if order.len() != exposures.len() {
        return Err(format!(
            "{} exposures, expected {}",
            exposures.len(),
            order.len()
        ));
    }
    for (pos, (&i, e)) in order.iter().zip(exposures).enumerate() {
        if e.item != candidates[i] || e.score.to_bits() != scores[i].to_bits() {
            return Err(format!(
                "position {pos}: served item {} score {}, cold path gives item {} score {}",
                e.item, e.score, candidates[i], scores[i]
            ));
        }
    }
    Ok(())
}

/// The accounting identities of a fault-free load run, and the order and
/// timing of its completions.
pub fn check_load(
    s: &LoadSummary,
    completed: &[CompletedRequest],
    arrivals: usize,
    queue_capacity: usize,
) -> Result<(), String> {
    let count = |f: &dyn Fn(&CompletedRequest) -> bool| completed.iter().filter(|c| f(c)).count();
    let model_scored = count(&|c| c.shed == ShedReason::None && !c.exposures.is_empty());
    let identities = [
        ("offered == arrivals", s.offered == arrivals),
        (
            "admitted + shed_queue_full == offered",
            s.admitted + s.shed_queue_full == s.offered,
        ),
        (
            "completed == admitted - rejected",
            s.completed + s.rejected == s.admitted,
        ),
        (
            "completed == completions listed",
            s.completed == completed.len(),
        ),
        (
            "model_served == model-scored completions",
            s.model_served == model_scored,
        ),
        (
            "deadline_shed == deadline-shed completions",
            s.deadline_shed == count(&|c| c.shed == ShedReason::Deadline),
        ),
        (
            "fault_shed == fault-shed completions",
            s.fault_shed == count(&|c| c.shed == ShedReason::ScorerFault),
        ),
        ("batches <= admitted", s.batches <= s.admitted),
        (
            "batches >= 1 when anything completed",
            s.completed == 0 || s.batches >= 1,
        ),
        (
            "max_queue_depth <= capacity",
            s.max_queue_depth <= queue_capacity,
        ),
    ];
    if let Some((name, _)) = identities.iter().find(|(_, ok)| !ok) {
        return Err(format!("load summary breaks {name}: {s:?}"));
    }
    for (i, c) in completed.iter().enumerate() {
        if i > 0 && c.arrival <= completed[i - 1].arrival {
            return Err(format!(
                "completion {i} (arrival {}) is out of admission order",
                c.arrival
            ));
        }
        if c.latency_ns < c.queue_wait_ns {
            return Err(format!(
                "arrival {}: latency {} ns is below its queue wait {} ns",
                c.arrival, c.latency_ns, c.queue_wait_ns
            ));
        }
    }
    Ok(())
}

/// Non-finite or out-of-range predictions in an evaluation pass.
pub fn bad_predictions(probs: &[f32]) -> usize {
    probs
        .iter()
        .filter(|p| !p.is_finite() || !(0.0..=1.0).contains(*p))
        .count()
}

/// The evaluation of the test day: the keys and labels are the dataset's
/// test-day columns, AUC/TAUC/CAUC agree with our rank-sum recomputation,
/// and AUC lies above chance and at most the oracle AUC plus tolerance.
pub fn check_eval(
    acc: &EvalAccumulator,
    report: &MetricReport,
    ds: &Dataset,
    test_idx: &[usize],
) -> Result<(), String> {
    if acc.len() != test_idx.len() {
        return Err(format!(
            "{} predictions for {} test rows",
            acc.len(),
            test_idx.len()
        ));
    }
    for (k, &i) in test_idx.iter().enumerate() {
        let keys_match = acc.labels[k].to_bits() == ds.label[i].to_bits()
            && acc.time_periods[k] == ds.tp[i] as u32
            && acc.cities[k] == ds.city[i] as u32
            && acc.sessions[k] == ds.session[i];
        if !keys_match {
            return Err(format!(
                "evaluation row {k} does not carry test row {i}'s label and keys"
            ));
        }
    }
    let ours = [
        ("AUC", report.auc, rank_sum_auc(&acc.probs, &acc.labels)),
        (
            "TAUC",
            report.tauc,
            grouped_rank_sum_auc(&acc.probs, &acc.labels, &acc.time_periods),
        ),
        (
            "CAUC",
            report.cauc,
            grouped_rank_sum_auc(&acc.probs, &acc.labels, &acc.cities),
        ),
    ];
    for (name, theirs, ours) in ours {
        let ours = ours.ok_or_else(|| format!("{name} undefined on the test day"))?;
        if (theirs - ours).abs() > AUC_AGREEMENT {
            return Err(format!(
                "{name}: report gives {theirs}, rank sum gives {ours}"
            ));
        }
    }
    let truth: Vec<f32> = test_idx.iter().map(|&i| ds.true_prob[i]).collect();
    let oracle = rank_sum_auc(&truth, &acc.labels).ok_or("oracle AUC undefined")?;
    if report.auc <= 0.5 || report.auc > oracle + ORACLE_AUC_TOLERANCE {
        return Err(format!(
            "AUC {} outside (0.5, oracle {oracle} + {ORACLE_AUC_TOLERANCE}]",
            report.auc
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(items_scores: &[(u32, f32)]) -> Vec<Exposure> {
        items_scores
            .iter()
            .enumerate()
            .map(|(i, &(item, score))| Exposure {
                item,
                position: i as u16,
                score,
            })
            .collect()
    }

    #[test]
    fn response_check_accepts_a_good_list_and_rejects_broken_ones() {
        let pool = [2, 3, 5, 8, 13];
        assert!(check_response(&list(&[(5, 0.9), (2, 0.4), (8, 0.4)]), 10, &pool).is_ok());
        // Unsorted.
        assert!(check_response(&list(&[(5, 0.3), (2, 0.4)]), 10, &pool).is_err());
        // Foreign-city item.
        assert!(check_response(&list(&[(5, 0.9), (4, 0.4)]), 10, &pool).is_err());
        // Duplicate item, score out of range, NaN, gap in positions, too long.
        assert!(check_response(&list(&[(5, 0.9), (5, 0.4)]), 10, &pool).is_err());
        assert!(check_response(&list(&[(5, 1.5)]), 10, &pool).is_err());
        assert!(check_response(&list(&[(5, f32::NAN)]), 10, &pool).is_err());
        let mut gap = list(&[(5, 0.9), (2, 0.4)]);
        gap[1].position = 2;
        assert!(check_response(&gap, 10, &pool).is_err());
        assert!(check_response(&list(&[(5, 0.9), (2, 0.4)]), 1, &pool).is_err());
    }

    #[test]
    fn top_k_check_keeps_ties_in_recall_order() {
        let candidates = [10, 11, 12, 13];
        let scores = [0.2, 0.7, 0.7, 0.9];
        assert!(check_top_k(
            &list(&[(13, 0.9), (11, 0.7), (12, 0.7)]),
            &candidates,
            &scores,
            3
        )
        .is_ok());
        // Ties swapped.
        assert!(check_top_k(
            &list(&[(13, 0.9), (12, 0.7), (11, 0.7)]),
            &candidates,
            &scores,
            3
        )
        .is_err());
        // Wrong score bits, or a short list.
        assert!(check_top_k(
            &list(&[(13, 0.8), (11, 0.7), (12, 0.7)]),
            &candidates,
            &scores,
            3
        )
        .is_err());
        assert!(check_top_k(&list(&[(13, 0.9)]), &candidates, &scores, 3).is_err());
    }

    fn completion(arrival: usize, wait: u64, latency: u64, shed: ShedReason) -> CompletedRequest {
        CompletedRequest {
            arrival,
            uid: 0,
            queue_wait_ns: wait,
            latency_ns: latency,
            shed,
            exposures: list(&[(1, 0.5)]),
        }
    }

    fn good_run() -> (LoadSummary, Vec<CompletedRequest>) {
        let completed = vec![
            completion(0, 0, 10, ShedReason::None),
            completion(1, 5, 10, ShedReason::None),
            completion(3, 9, 20, ShedReason::Deadline),
        ];
        let summary = LoadSummary {
            offered: 5,
            admitted: 4,
            shed_queue_full: 1,
            rejected: 1,
            deadline_shed: 1,
            fault_shed: 0,
            completed: 3,
            model_served: 2,
            batches: 2,
            max_queue_depth: 3,
            sim_end_ns: 30,
        };
        (summary, completed)
    }

    #[test]
    fn load_check_accepts_consistent_accounting() {
        let (s, c) = good_run();
        assert!(check_load(&s, &c, 5, 4).is_ok());
    }

    #[test]
    fn load_check_rejects_broken_runs() {
        let (s, c) = good_run();
        let broken_summaries = [
            LoadSummary {
                admitted: 5,
                ..s.clone()
            },
            LoadSummary {
                model_served: 3,
                ..s.clone()
            },
            LoadSummary {
                deadline_shed: 0,
                ..s.clone()
            },
            LoadSummary {
                completed: 4,
                ..s.clone()
            },
            LoadSummary {
                max_queue_depth: 9,
                ..s.clone()
            },
        ];
        for bad in &broken_summaries {
            assert!(check_load(bad, &c, 5, 4).is_err(), "{bad:?} passed");
        }
        assert!(check_load(&s, &c, 6, 4).is_err());
        let mut reordered = c.clone();
        reordered.swap(0, 1);
        assert!(check_load(&s, &reordered, 5, 4).is_err());
        let mut early = c.clone();
        early[2].latency_ns = 8;
        assert!(check_load(&s, &early, 5, 4).is_err());
    }

    #[test]
    fn bad_predictions_counts_non_finite_and_out_of_range() {
        assert_eq!(bad_predictions(&[0.0, 0.5, 1.0]), 0);
        assert_eq!(
            bad_predictions(&[f32::NAN, 0.5, f32::INFINITY, -0.1, 1.1]),
            4
        );
    }
}
