//! The `train` workload: rounds of `basm_trainer::train` (BASM, batch 1024,
//! one epoch of the trimmed eleme-shaped log = 16 steps) on a fresh model,
//! each followed by `evaluate` and `EvalAccumulator::report` on the test day.

use crate::checks::{bad_predictions, check_eval};
use crate::common::{self, Seeds, BATCH, SETUPS};
use crate::trace::Tracer;
use crate::Outcome;
use basm_data::generate_dataset;
use basm_metrics::EvalAccumulator;
use basm_trainer::{evaluate, train, TrainConfig};
use std::time::{Duration, Instant};

/// Fewest rounds a run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Steps and evaluation batches the traced run also takes apart per round.
const DECOMPOSED: usize = 4;

/// Fold an accumulator's rows into another.
fn merge(acc: &mut EvalAccumulator, part: &EvalAccumulator) {
    acc.push_batch(
        &part.probs,
        &part.labels,
        part.time_periods.iter().copied(),
        part.cities.iter().copied(),
        part.sessions.iter().copied(),
    );
}

/// The `train` workload.
pub fn run(tr: &mut Tracer, seed: u64, seconds: f64, run_dir: &std::path::Path) -> Outcome {
    let seeds = Seeds::derive(seed);
    let cfg = common::world_config();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let data = tr.span("data.generate", k as u64, |_| generate_dataset(&cfg));
        let model = common::fresh_model(&cfg, &seeds);
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((data, model));
    }
    let (data, first_model) = prepared.expect("at least one set-up");
    let ds = &data.dataset;
    let train_rows = ds.train_indices().len();
    let test_idx = ds.test_indices();
    let tc = TrainConfig::default_for(ds, 1, BATCH, seeds.shuffle);

    let mut out = Outcome::default();
    let mut samples_per_s = Vec::new();
    let mut eval_ms = Vec::new();
    let mut reference: Option<(u64, u64)> = None;
    let mut model = Some(first_model);
    let mut trained = None;
    let pool_before = basm_tensor::bufpool::stats();
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < Duration::from_secs_f64(seconds) || (round as usize) < MIN_ROUNDS {
        let mut m = model
            .take()
            .unwrap_or_else(|| common::fresh_model(&cfg, &seeds));
        let t = Instant::now();
        tr.span("trainer.train", round, |_| train(m.as_mut(), ds, &tc));
        samples_per_s.push(train_rows as f64 / t.elapsed().as_secs_f64());

        let mut acc = EvalAccumulator::new();
        for (k, chunk) in test_idx.chunks(BATCH).enumerate() {
            let t = Instant::now();
            let part = tr.span("trainer.evaluate", k as u64, |_| {
                evaluate(m.as_mut(), ds, chunk, BATCH)
            });
            eval_ms.push(t.elapsed().as_secs_f64() * 1e3);
            merge(&mut acc, &part);
        }
        let rep = common::report(tr, &acc, round);
        out.attempted += acc.len() as u64;
        out.failed += bad_predictions(&acc.probs) as u64;
        let this = (
            rep.auc.to_bits(),
            common::fingerprint(acc.probs.iter().map(|p| p.to_bits() as u64)),
        );
        match reference {
            None => {
                if let Err(why) = check_eval(&acc, &rep, ds, &test_idx) {
                    out.problem(format!("train: {why}"));
                }
                reference = Some(this);
            }
            Some(r) if r != this => out.problem(format!(
                "train: round {round} predicts differently from round 0"
            )),
            Some(_) => {}
        }
        if tr.on() {
            let mut scratch = common::fresh_model(&cfg, &seeds);
            common::decomposed_training(tr, scratch.as_mut(), ds, seeds.shuffle, DECOMPOSED);
            common::decomposed_eval(tr, m.as_mut(), ds, &test_idx[..DECOMPOSED * BATCH]);
        }
        round += 1;
        trained = Some(m);
    }
    let pool_after = basm_tensor::bufpool::stats();
    let auc = f64::from_bits(reference.expect("at least one round").0);
    out.end_to_end(&setup_s, &samples_per_s, &eval_ms, auc);

    if tr.on() {
        out.pool_counts(pool_before, pool_after);
        // Ship the trained model: save, attach, serve a probe; then the
        // front-end probe on the same checkpoint.
        let ckpt = run_dir.join("ckpt");
        let mut trained = trained.expect("at least one round");
        basm_core::checkpoint::save_model_dir(trained.as_mut(), &ckpt)
            .expect("save the trained model");
        crate::probes::serving(tr, &mut out, &data.world, &seeds, &ckpt);
        crate::probes::frontend(tr, &mut out, &data.world, &seeds, &ckpt, run_dir);
    }
    out
}
