//! Fixed-size probes the traced runs make of layers their workload does not
//! drive itself, so that every traced run reports every per-layer metric:
//! a short serve loop, and a supervised front-end run over a prefix of the
//! load schedule with its microbatches re-scored and re-journalled.

use crate::common::{self, Seeds, POOL};
use crate::trace::Tracer;
use crate::Outcome;
use basm_data::{Context, TimePeriod, UserBlock, World};
use basm_serving::{
    generate_arrivals, run_load_supervised, score_microbatch_blocks, Arrival, ArrivalConfig,
    BlockScoreJob, CompletedRequest, FrontendConfig, Journal, LbsRecall, ShedReason,
    SupervisorConfig, WalRecord,
};
use basm_tensor::Prng;
use std::path::Path;
use std::time::Duration;

/// Requests in the serving probe.
pub const PROBE_REQUESTS: u64 = 300;
/// Arrivals in the front-end probe (a prefix of the load schedule).
pub const PROBE_ARRIVALS: usize = 1000;
/// Microbatches re-scored and re-journalled per traced run.
pub const PROBE_BATCHES: usize = 100;

/// The load schedule: the lunch ramp (10:00 → 14:00 compressed into a
/// 10 s simulated window) at 400 requests per simulated second.
pub fn schedule(world: &World, seeds: &Seeds) -> Vec<Arrival> {
    generate_arrivals(
        world,
        &ArrivalConfig {
            qps: 400.0,
            duration_ns: 10_000_000_000,
            seed: seeds.arrivals,
            ..ArrivalConfig::default()
        },
    )
}

/// A short serve loop on a fresh replica of the checkpoint at `ckpt`.
pub fn serving(tr: &mut Tracer, out: &mut Outcome, world: &World, seeds: &Seeds, ckpt: &Path) {
    let run = tr.span("probe.serving", 0, |tr| {
        let mut pipe = common::build_pipeline(tr, world, seeds, ckpt);
        let run =
            crate::serve::serve_loop(tr, world, &mut pipe, seeds, Duration::ZERO, PROBE_REQUESTS);
        out.serving_counts(&mut pipe);
        run
    });
    if run.failed > 0 {
        out.problem(format!(
            "serving probe: {} failed requests: {:?}",
            run.failed, run.problems
        ));
    }
}

/// A supervised front-end run over the first [`PROBE_ARRIVALS`] of the
/// schedule, checked as the `load` workload checks its replays: its counts,
/// its WAL record count, and its microbatches re-scored and re-journalled.
pub fn frontend(
    tr: &mut Tracer,
    out: &mut Outcome,
    world: &World,
    seeds: &Seeds,
    ckpt: &Path,
    run_dir: &Path,
) {
    let arrivals = schedule(world, seeds);
    let prefix = &arrivals[..PROBE_ARRIVALS.min(arrivals.len())];
    let wal = run_dir.join("probe-frontend.wal");
    let _ = std::fs::remove_file(&wal);
    let sup = SupervisorConfig {
        wal_path: wal.clone(),
        ..SupervisorConfig::default()
    };
    let build = || common::build_pipeline(&mut Tracer::new(false), world, seeds, ckpt);
    let run = tr.span("serving.frontend.run", 0, |_| {
        run_load_supervised(world, prefix, &FrontendConfig::default(), &sup, build)
    });
    let run = run.expect("front-end probe run");
    let failed = run.load.summary.shed_queue_full as u64
        + run.load.summary.rejected as u64
        + crate::load::check_run(out, world, prefix, &run.load, &FrontendConfig::default());
    if failed > 0 {
        out.problem(format!("front-end probe: {failed} failed requests"));
    }
    crate::load::check_wal(out, world, &run.load, &wal);
    crate::load::check_coalescing(out, world, prefix, build);
    out.frontend_counts(&run.load.summary, wal_records(&wal));
    microbatches(tr, world, seeds, ckpt, prefix, &run.load.completed, run_dir);
}

/// Records in a WAL file, as recovery reads them.
pub fn wal_records(path: &Path) -> u64 {
    Journal::recover(path).map_or(0, |(_, records, _)| records.len() as u64)
}

/// Re-score the run's first [`PROBE_BATCHES`] microbatches with
/// `score_microbatch_blocks` — batches regrouped by completion time, the
/// model-served requests of each re-recalled with their own seeds — and
/// append each batch's exposure record to a fresh journal with
/// `Journal::append`.
pub fn microbatches(
    tr: &mut Tracer,
    world: &World,
    seeds: &Seeds,
    ckpt: &Path,
    arrivals: &[Arrival],
    completed: &[CompletedRequest],
    run_dir: &Path,
) {
    let batches = group_by_completion(arrivals, completed);
    let mut pipe = common::build_pipeline(&mut Tracer::new(false), world, seeds, ckpt);
    let recall = LbsRecall::build(world);
    for (b, batch) in batches.iter().take(PROBE_BATCHES).enumerate() {
        let prepared: Vec<(UserBlock, Vec<u32>)> = batch
            .iter()
            .filter(|c| c.shed == ShedReason::None && !c.exposures.is_empty())
            .map(|c| {
                let a = &arrivals[c.arrival];
                let city = world.users[a.uid].city;
                let ctx = Context {
                    day: a.day,
                    hour: a.hour,
                    tp: TimePeriod::from_hour(a.hour),
                    city,
                    geo: a.geo,
                    position: 0,
                };
                let history = pipe.features.history_snapshot(a.uid);
                let block = pipe
                    .features
                    .with_counters(|cnt| UserBlock::build(world, a.uid, ctx, &history, cnt));
                (
                    block,
                    recall.candidates(city, a.geo, POOL, &mut Prng::seeded(a.seed)),
                )
            })
            .collect();
        if prepared.is_empty() {
            continue;
        }
        let jobs: Vec<BlockScoreJob<'_>> = prepared
            .iter()
            .map(|(block, candidates)| BlockScoreJob { block, candidates })
            .collect();
        tr.span("serving.frontend.microbatch_score", b as u64, |_| {
            pipe.features.with_counters(|cnt| {
                score_microbatch_blocks(pipe.model.as_mut(), world, &jobs, cnt)
            })
        });
    }
    let journal =
        Journal::create(run_dir.join("probe-append.wal")).expect("create the probe journal");
    for (b, batch) in batches.iter().take(PROBE_BATCHES).enumerate() {
        let lists = batch
            .iter()
            .map(|c| c.exposures.iter().map(|e| e.item).collect())
            .collect();
        tr.span("serving.journal.append", b as u64, |_| {
            journal.append(&WalRecord::Exposures { lists })
        })
        .expect("append to the probe journal");
    }
}

/// Completions grouped into their microbatches: a batch completes at one
/// simulated instant, its requests listed consecutively in admission order.
pub fn group_by_completion<'a>(
    arrivals: &[Arrival],
    completed: &'a [CompletedRequest],
) -> Vec<Vec<&'a CompletedRequest>> {
    let mut batches: Vec<Vec<&CompletedRequest>> = Vec::new();
    let mut last_done = None;
    for c in completed {
        let done = arrivals[c.arrival].t_ns + c.latency_ns;
        if last_done != Some(done) {
            batches.push(Vec::new());
            last_done = Some(done);
        }
        batches.last_mut().expect("a batch was just opened").push(c);
    }
    batches
}
