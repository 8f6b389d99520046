//! The `load` workload: the fixed lunch-ramp arrival schedule replayed
//! through `run_load_supervised`, each microbatch one coalesced model pass
//! and one fsync'd WAL record.

use crate::checks::{check_load, check_response};
use crate::common::{self, Seeds, SETUPS};
use crate::probes::{self, schedule};
use crate::trace::Tracer;
use crate::Outcome;
use basm_data::World;
use basm_serving::{
    run_load, run_load_supervised, Arrival, FeatureServer, FrontendConfig, Journal, LoadOutcome,
    ServingPipeline, SupervisorConfig,
};
use std::time::{Duration, Instant};

/// Fewest schedule replays a run makes.
const MIN_REPLAYS: usize = 2;
/// Arrivals replayed both coalesced and one pass per request, to compare.
const EQUIVALENCE_PREFIX: usize = 400;

/// Fingerprint of every exposure of a run, in completion order.
fn fingerprint(out: &LoadOutcome) -> u64 {
    common::fingerprint(out.completed.iter().flat_map(|c| {
        c.exposures.iter().flat_map(move |e| {
            [
                c.arrival as u64,
                e.item as u64,
                e.position as u64,
                e.score.to_bits() as u64,
            ]
        })
    }))
}

/// Item-exposure counts of the responses.
fn tally(world: &World, out: &LoadOutcome) -> Vec<u32> {
    let mut counts = vec![0u32; world.config.n_items];
    for e in out.completed.iter().flat_map(|c| &c.exposures) {
        counts[e.item as usize] += 1;
    }
    counts
}

/// The `load` workload.
pub fn run(tr: &mut Tracer, seed: u64, seconds: f64, run_dir: &std::path::Path) -> Outcome {
    let seeds = Seeds::derive(seed);
    let ckpt = run_dir.join("ckpt");
    let auc = common::checkpoint(tr, seed, &ckpt);
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let world = World::generate(common::world_config());
        let arrivals = schedule(&world, &seeds);
        let pipe = common::build_pipeline(tr, &world, &seeds, &ckpt);
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((world, arrivals, pipe));
    }
    let (world, arrivals, _) = prepared.expect("at least one set-up");
    let build = || common::build_pipeline(&mut Tracer::new(false), &world, &seeds, &ckpt);
    let fcfg = FrontendConfig::default();
    let wal = run_dir.join("load.wal");

    let mut out = Outcome::default();
    let mut rps = Vec::new();
    let mut batch_ms = Vec::new();
    let mut first: Option<(LoadOutcome, u64, u64)> = None;
    let pool_before = basm_tensor::bufpool::stats();
    let start = Instant::now();
    let mut replay = 0u64;
    while start.elapsed() < Duration::from_secs_f64(seconds) || (replay as usize) < MIN_REPLAYS {
        let _ = std::fs::remove_file(&wal);
        let sup = SupervisorConfig {
            wal_path: wal.clone(),
            max_restarts: 0,
            kill_at_prep: None,
        };
        let t = Instant::now();
        let run = tr.span("serving.frontend.run", replay, |_| {
            run_load_supervised(&world, &arrivals, &fcfg, &sup, build)
        });
        let wall = t.elapsed().as_secs_f64();
        let run = run.expect("supervised load run").load;
        rps.push(arrivals.len() as f64 / wall);
        batch_ms.push(wall * 1e3 / run.summary.batches.max(1) as f64);

        let s = &run.summary;
        out.attempted += s.offered as u64;
        out.failed += (s.shed_queue_full + s.rejected) as u64;
        out.failed += check_run(&mut out, &world, &arrivals, &run, &fcfg);
        let print = fingerprint(&run);
        match &first {
            None => {
                check_wal(&mut out, &world, &run, &wal);
                let records = probes::wal_records(&wal);
                first = Some((run, print, records));
            }
            Some((_, p, _)) if *p != print => out.problem(format!(
                "load: replay {replay} served differently from replay 0"
            )),
            Some(_) => {}
        }
        replay += 1;
    }
    let pool_after = basm_tensor::bufpool::stats();
    let _ = std::fs::remove_file(&wal);
    let (first, _, records) = first.expect("at least one replay");
    out.end_to_end(&setup_s, &rps, &batch_ms, auc);

    let mut coalesced_pipe = check_coalescing(&mut out, &world, &arrivals, build);

    if tr.on() {
        out.pool_counts(pool_before, pool_after);
        out.frontend_counts(&first.summary, records);
        probes::microbatches(
            tr,
            &world,
            &seeds,
            &ckpt,
            &arrivals,
            &first.completed,
            run_dir,
        );
        probes::serving(tr, &mut out, &world, &seeds, &ckpt);
        // The memo and pack-cache counts of the front-end path replace the
        // serving probe's.
        out.serving_counts(&mut coalesced_pipe);
    }
    out
}

/// The accounting identities, completion order and latencies of a run, and
/// every response's list. Returns how many responses broke a check.
pub fn check_run(
    out: &mut Outcome,
    world: &World,
    arrivals: &[Arrival],
    run: &LoadOutcome,
    fcfg: &FrontendConfig,
) -> u64 {
    if let Err(why) = check_load(
        &run.summary,
        &run.completed,
        arrivals.len(),
        fcfg.queue_capacity,
    ) {
        out.problem(format!("load: {why}"));
    }
    let pools = common::city_pools(world);
    let mut bad = 0;
    for c in &run.completed {
        let city = world.users[c.uid].city as usize;
        if let Err(why) = check_response(&c.exposures, common::TOP_K, &pools[city]) {
            bad += 1;
            if bad <= 5 {
                eprintln!("failed operation: load: arrival {}: {why}", c.arrival);
            }
        }
    }
    bad
}

/// Coalesced passes must serve exactly what one pass per request serves, on
/// the first [`EQUIVALENCE_PREFIX`] arrivals. Returns the coalesced replica.
pub fn check_coalescing(
    out: &mut Outcome,
    world: &World,
    arrivals: &[Arrival],
    build: impl Fn() -> ServingPipeline,
) -> ServingPipeline {
    let prefix = &arrivals[..EQUIVALENCE_PREFIX.min(arrivals.len())];
    let fcfg = FrontendConfig::default();
    let mut coalesced_pipe = build();
    let coalesced = run_load(&mut coalesced_pipe, world, prefix, &fcfg);
    let per_request = run_load(
        &mut build(),
        world,
        prefix,
        &FrontendConfig {
            coalesce: false,
            ..fcfg
        },
    );
    if fingerprint(&coalesced) != fingerprint(&per_request) {
        out.problem("load: coalesced and per-request scoring served different exposures".into());
    }
    coalesced_pipe
}

/// The WAL the run left must replay, through `Journal::recover` and
/// `FeatureServer::replay_records`, to exactly the exposure counts of the
/// responses.
pub fn check_wal(out: &mut Outcome, world: &World, run: &LoadOutcome, wal: &std::path::Path) {
    let cfg = &world.config;
    let rebuilt = FeatureServer::new(cfg.n_users, cfg.n_items, 4 * cfg.seq_len);
    let replayed =
        Journal::recover(wal).and_then(|(_, records, _)| rebuilt.replay_records(&records));
    match replayed {
        Err(e) => out.problem(format!("load: WAL recovery failed: {e}")),
        Ok(()) => {
            if rebuilt.with_counters(|c| c.item_exposures.clone()) != tally(world, run) {
                out.problem("load: WAL-replayed exposure counts differ from the responses".into());
            }
        }
    }
}
