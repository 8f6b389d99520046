//! What the three workloads share: seeds, the world, the checkpoint, the
//! serving replica, the click model, and the decomposed training and
//! evaluation passes the traced mode times layer by layer.

use crate::trace::Tracer;
use basm_core::checkpoint::{load_model_dir, save_model_dir};
use basm_core::model::{predict, train_step, CtrModel};
use basm_data::{
    generate_dataset, BehaviorEvent, BehaviorSummary, Dataset, GeneratedData, TimePeriod, World,
    WorldConfig,
};
use basm_metrics::{EvalAccumulator, MetricReport};
use basm_serving::ServingPipeline;
use basm_tensor::optim::AdagradDecay;
use basm_tensor::Prng;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

/// Rows per training step and per evaluation batch (the paper's batch).
pub const BATCH: usize = 1024;
/// Candidates recalled per request (paper Fig. 13: ~30 LBS-recalled shops).
pub const POOL: usize = 30;
/// Exposures per response.
pub const TOP_K: usize = 10;
/// How many times a run repeats its set-up; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Every seed a run uses, each a SplitMix64 mix of the `--seed` argument
/// with a fixed stream number, so streams never alias. The world itself is
/// not among them: it is the deployment being measured (see
/// [`world_config`]).
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Model initialisation.
    pub model: u64,
    /// Training shuffle order.
    pub shuffle: u64,
    /// Serve request stream: users, hours, cells and per-request seeds.
    pub requests: u64,
    /// Click draws of the serve loop.
    pub clicks: u64,
    /// Load arrival schedule.
    pub arrivals: u64,
    /// Bootstrapped feature-server histories.
    pub histories: u64,
}

/// SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Seeds {
    /// Derive every stream from the one seed argument.
    pub fn derive(seed: u64) -> Self {
        let stream = |k: u64| mix(mix(seed) ^ k);
        Self {
            model: stream(2),
            shuffle: stream(3),
            requests: stream(4),
            clicks: stream(5),
            arrivals: stream(6),
            histories: stream(7),
        }
    }
}

/// The eleme-shaped world, trimmed in log length only: one training day and
/// one test day of 2048 sessions × 8 candidates (16384 rows each, so one
/// epoch is exactly 16 steps at batch 1024). Users, items, cities, grid,
/// sequence length and the world seed are the `eleme_like` preset's: every
/// run measures the same catalogue and log, and the seed argument varies
/// the model, the training order and the traffic.
pub fn world_config() -> WorldConfig {
    WorldConfig {
        train_days: 1,
        sessions_per_day: 2048,
        ..WorldConfig::eleme_like()
    }
}

/// A fresh BASM model for the world.
pub fn fresh_model(cfg: &WorldConfig, seeds: &Seeds) -> Box<dyn CtrModel> {
    basm_baselines::build_model("BASM", cfg, seeds.model)
}

/// One epoch of training driven step by step, each `Dataset::batch` and
/// `train_step` in its own span, with the same shuffle, schedule, optimizer
/// and clip as `basm_trainer::train`. Returns the steps taken.
pub fn decomposed_training(
    tr: &mut Tracer,
    model: &mut dyn CtrModel,
    ds: &Dataset,
    seed: u64,
    max_steps: usize,
) -> usize {
    let cfg = basm_trainer::TrainConfig::default_for(ds, 1, BATCH, seed);
    let mut rng = Prng::seeded(cfg.seed ^ 0x7EA1_B00C);
    let mut opt = AdagradDecay::paper_default();
    let chunks = ds.shuffled_batches(&ds.train_indices(), BATCH, &mut rng);
    let mut steps = 0;
    for (step, chunk) in chunks.iter().take(max_steps).enumerate() {
        let id = step as u64;
        let batch = tr.span("data.batch", id, |_| ds.batch(chunk));
        let lr = cfg.schedule.at(step as u64);
        let loss = tr.span("core.train_step", id, |_| {
            train_step(model, &batch, &mut opt, lr, cfg.grad_clip)
        });
        assert!(loss.is_finite(), "training step {step} gave loss {loss}");
        steps += 1;
    }
    steps
}

/// Evaluate `idx` batch by batch with `Dataset::batch` and `predict` in
/// their own spans, accumulating exactly what `basm_trainer::evaluate` does.
pub fn decomposed_eval(
    tr: &mut Tracer,
    model: &mut dyn CtrModel,
    ds: &Dataset,
    idx: &[usize],
) -> EvalAccumulator {
    let mut acc = EvalAccumulator::new();
    for (k, chunk) in idx.chunks(BATCH).enumerate() {
        let id = k as u64;
        let batch = tr.span("data.batch", id, |_| ds.batch(chunk));
        let probs = tr.span("core.predict", id, |_| predict(model, &batch));
        acc.push_batch(
            &probs,
            batch.labels.data(),
            batch.tp_raw.iter().map(|&t| t as u32),
            batch.city_raw.iter().map(|&c| c as u32),
            batch.session.iter().copied(),
        );
    }
    acc
}

/// Report an accumulator inside a `metrics.report` span.
pub fn report(tr: &mut Tracer, acc: &EvalAccumulator, id: u64) -> MetricReport {
    tr.span("metrics.report", id, |_| acc.report())
}

/// The serve and load checkpoint: generate the log, train one epoch step
/// by step, evaluate the test day, and save a checkpoint directory.
/// Returns the checkpoint's test-day AUC.
pub fn prepare_checkpoint(tr: &mut Tracer, seeds: &Seeds, dir: &Path) -> f64 {
    let cfg = world_config();
    let data: GeneratedData = tr.span("data.generate", 0, |_| generate_dataset(&cfg));
    let ds = &data.dataset;
    let mut model = fresh_model(&cfg, seeds);
    decomposed_training(tr, model.as_mut(), ds, seeds.shuffle, usize::MAX);
    let acc = decomposed_eval(tr, model.as_mut(), ds, &ds.test_indices());
    let rep = report(tr, &acc, 0);
    let bad = crate::checks::bad_predictions(&acc.probs);
    assert!(
        bad == 0 && rep.auc.is_finite(),
        "checkpoint preparation: {bad} bad predictions, AUC {}",
        rep.auc
    );
    save_model_dir(model.as_mut(), dir).expect("save the serving checkpoint");
    rep.auc
}

/// Where the checkpoint preparation leaves the checkpoint's test AUC.
pub fn auc_file(dir: &Path) -> PathBuf {
    dir.with_extension("auc")
}

/// Run [`prepare_checkpoint`] in a child process of this binary, so that
/// training memory stays out of the serving process's peak RSS. Returns the
/// checkpoint's test-day AUC.
pub fn prepare_checkpoint_in_child(seed: u64, dir: &Path) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let status = std::process::Command::new(exe)
        .arg("--prep-checkpoint")
        .arg(dir)
        .arg("--seed")
        .arg(seed.to_string())
        .stdout(std::process::Stdio::null())
        .status()
        .expect("start the checkpoint preparation");
    assert!(status.success(), "checkpoint preparation failed: {status}");
    let text = std::fs::read_to_string(auc_file(dir)).expect("the checkpoint's AUC");
    text.trim()
        .parse()
        .expect("an AUC written by the preparation")
}

/// Train, evaluate and save the serving checkpoint, in process when
/// tracing (its spans then join the trace) and in a child otherwise.
pub fn checkpoint(tr: &mut Tracer, seed: u64, dir: &Path) -> f64 {
    if tr.on() {
        tr.span("prep", 0, |tr| {
            prepare_checkpoint(tr, &Seeds::derive(seed), dir)
        })
    } else {
        prepare_checkpoint_in_child(seed, dir)
    }
}

/// A serving replica on the checkpoint at `ckpt`, with bootstrapped user
/// histories. The attach is its own span.
pub fn build_pipeline(
    tr: &mut Tracer,
    world: &World,
    seeds: &Seeds,
    ckpt: &Path,
) -> ServingPipeline {
    let mut model = fresh_model(&world.config, seeds);
    tr.span("core.checkpoint_attach", 0, |_| {
        load_model_dir(model.as_mut(), ckpt)
    })
    .expect("attach the serving checkpoint");
    let pipe = ServingPipeline::new(world, model, POOL, TOP_K);
    seed_histories(world, &pipe, seeds.histories);
    pipe
}

/// Warm-start every user with `history_bootstrap × activity` clicks on
/// items of their city at hour-of-day weighted hours, as the A/B simulator
/// does.
fn seed_histories(world: &World, pipe: &ServingPipeline, seed: u64) {
    let cfg = &world.config;
    let pools = city_pools(world);
    let mut rng = Prng::seeded(seed);
    for (uid, user) in world.users.iter().enumerate() {
        let pool = &pools[user.city as usize];
        if pool.is_empty() {
            continue;
        }
        let n = ((cfg.history_bootstrap as f32) * user.activity)
            .round()
            .max(1.0) as usize;
        let events: Vec<BehaviorEvent> = (0..n.min(2 * cfg.seq_len))
            .map(|_| {
                let hour = rng.weighted(&world.hour_weights) as u8;
                click_event(world, pool[rng.below(pool.len())], hour, user.city)
            })
            .collect();
        pipe.features.seed_history(uid, events);
    }
}

/// Item ids per city, ascending.
pub fn city_pools(world: &World) -> Vec<Vec<u32>> {
    let mut pools = vec![Vec::new(); world.config.n_cities];
    for (i, item) in world.items.iter().enumerate() {
        pools[item.city as usize].push(i as u32);
    }
    pools
}

/// The behaviour event a click on `item` appends to a history.
pub fn click_event(world: &World, item: u32, hour: u8, city: u16) -> BehaviorEvent {
    let it = &world.items[item as usize];
    BehaviorEvent {
        item,
        cat: it.category,
        brand: it.brand,
        tp: TimePeriod::from_hour(hour).index() as u8,
        hour,
        city,
        gx: it.geo.0,
        gy: it.geo.1,
    }
}

/// The click model's summary of a user's recent behaviour towards `cat`.
pub fn behavior(
    history: &VecDeque<BehaviorEvent>,
    cat: u16,
    tp: TimePeriod,
    seq_len: usize,
) -> BehaviorSummary {
    let recent = history.len().min(seq_len);
    if recent == 0 {
        return BehaviorSummary::default();
    }
    let (mut cat_hits, mut cat_tp_hits) = (0usize, 0usize);
    for ev in history.iter().rev().take(recent) {
        if ev.cat == cat {
            cat_hits += 1;
            cat_tp_hits += usize::from(ev.tp as usize == tp.index());
        }
    }
    BehaviorSummary {
        cat_affinity: cat_hits as f32 / recent as f32,
        cat_tp_affinity: cat_tp_hits as f32 / recent as f32,
    }
}

/// FNV-1a over a stream of words: a cheap fingerprint to compare two runs'
/// outputs bit for bit.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A directory of this run's files under the benchmark's `out/`, removed
/// when dropped.
pub struct RunDir(pub PathBuf);

impl RunDir {
    /// Create `out/run-<pid>`.
    pub fn create() -> Self {
        let dir = out_dir().join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the run directory");
        Self(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The benchmark's output directory, `perfbench/out` of the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
