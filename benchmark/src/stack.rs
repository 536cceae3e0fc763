//! The one full-stack configuration every workload serves with, and the
//! helpers that build a measured server or a twin of it.

use starj_durable::{SyncPolicy, TempDir};
use starj_engine::StarSchema;
use starj_noise::PrivacyBudget;
use starj_router::{Router, RouterConfig};
use starj_service::{DurableConfig, Service, ServiceConfig};
use starj_ssb::{generate, SsbConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The router's name for the SSB instance.
pub const DATASET: &str = "ssb";
/// Per-request ε. Dyadic, so a ledger's sum is exact in binary floating
/// point however requests interleave.
pub const EPSILON: f64 = 0.125;
/// Generator seed of the SSB instance. Fixed, like dbgen's: the data is
/// part of the benchmark's definition; `--seed` drives queries and noise.
pub const DATA_SEED: u64 = 2023;
/// Client threads or connections, one tenant each (this box has 2 cores).
pub const CLIENTS: usize = 2;
/// How many times a run sets up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Sets up [`SETUP_REPEATS`] times, dropping each stage before the next is
/// built. Returns the last stage and every set-up's seconds.
pub fn set_up<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut stage = None;
    for _ in 0..SETUP_REPEATS {
        drop(stage.take());
        let start = std::time::Instant::now();
        stage = Some(setup());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (stage.expect("set up at least once"), seconds)
}

pub fn tenant(i: usize) -> String {
    format!("client-{i}")
}

pub fn token(i: usize) -> String {
    format!("tok-{i}")
}

/// The SSB instance at `scale`.
pub fn ssb(scale: f64) -> Arc<StarSchema> {
    Arc::new(generate(&SsbConfig::at_scale(scale, DATA_SEED)).expect("SSB generation"))
}

/// Where run artefacts go: journals while a run lasts, trace and result
/// files after it. Inside the checkout, on whatever filesystem holds it.
pub fn out_dir() -> PathBuf {
    let local = Path::new("benchmark");
    let dir = if local.is_dir() {
        local.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    };
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// A fresh journal directory under [`out_dir`], removed on drop.
pub fn journal_dir(label: &str) -> TempDir {
    TempDir::in_dir(&out_dir(), label).expect("create journal directory")
}

/// The filesystem type holding `path`, from the longest matching mount.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace().skip(1);
            Some((fields.next()?, fields.next()?))
        })
        .filter(|(mount, _)| path.starts_with(mount))
        .max_by_key(|(mount, _)| mount.len())
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// Flush policy of every measured server and of the twins that stand in
/// for it: journal records are written but never fsync'd. This box's
/// virtual disk is shared — its flush rate swings between 1.5 k and 5.7 k
/// fsync/s from one second to the next — so a figure that waits for it
/// measures the neighbours. The traced run times the flush on its own
/// (`durable.fsync_us`, `durable.group_qps`) and labels it the sandbox's.
pub const MEASURED_SYNC: SyncPolicy = SyncPolicy::Never;

/// The shard configuration: the adaptive coalescing window capped at 1 ms,
/// answer cache on, telemetry at its defaults, journal in `dir`.
fn shard_config(seed: u64, coalesce: bool, dir: &Path, sync: SyncPolicy) -> ServiceConfig {
    ServiceConfig {
        seed,
        coalesce,
        coalesce_window_max: Duration::from_millis(1),
        durable: Some(DurableConfig { sync, ..DurableConfig::at(dir) }),
        ..ServiceConfig::default()
    }
}

fn allotment() -> PrivacyBudget {
    PrivacyBudget::pure(1.0e9).expect("valid allotment")
}

/// The full stack's server: one coalescing shard hosting [`DATASET`],
/// journaling under `journal`, with every client tenant registered.
pub fn open_router(schema: &Arc<StarSchema>, seed: u64, journal: &Path) -> Arc<Router> {
    let router = Router::new(RouterConfig {
        shards: 1,
        seed,
        // The router points the journal at `<journal>/<dataset>` itself
        // and keeps the policy.
        shard_config: shard_config(seed, true, journal, MEASURED_SYNC),
        durable_root: Some(journal.to_path_buf()),
        ..RouterConfig::default()
    })
    .expect("one shard");
    router.add_dataset(DATASET, Arc::clone(schema)).expect("fresh dataset");
    for c in 0..CLIENTS {
        router.register_tenant(DATASET, &tenant(c), allotment()).expect("fresh tenant");
    }
    Arc::new(router)
}

/// A bare service journaling in `dir`, with every client tenant
/// registered (which applies whatever the journal's replay recovered).
pub fn open_service(
    schema: &Arc<StarSchema>,
    seed: u64,
    coalesce: bool,
    dir: &Path,
    sync: SyncPolicy,
) -> Service {
    let service = Service::open(Arc::clone(schema), shard_config(seed, coalesce, dir, sync))
        .expect("open journaled service");
    for c in 0..CLIENTS {
        service.register_tenant(&tenant(c), allotment()).expect("fresh tenant");
    }
    service
}

/// Bytes in the journal's segment files under `dir` (recursively).
pub fn journal_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => journal_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
