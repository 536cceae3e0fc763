//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded script of failures keyed by *site* (a
//! stable string naming a seam, e.g. `"wal.write"`) and *hit index* (the
//! n-th time execution reaches that site). Instrumented code calls
//! [`FaultPlan::check`] at each seam; the plan counts the hit and returns
//! the armed [`FaultKind`], if any. Two runs with the same plan and the
//! same workload observe the same faults at the same operations — that
//! determinism is what lets the crash-recovery battery sweep *every*
//! record boundary reproducibly.
//!
//! Sites instrumented today:
//!
//! | site               | seam                                                |
//! |--------------------|-----------------------------------------------------|
//! | `wal.open`         | opening/creating the journal directory and segments |
//! | `wal.write`        | appending one record frame                          |
//! | `wal.sync`         | the group-commit fsync                              |
//! | `wal.rotate`       | sealing a segment and opening its successor         |
//! | `coalesce.enqueue` | parking one job in the coalescer queue (holds)      |
//! | `coalesce.drain`   | the coalescer worker's batch drain (panic testing)  |

use starj_noise::rng::splitmix64;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What to inject when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails cleanly with an IO error; no bytes were written.
    IoError,
    /// Simulated crash mid-write: the first `torn_bytes` bytes of the
    /// in-flight record reach the file (a torn tail), then the process
    /// "dies" — the WAL handle is permanently broken and the real file is
    /// left exactly as a kill at that instant would leave it.
    Crash {
        /// Bytes of the current frame that make it to disk (clamped to the
        /// frame length; `usize::MAX` means the full frame lands but the
        /// acknowledgment is lost).
        torn_bytes: usize,
    },
    /// The instrumented site panics (worker-containment testing).
    Panic,
    /// The coalescer drains nothing until its queue holds this many jobs
    /// (shutdown always releases the hold): tests keep work parked across
    /// an event without a long timing window.
    Hold {
        /// Queue depth that releases the hold.
        depth: usize,
    },
}

#[derive(Debug, Clone)]
struct Rule {
    site: &'static str,
    at_hit: u64,
    kind: FaultKind,
}

/// A seeded, deterministic schedule of injected faults.
///
/// The seed feeds [`FaultPlan::rng_u64`], a splitmix64 stream tests use to
/// derive torn-write offsets and jitter deterministically; the rules are
/// explicit `(site, hit, kind)` triples. A plan with no rules is a pure
/// hit counter — the battery's "dry run" uses that to enumerate crash
/// points before arming them one by one.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rng_calls: AtomicU64,
    rules: Mutex<Vec<Rule>>,
    hits: Mutex<HashMap<&'static str, u64>>,
}

impl FaultPlan {
    /// A plan with no armed faults, counting hits under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rng_calls: AtomicU64::new(0),
            rules: Mutex::new(Vec::new()),
            hits: Mutex::new(HashMap::new()),
        }
    }

    /// Arm `kind` to fire the `at_hit`-th time (0-based) execution reaches
    /// `site`. Builder-style so plans read as scripts.
    pub fn fail_at(self, site: &'static str, at_hit: u64, kind: FaultKind) -> Self {
        self.arm(site, at_hit, kind);
        self
    }

    /// Arm a fault on an already-shared plan.
    pub fn arm(&self, site: &'static str, at_hit: u64, kind: FaultKind) {
        self.rules.lock().expect("fault rules").push(Rule { site, at_hit, kind });
    }

    /// Record one hit at `site` and return the fault armed for it, if any.
    pub fn check(&self, site: &'static str) -> Option<FaultKind> {
        let mut hits = self.hits.lock().expect("fault hits");
        let hit = hits.entry(site).or_insert(0);
        let this = *hit;
        *hit += 1;
        drop(hits);
        let rules = self.rules.lock().expect("fault rules");
        rules.iter().find(|r| r.site == site && r.at_hit == this).map(|r| r.kind)
    }

    /// Like [`check`](FaultPlan::check) but panics when the armed fault is
    /// [`FaultKind::Panic`]; other kinds are returned for the caller to
    /// act on. Seams that cannot meaningfully tear a write use this.
    pub fn trip(&self, site: &'static str) -> Option<FaultKind> {
        match self.check(site) {
            Some(FaultKind::Panic) => {
                panic!("injected panic at fault site `{site}`")
            }
            other => other,
        }
    }

    /// Hits recorded at `site` so far.
    pub fn hits(&self, site: &str) -> u64 {
        *self.hits.lock().expect("fault hits").get(site).unwrap_or(&0)
    }

    /// Next value of the plan's deterministic splitmix64 stream. Same seed
    /// ⇒ same sequence, independent of thread timing (the call counter is
    /// atomic, so concurrent callers partition one global stream).
    pub fn rng_u64(&self) -> u64 {
        let n = self.rng_calls.fetch_add(1, Ordering::Relaxed);
        splitmix64(&mut self.seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_at_the_armed_hit() {
        let plan = FaultPlan::new(1).fail_at("wal.write", 2, FaultKind::IoError);
        assert_eq!(plan.check("wal.write"), None);
        assert_eq!(plan.check("wal.sync"), None); // independent counter
        assert_eq!(plan.check("wal.write"), None);
        assert_eq!(plan.check("wal.write"), Some(FaultKind::IoError));
        assert_eq!(plan.check("wal.write"), None); // one-shot
        assert_eq!(plan.hits("wal.write"), 4);
        assert_eq!(plan.hits("wal.sync"), 1);
    }

    #[test]
    fn rng_stream_is_pinned_per_seed() {
        // 42 is a fault-matrix seed: its torn-write offsets must never
        // drift between releases.
        let draws = |seed| {
            let plan = FaultPlan::new(seed);
            (0..4).map(|_| plan.rng_u64()).collect::<Vec<u64>>()
        };
        assert_eq!(
            draws(42),
            [13679457532755275413, 2949826092126892291, 5139283748462763858, 6349198060258255764]
        );
        assert_ne!(draws(42), draws(43));
    }

    #[test]
    fn trip_returns_hold_without_panicking() {
        let plan = FaultPlan::new(0).fail_at("coalesce.enqueue", 1, FaultKind::Hold { depth: 3 });
        assert_eq!(plan.trip("coalesce.enqueue"), None);
        assert_eq!(plan.trip("coalesce.enqueue"), Some(FaultKind::Hold { depth: 3 }));
        assert_eq!(plan.hits("coalesce.enqueue"), 2);
    }

    #[test]
    #[should_panic(expected = "injected panic at fault site")]
    fn trip_panics_on_panic_kind() {
        let plan = FaultPlan::new(0).fail_at("coalesce.drain", 0, FaultKind::Panic);
        plan.trip("coalesce.drain");
    }
}
