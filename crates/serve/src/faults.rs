//! Deterministic fault injection for chaos testing the serving stack.
//!
//! Compiled in only with the `fault-inject` cargo feature; production
//! builds carry zero injection overhead because every call site is cfg'd
//! out. The registry is a process-global *plan*: a chaos test arms one or
//! more [`Site`]s with a [`Trigger`], runs traffic, and asserts the server
//! degraded exactly as designed — structured errors for the poisoned
//! sessions, byte-identical output for healthy ones, clean drain at the
//! end.
//!
//! Determinism is the point. Probabilistic triggers draw from a
//! [`Pcg32`](chipalign_tensor::rng::Pcg32) stream derived from the scope
//! seed, so a failing chaos run replays bit-for-bit from its seed — no
//! wall-clock, no thread-id entropy.
//!
//! # Usage
//!
//! ```ignore
//! let _scope = faults::scope(42); // exclusive; resets the plan on drop
//! faults::arm(Site::WorkerPanic, Some("poison-model"), Trigger::Once(1));
//! // ... drive the server; the first decode slice for `poison-model`
//! // panics, everything else proceeds normally ...
//! ```
//!
//! Scopes serialize chaos tests through a global lock, so `cargo test`
//! can run the chaos suite with its default parallel harness.
//!
//! # Cross-thread tag isolation
//!
//! The registry is process-global, and one scope's plan is shared by every
//! thread in the process — which is exactly what fleet chaos tests need:
//! they spawn whole server replicas as threads inside a single scope and
//! must be able to kill *one* replica without wobbling the others. The
//! contract is:
//!
//! 1. **Scopes are exclusive.** Only one [`FaultScope`] exists at a time;
//!    a second `scope()` call (from any thread) blocks until the first is
//!    dropped. A scope's plan is therefore never mutated by another test.
//! 2. **Rules with distinct tags are independent.** Each rule keeps its
//!    own hit counter and PCG stream, and a [`should_fire`] call only
//!    advances rules whose site matches *and* whose tag filter matches the
//!    call's tag exactly. Threads hammering different tags concurrently
//!    can never consume each other's hits, so per-tag [`Trigger::Once`] /
//!    [`Trigger::From`] positions hold regardless of thread interleaving.
//! 3. **Untagged rules (`tag: None`) see every matching-site hit** from
//!    every thread, so their hit order — and thus `Once`/`From` firing
//!    position — depends on thread scheduling. Multi-threaded tests that
//!    need deterministic positions must use tagged rules (the fleet suite
//!    tags sessions `"<instance>/<model>"` so each replica is its own
//!    blast radius) or constrain hit order structurally (single worker).
//!
//! Guarantee 2 is load-bearing for the fleet chaos suite and pinned by
//! `concurrent_threads_with_distinct_tags_fire_independently` below.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use chipalign_tensor::rng::Pcg32;

/// A code location where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Panic inside a decode slice (exercises `catch_unwind` isolation).
    WorkerPanic,
    /// Panic in the worker loop *outside* the slice guard, killing the
    /// worker thread outright (exercises respawn).
    WorkerDeath,
    /// Make a scheduled slice produce zero tokens (exercises the
    /// stall watchdog).
    SessionStall,
    /// Fail a registry model materialization with an injected error.
    RegistryResolve,
    /// Poison a freshly merged checkpoint with a NaN before validation
    /// (exercises non-finite rejection on the merge path).
    MergePoison,
    /// Abandon a submitted session from the server side as if the client
    /// hung up (exercises orphaned-session accounting).
    ClientDisconnect,
    /// Panic inside the speculative draft phase (exercises the
    /// draft-isolation guarantee: speculation dies, the session survives
    /// on plain decoding with unchanged output).
    SpecDraft,
}

/// When an armed [`Site`] actually fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Never fires (explicitly disarmed).
    Never,
    /// Fires on every hit.
    Always,
    /// Fires only on the `n`-th hit (1-based).
    Once(u64),
    /// Fires on the `n`-th hit (1-based) and every hit after it.
    From(u64),
    /// Fires independently with probability `p` per hit, drawn from the
    /// scope's seeded PCG stream.
    Chance(f32),
}

/// One armed rule: a site, an optional tag filter, and a trigger.
#[derive(Debug)]
struct Rule {
    site: Site,
    /// `None` matches any tag; `Some(t)` only fires for hits tagged `t`
    /// (tags are model keys or session tags, chosen per site).
    tag: Option<String>,
    trigger: Trigger,
    /// Hits observed so far (matched by site+tag, whether or not fired).
    hits: u64,
    rng: Pcg32,
}

#[derive(Debug, Default)]
struct Plan {
    rules: Vec<Rule>,
    seed: u64,
}

fn plan() -> MutexGuard<'static, Plan> {
    static PLAN: OnceLock<Mutex<Plan>> = OnceLock::new();
    PLAN.get_or_init(|| Mutex::new(Plan::default()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive handle over the global fault plan; dropping it disarms
/// everything. Obtain via [`scope`].
pub struct FaultScope {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        let mut p = plan();
        p.rules.clear();
        p.seed = 0;
    }
}

/// Opens an exclusive fault-injection scope seeded with `seed`.
///
/// Blocks until any other scope (e.g. a concurrently running chaos test)
/// is dropped, then resets the plan. All [`Trigger::Chance`] draws inside
/// the scope derive from `seed`, so runs replay deterministically.
#[must_use = "the scope disarms all faults when dropped"]
pub fn scope(seed: u64) -> FaultScope {
    static SCOPE: Mutex<()> = Mutex::new(());
    let guard = SCOPE.lock().unwrap_or_else(PoisonError::into_inner);
    let mut p = plan();
    p.rules.clear();
    p.seed = seed;
    drop(p);
    FaultScope { _guard: guard }
}

/// Arms `site` with `trigger`, firing only for hits tagged `tag`
/// (or all hits when `tag` is `None`).
///
/// Multiple rules may be armed at once; each keeps an independent hit
/// counter and PCG stream (derived from the scope seed and rule index).
pub fn arm(site: Site, tag: Option<&str>, trigger: Trigger) {
    let mut p = plan();
    let idx = p.rules.len() as u64;
    let rng = Pcg32::seed(p.seed).derive(idx);
    p.rules.push(Rule {
        site,
        tag: tag.map(str::to_string),
        trigger,
        hits: 0,
        rng,
    });
}

/// Reports whether an armed fault at `site` fires for this hit.
///
/// Every production injection site calls this (under `cfg(feature =
/// "fault-inject")`) with its site and the tag of the work item at hand.
/// Each matching rule's hit counter advances exactly once per call, so
/// [`Trigger::Once`] semantics are stable regardless of thread
/// interleaving *given* a deterministic hit order (which the chaos tests
/// arrange via single-worker schedulers or per-tag rules).
#[must_use]
pub(crate) fn should_fire(site: Site, tag: &str) -> bool {
    let mut p = plan();
    let mut fire = false;
    for rule in &mut p.rules {
        if rule.site != site {
            continue;
        }
        if let Some(t) = &rule.tag {
            if t != tag {
                continue;
            }
        }
        rule.hits += 1;
        let hit = rule.hits;
        fire |= match rule.trigger {
            Trigger::Never => false,
            Trigger::Always => true,
            Trigger::Once(n) => hit == n,
            Trigger::From(n) => hit >= n,
            Trigger::Chance(prob) => rule.rng.chance(prob),
        };
    }
    fire
}

/// Number of hits the first rule armed for `site` has observed (for test
/// assertions about how often an injection point was reached).
#[must_use]
pub fn hits(site: Site) -> u64 {
    plan()
        .rules
        .iter()
        .find(|r| r.site == site)
        .map_or(0, |r| r.hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_never_fire() {
        let _scope = scope(1);
        assert!(!should_fire(Site::WorkerPanic, "any"));
        assert!(!should_fire(Site::MergePoison, "any"));
    }

    #[test]
    fn once_fires_exactly_on_nth_hit() {
        let _scope = scope(2);
        arm(Site::WorkerPanic, None, Trigger::Once(3));
        assert!(!should_fire(Site::WorkerPanic, "a"));
        assert!(!should_fire(Site::WorkerPanic, "a"));
        assert!(should_fire(Site::WorkerPanic, "a"));
        assert!(!should_fire(Site::WorkerPanic, "a"));
        assert_eq!(hits(Site::WorkerPanic), 4);
    }

    #[test]
    fn tag_filter_scopes_the_blast_radius() {
        let _scope = scope(3);
        arm(Site::SessionStall, Some("poison"), Trigger::Always);
        assert!(!should_fire(Site::SessionStall, "healthy"));
        assert!(should_fire(Site::SessionStall, "poison"));
        assert!(!should_fire(Site::SessionStall, "healthy"));
    }

    #[test]
    fn from_fires_nth_hit_onward() {
        let _scope = scope(4);
        arm(Site::RegistryResolve, None, Trigger::From(2));
        assert!(!should_fire(Site::RegistryResolve, "m"));
        assert!(should_fire(Site::RegistryResolve, "m"));
        assert!(should_fire(Site::RegistryResolve, "m"));
    }

    #[test]
    fn chance_replays_deterministically_from_seed() {
        let draws = |seed: u64| -> Vec<bool> {
            let _scope = scope(seed);
            arm(Site::ClientDisconnect, None, Trigger::Chance(0.5));
            (0..32)
                .map(|_| should_fire(Site::ClientDisconnect, "x"))
                .collect()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8), "different seeds must diverge");
    }

    #[test]
    fn scope_drop_disarms_everything() {
        {
            let _scope = scope(5);
            arm(Site::WorkerDeath, None, Trigger::Always);
            assert!(should_fire(Site::WorkerDeath, "w"));
        }
        let _scope = scope(6);
        assert!(!should_fire(Site::WorkerDeath, "w"));
    }

    #[test]
    fn multiple_rules_keep_independent_counters() {
        let _scope = scope(9);
        arm(Site::WorkerPanic, Some("a"), Trigger::Once(1));
        arm(Site::WorkerPanic, Some("b"), Trigger::Once(2));
        assert!(should_fire(Site::WorkerPanic, "a"));
        assert!(!should_fire(Site::WorkerPanic, "b"));
        assert!(should_fire(Site::WorkerPanic, "b"));
    }

    #[test]
    fn concurrent_threads_with_distinct_tags_fire_independently() {
        // The fleet chaos suite's load-bearing guarantee: replicas running
        // as threads inside one scope, each hammering its own tag, must
        // observe their Once positions exactly — no thread interleaving
        // can make one replica's hits consume another's trigger.
        use std::sync::Barrier;

        let _scope = scope(10);
        arm(Site::WorkerDeath, Some("r0/model"), Trigger::Once(3));
        arm(Site::WorkerDeath, Some("r1/model"), Trigger::Once(5));

        let barrier = std::sync::Arc::new(Barrier::new(2));
        let threads: Vec<_> = [("r0/model", 3u64), ("r1/model", 5u64)]
            .into_iter()
            .map(|(tag, expect_at)| {
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let fired: Vec<u64> = (1u64..=8)
                        .filter(|_| should_fire(Site::WorkerDeath, tag))
                        .collect();
                    (tag, expect_at, fired)
                })
            })
            .collect();
        for t in threads {
            let (tag, expect_at, fired) = t.join().expect("tag thread");
            assert_eq!(
                fired,
                vec![expect_at],
                "{tag} must fire exactly once at its own hit position"
            );
        }
        // An unrelated tag consumed nothing from either rule.
        assert!(!should_fire(Site::WorkerDeath, "r2/model"));
    }

    #[test]
    fn second_scope_blocks_until_first_drops() {
        // One-directional safety check on scope exclusivity: a thread
        // asking for a scope while one is held must not get it until the
        // holder drops. (The FaultScope guard is !Send, so exclusivity is
        // over scopes, not threads — a second thread simply waits.)
        use std::sync::atomic::{AtomicBool, Ordering};

        let first = scope(11);
        arm(Site::SessionStall, Some("held"), Trigger::Always);
        let entered = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&entered);
        let waiter = std::thread::spawn(move || {
            let _inner = scope(12);
            flag.store(true, Ordering::SeqCst);
            // The fresh scope reset the plan: the first scope's rule is
            // gone by the time we get here.
            assert!(!should_fire(Site::SessionStall, "held"));
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !entered.load(Ordering::SeqCst),
            "the second scope must wait for the first"
        );
        assert!(should_fire(Site::SessionStall, "held"));
        drop(first);
        waiter.join().expect("waiter");
        assert!(entered.load(Ordering::SeqCst));
    }
}
