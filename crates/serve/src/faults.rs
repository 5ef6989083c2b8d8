//! Deterministic fault injection for the aggregation service.
//!
//! Chaos that reproduces: a [`FaultPlan`] is parsed from a compact
//! spec string (CLI `--fail-spec`, env `PROFILEME_FAIL_SPEC`), seeded
//! explicitly, and evaluated against deterministic per-shard message
//! indices — so every recovery path in the supervision layer is
//! exercised by tests that fail the same way every time, not by luck.
//!
//! # Grammar
//!
//! A spec is `;`-separated directives; each directive is a fault kind
//! followed by `:`-separated options:
//!
//! ```text
//! panic:shard=2:nth=3      worker 2 panics on its 3rd message (one-shot)
//! panic:every=100          every 100th message panics (any shard)
//! panic:p=0.01             each message panics with probability 1% (seeded)
//! delay:queue:ms=50        every message is delayed 50 ms (slow consumer)
//! delay:shard=0:nth=2:ms=250   one 250 ms stall on shard 0's 2nd message
//! stall:shard=1:nth=1      worker 1 parks until the service releases it
//! seed=42                  seed for probabilistic triggers and jitter
//! ```
//!
//! Options: `shard=N` restricts a fault to one shard (default: any);
//! exactly one trigger of `nth=N` (one-shot, 1-based), `every=N`
//! (recurring), or `p=F` (per-message probability); `ms=N` is the
//! delay duration; `queue` is shorthand for `every=1`.
//!
//! The plan itself is compiled unconditionally (parsing is plain data
//! and is unit-tested everywhere); the *service* only consults it when
//! the `fault-injection` cargo feature is enabled, so the production
//! ingest path pays nothing.

use profileme_core::ProfileError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// What kind of misbehaviour a directive injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the worker while it processes the message, after
    /// absorbing the first half of a batch, so recovery must undo a
    /// half-applied message.
    Panic,
    /// Sleep for the given duration before processing the message.
    Delay(Duration),
    /// Park the worker until [`ActiveFaults::release_stalled`] — a
    /// worker that never drains, for exercising deadline paths.
    Stall,
}

/// When a fault fires, relative to a shard's message stream.
#[derive(Debug, Clone, Copy)]
pub enum Trigger {
    /// Exactly once, on the shard's `n`th message (1-based).
    Nth(u64),
    /// On every `n`th message.
    Every(u64),
    /// On each message with probability `p`, decided by a hash of
    /// (seed, shard, message index) — deterministic per plan.
    Prob(f64),
}

impl PartialEq for Trigger {
    fn eq(&self, other: &Trigger) -> bool {
        match (self, other) {
            (Trigger::Nth(a), Trigger::Nth(b)) | (Trigger::Every(a), Trigger::Every(b)) => a == b,
            (Trigger::Prob(a), Trigger::Prob(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

/// One injected fault: a kind, an optional shard filter, and a trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// What happens.
    pub kind: FaultKind,
    /// Which shard it applies to (`None` = any shard).
    pub shard: Option<usize>,
    /// When it fires.
    pub trigger: Trigger,
}

/// A parsed, seedable set of faults to inject into a service run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for probabilistic triggers.
    pub seed: u64,
    /// The faults, in directive order (first match wins per message).
    pub faults: Vec<Fault>,
}

/// The action a worker must take for the message it just dequeued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic now (the supervision layer's job is to survive this).
    Panic,
    /// Sleep for the duration, then process normally.
    Delay(Duration),
    /// Park until released, then process normally.
    Stall,
}

fn parse_u64(key: &str, value: &str) -> Result<u64, ProfileError> {
    value.parse().map_err(|_| {
        ProfileError::config(
            "fail_spec",
            format!("`{key}` needs an integer, got `{value}`"),
        )
    })
}

impl std::str::FromStr for FaultPlan {
    type Err = ProfileError;

    fn from_str(spec: &str) -> Result<FaultPlan, ProfileError> {
        let mut plan = FaultPlan::default();
        for directive in spec.split(';').map(str::trim).filter(|d| !d.is_empty()) {
            // `seed=N` (or `seed:N`) is a plan-level option.
            if let Some(rest) = directive
                .strip_prefix("seed=")
                .or_else(|| directive.strip_prefix("seed:"))
            {
                plan.seed = parse_u64("seed", rest)?;
                continue;
            }
            let mut parts = directive.split(':');
            let kind_name = parts.next().unwrap_or_default();
            let (mut shard, mut trigger, mut ms) = (None, None, None);
            let set_trigger = |t: Trigger, trigger: &mut Option<Trigger>| {
                if trigger.replace(t).is_some() {
                    return Err(ProfileError::config(
                        "fail_spec",
                        format!("`{directive}` has more than one trigger (nth/every/p/queue)"),
                    ));
                }
                Ok(())
            };
            for opt in parts {
                match opt.split_once('=') {
                    Some(("shard", v)) => shard = Some(parse_u64("shard", v)? as usize),
                    Some(("nth", v)) => {
                        let n = parse_u64("nth", v)?.max(1);
                        set_trigger(Trigger::Nth(n), &mut trigger)?;
                    }
                    Some(("every", v)) => {
                        let n = parse_u64("every", v)?.max(1);
                        set_trigger(Trigger::Every(n), &mut trigger)?;
                    }
                    Some(("p", v)) => {
                        let p: f64 = v.parse().map_err(|_| {
                            ProfileError::config(
                                "fail_spec",
                                format!("`p` needs a float, got `{v}`"),
                            )
                        })?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(ProfileError::config(
                                "fail_spec",
                                format!("`p` must be in [0, 1], got {p}"),
                            ));
                        }
                        set_trigger(Trigger::Prob(p), &mut trigger)?;
                    }
                    Some(("ms", v)) => ms = Some(parse_u64("ms", v)?),
                    None if opt == "queue" => set_trigger(Trigger::Every(1), &mut trigger)?,
                    _ => {
                        return Err(ProfileError::config(
                            "fail_spec",
                            format!("unknown option `{opt}` in `{directive}`"),
                        ))
                    }
                }
            }
            let trigger = trigger.unwrap_or(Trigger::Nth(1));
            let kind = match kind_name {
                "panic" => FaultKind::Panic,
                "stall" => FaultKind::Stall,
                "delay" => FaultKind::Delay(Duration::from_millis(ms.ok_or_else(|| {
                    ProfileError::config("fail_spec", format!("`{directive}` needs `ms=N`"))
                })?)),
                other => {
                    return Err(ProfileError::config(
                        "fail_spec",
                        format!("unknown fault kind `{other}` (panic|delay|stall|seed)"),
                    ))
                }
            };
            plan.faults.push(Fault {
                kind,
                shard,
                trigger,
            });
        }
        Ok(plan)
    }
}

impl FaultPlan {
    /// Parses a spec string (see the [module docs](self) for the
    /// grammar).
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Config`] naming the offending directive.
    pub fn parse(spec: &str) -> Result<FaultPlan, ProfileError> {
        spec.parse()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Binds the plan to a running service with `shards` workers.
    pub fn activate(self, shards: usize) -> ActiveFaults {
        ActiveFaults {
            messages: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            fired: self.faults.iter().map(|_| AtomicBool::new(false)).collect(),
            released: AtomicBool::new(false),
            plan: self,
        }
    }
}

/// SplitMix64: a statistically solid 64-bit mixer, used for
/// deterministic probabilistic triggers and backoff jitter.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A [`FaultPlan`] bound to a running service: per-shard message
/// counters, one-shot firing state, and the stall release latch.
#[derive(Debug)]
pub struct ActiveFaults {
    plan: FaultPlan,
    /// Messages processed per shard (1-based after `next_message`).
    messages: Vec<AtomicU64>,
    /// One-shot (`nth`) faults that have already fired.
    fired: Vec<AtomicBool>,
    /// Once set, stalled workers resume (service teardown path).
    released: AtomicBool,
}

impl ActiveFaults {
    /// Advances and returns shard `shard`'s 1-based message index.
    /// Called exactly once per dequeued message; retries of the same
    /// message re-evaluate [`action`](ActiveFaults::action) with the
    /// *same* index, so one-shot faults do not re-fire on the retry
    /// while recurring ones do.
    pub fn next_message(&self, shard: usize) -> u64 {
        self.messages[shard].fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The injected action for shard `shard`'s message `idx`, if any.
    /// First matching directive wins.
    pub fn action(&self, shard: usize, idx: u64) -> Option<FaultAction> {
        for (fault, fired) in self.plan.faults.iter().zip(&self.fired) {
            if fault.shard.is_some_and(|s| s != shard) {
                continue;
            }
            let triggers = match fault.trigger {
                Trigger::Nth(n) => idx == n && !fired.swap(true, Ordering::Relaxed),
                Trigger::Every(n) => idx.is_multiple_of(n),
                Trigger::Prob(p) => {
                    let h = mix64(self.plan.seed ^ mix64(shard as u64) ^ idx);
                    (h as f64 / u64::MAX as f64) < p
                }
            };
            if triggers {
                return Some(match fault.kind {
                    FaultKind::Panic => FaultAction::Panic,
                    FaultKind::Delay(d) => FaultAction::Delay(d),
                    FaultKind::Stall => FaultAction::Stall,
                });
            }
        }
        None
    }

    /// Releases every stalled worker (service teardown calls this so
    /// `stall` faults cannot leak threads past the test).
    pub fn release_stalled(&self) {
        self.released.store(true, Ordering::Release);
    }

    /// Whether stalled workers have been released.
    pub fn stall_released(&self) -> bool {
        self.released.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_examples() {
        let plan = FaultPlan::parse("panic:shard=2:nth=3; delay:queue:ms=50; seed=42").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(
            plan.faults,
            vec![
                Fault {
                    kind: FaultKind::Panic,
                    shard: Some(2),
                    trigger: Trigger::Nth(3),
                },
                Fault {
                    kind: FaultKind::Delay(Duration::from_millis(50)),
                    shard: None,
                    trigger: Trigger::Every(1),
                },
            ]
        );
        let plan = FaultPlan::parse("stall:shard=1; panic:every=100; panic:p=0.25").unwrap();
        assert_eq!(plan.faults.len(), 3);
        assert_eq!(plan.faults[0].trigger, Trigger::Nth(1), "default trigger");
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "explode:nth=1",
            "panic:nth=x",
            "delay:nth=1",         // missing ms
            "panic:nth=1:every=2", // two triggers
            "panic:p=1.5",         // out of range
            "panic:wat=1",         // unknown option
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    ProfileError::Config {
                        field: "fail_spec",
                        ..
                    }
                ),
                "`{bad}` should fail with a fail_spec config error, got {err:?}"
            );
        }
    }

    #[test]
    fn nth_fires_once_and_not_on_retry() {
        let active = FaultPlan::parse("panic:shard=0:nth=2").unwrap().activate(2);
        let idx1 = active.next_message(0);
        assert_eq!(active.action(0, idx1), None);
        let idx2 = active.next_message(0);
        assert_eq!(active.action(0, idx2), Some(FaultAction::Panic));
        // The retry of the same message index does not re-fire.
        assert_eq!(active.action(0, idx2), None);
        // Other shards never matched.
        let other = active.next_message(1);
        assert_eq!(active.action(1, other), None);
    }

    #[test]
    fn every_fires_recurringly_including_on_retries() {
        let active = FaultPlan::parse("panic:every=3").unwrap().activate(1);
        let mut fired = 0;
        for _ in 0..9 {
            let idx = active.next_message(0);
            if active.action(0, idx).is_some() {
                // Recurring faults hit the retry too: the message is lost.
                assert_eq!(active.action(0, idx), Some(FaultAction::Panic));
                fired += 1;
            }
        }
        assert_eq!(fired, 3);
    }

    #[test]
    fn prob_is_deterministic_per_seed() {
        let a = FaultPlan::parse("panic:p=0.5;seed=7").unwrap().activate(1);
        let b = FaultPlan::parse("panic:p=0.5;seed=7").unwrap().activate(1);
        let decisions_a: Vec<bool> = (1..=64).map(|i| a.action(0, i).is_some()).collect();
        let decisions_b: Vec<bool> = (1..=64).map(|i| b.action(0, i).is_some()).collect();
        assert_eq!(decisions_a, decisions_b);
        assert!(decisions_a.iter().any(|&d| d));
        assert!(decisions_a.iter().any(|&d| !d));
    }

    #[test]
    fn stall_release_latch() {
        let active = FaultPlan::parse("stall:shard=0:nth=1").unwrap().activate(1);
        assert!(!active.stall_released());
        active.release_stalled();
        assert!(active.stall_released());
    }
}
