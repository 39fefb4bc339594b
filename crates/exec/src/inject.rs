//! Deterministic fault-injection points for chaos testing.
//!
//! Library code plants named *injection points* at interesting failure sites
//! (`inject::fire("stitch.sim.batch")`, hit once per non-empty batch of a
//! stitched cycle's classification, which it fails with the `TaskPanic` a
//! dying pool worker leaves); chaos tests arm those sites with a
//! [`Trigger`] and assert that the forced failure degrades into a typed error
//! or a salvaged partial result — never a process abort. In release builds
//! every entry point here compiles to a no-op that reports "not armed", so
//! shipping code pays nothing for the instrumentation.
//!
//! Determinism contract: sites are keyed either by a *sequential hit counter*
//! ([`fire`]) that callers must advance from exactly one thread (fire on the
//! caller side of a parallel barrier, then pass the decision into workers),
//! or by an explicit *caller-supplied key* ([`fire_at`], [`flip_bit`]) such
//! as a fault index. Both schemes make an injected failure land on the same
//! logical work item at any worker-thread count.

#[cfg(debug_assertions)]
use std::collections::BTreeMap;
#[cfg(debug_assertions)]
use std::sync::{Mutex, OnceLock, PoisonError};

/// When an armed site actually fires: hits `after..after + count` trigger
/// (zero-based), all others pass through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trigger {
    /// Number of hits (or keys, for keyed sites) to let through untouched.
    pub after: u64,
    /// Number of consecutive hits that fire once the window opens.
    pub count: u64,
}

impl Trigger {
    /// Fire on every hit — an injection "storm".
    pub fn always() -> Self {
        Trigger {
            after: 0,
            count: u64::MAX,
        }
    }

    /// Fire exactly once, on the `n`-th hit (zero-based).
    pub fn once_at(n: u64) -> Self {
        Trigger { after: n, count: 1 }
    }

    #[cfg(debug_assertions)]
    fn covers(&self, hit: u64) -> bool {
        hit >= self.after && hit - self.after < self.count
    }
}

#[cfg(debug_assertions)]
struct Site {
    trigger: Trigger,
    hits: u64,
    fired: u64,
}

#[cfg(debug_assertions)]
fn registry() -> &'static Mutex<BTreeMap<String, Site>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Site>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

#[cfg(debug_assertions)]
fn with_registry<R>(f: impl FnOnce(&mut BTreeMap<String, Site>) -> R) -> R {
    // A panicking test can poison this lock (a failed assertion between
    // arm/disarm); the map itself is always consistent, so recover instead
    // of cascading.
    let mut guard = registry().lock().unwrap_or_else(PoisonError::into_inner);
    f(&mut guard)
}

/// Arms `site` with `trigger`. Re-arming resets the hit counters. No-op in
/// release builds.
pub fn arm(site: &str, trigger: Trigger) {
    #[cfg(debug_assertions)]
    with_registry(|map| {
        map.insert(
            site.to_owned(),
            Site {
                trigger,
                hits: 0,
                fired: 0,
            },
        );
    });
    #[cfg(not(debug_assertions))]
    {
        let _ = (site, trigger);
    }
}

/// Disarms every site and clears all counters. Chaos tests call this before
/// and after each scenario so sites never leak between tests.
pub fn disarm_all() {
    #[cfg(debug_assertions)]
    with_registry(|map| map.clear());
}

/// Advances `site`'s sequential hit counter and reports whether this hit
/// falls inside the armed trigger window. Always `false` when the site is
/// not armed, and always `false` in release builds.
///
/// Call this from exactly one thread per pipeline (typically the caller side
/// of a parallel barrier) so the hit sequence is deterministic.
pub fn fire(site: &str) -> bool {
    #[cfg(debug_assertions)]
    {
        with_registry(|map| match map.get_mut(site) {
            Some(s) => {
                let hit = s.hits;
                s.hits += 1;
                let firing = s.trigger.covers(hit);
                if firing {
                    s.fired += 1;
                }
                firing
            }
            None => false,
        })
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = site;
        false
    }
}

/// Like [`fire`], but stateless with respect to ordering: the trigger window
/// is evaluated against the caller-supplied `key` (e.g. a fault index)
/// instead of a hit counter, so the decision is identical no matter how work
/// items are scheduled.
pub fn fire_at(site: &str, key: u64) -> bool {
    #[cfg(debug_assertions)]
    {
        with_registry(|map| match map.get_mut(site) {
            Some(s) => {
                let firing = s.trigger.covers(key);
                if firing {
                    s.fired += 1;
                }
                firing
            }
            None => false,
        })
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (site, key);
        false
    }
}

/// For an armed corruption site, returns the bit position to flip in a
/// `len`-bit word identified by `key` — a deterministic pseudo-random
/// function of `(site, key)` — or `None` when the site is not armed, the
/// key is outside the trigger window, `len` is zero, or this is a release
/// build.
pub fn flip_bit(site: &str, key: u64, len: usize) -> Option<usize> {
    #[cfg(debug_assertions)]
    {
        if len == 0 || !fire_at(site, key) {
            return None;
        }
        let mut x = key ^ 0x9e37_79b9_7f4a_7c15;
        for b in site.bytes() {
            x = (x ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        // SplitMix64 finalizer for good low-bit diffusion.
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        Some((x % len as u64) as usize)
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (site, key, len);
        None
    }
}

/// Number of times `site` actually fired since it was last armed (always 0
/// in release builds or for unarmed sites).
pub fn fired_count(site: &str) -> u64 {
    #[cfg(debug_assertions)]
    {
        with_registry(|map| map.get(site).map_or(0, |s| s.fired))
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = site;
        0
    }
}

/// The message of an injected failure at `site` — chaos tests match
/// salvaged error messages against this.
pub fn panic_message(site: &str) -> String {
    format!("injected failure at {site}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock, PoisonError};

    // The registry is process-global; tests in this module serialize on it.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn unarmed_sites_never_fire() {
        let _guard = locked();
        disarm_all();
        assert!(!fire("nope"));
        assert!(!fire_at("nope", 7));
        assert_eq!(flip_bit("nope", 0, 8), None);
        assert_eq!(fired_count("nope"), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn sequential_trigger_window() {
        let _guard = locked();
        disarm_all();
        arm("t.seq", Trigger { after: 2, count: 2 });
        let hits: Vec<bool> = (0..5).map(|_| fire("t.seq")).collect();
        assert_eq!(hits, vec![false, false, true, true, false]);
        assert_eq!(fired_count("t.seq"), 2);
        disarm_all();
    }

    #[test]
    #[cfg(debug_assertions)]
    fn keyed_trigger_is_order_independent() {
        let _guard = locked();
        disarm_all();
        arm("t.key", Trigger::once_at(3));
        assert!(!fire_at("t.key", 5));
        assert!(fire_at("t.key", 3));
        assert!(!fire_at("t.key", 0));
        assert!(fire_at("t.key", 3));
        disarm_all();
    }

    #[test]
    #[cfg(debug_assertions)]
    fn flip_bit_is_deterministic_and_in_range() {
        let _guard = locked();
        disarm_all();
        arm("t.flip", Trigger::always());
        let a = flip_bit("t.flip", 11, 64);
        let b = flip_bit("t.flip", 11, 64);
        assert_eq!(a, b);
        assert!(a.is_some_and(|bit| bit < 64));
        assert_eq!(flip_bit("t.flip", 11, 0), None);
        disarm_all();
    }

    #[test]
    #[cfg(debug_assertions)]
    fn rearming_resets_counters() {
        let _guard = locked();
        disarm_all();
        arm("t.rearm", Trigger::once_at(0));
        assert!(fire("t.rearm"));
        assert!(!fire("t.rearm"));
        arm("t.rearm", Trigger::once_at(0));
        assert!(fire("t.rearm"));
        disarm_all();
    }
}
