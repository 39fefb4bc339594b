//! Shared experiment plumbing for the paper tables and benches.

use tvs_circuits::Profile;
use tvs_exec::ThreadPool;
use tvs_netlist::Netlist;
use tvs_stitch::{StitchConfig, StitchEngine, StitchReport};

/// Default gate-count cap applied when building profiles for the paper
/// tables. The stand-in generator preserves the interface (PI/PO/scan
/// length — everything the compression mechanics see) at any scale; capping
/// the logic volume keeps a full table run in CI-friendly time. Override
/// with `tvs bench table <n> --scale <f>` (a multiplier on top of this cap)
/// or `--full`.
pub const DEFAULT_GATE_CAP: usize = 1200;

/// How an experiment was asked to scale its circuits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scaling {
    /// Multiplier applied to the per-profile default scale.
    pub factor: f64,
    /// Build every profile at the full published gate count.
    pub full: bool,
}

impl Default for Scaling {
    fn default() -> Self {
        Scaling {
            factor: 1.0,
            full: false,
        }
    }
}

impl Scaling {
    /// The effective build scale for a profile.
    pub fn effective(&self, profile: &Profile) -> f64 {
        if self.full {
            return 1.0;
        }
        let cap = DEFAULT_GATE_CAP as f64 / profile.gates as f64;
        (cap.min(1.0) * self.factor).clamp(1e-3, 1.0)
    }

    /// Builds the profile's netlist at the effective scale.
    pub fn build(&self, profile: &Profile) -> Netlist {
        profile.build_scaled(self.effective(profile))
    }
}

/// Fans `f` out over the profiles — one worker per circuit profile — and
/// returns the results **in profile order**, so table output is byte-identical
/// at any thread count. At `threads == 1` this degenerates to a plain
/// sequential loop on the calling thread.
pub fn map_profiles<R, F>(profiles: &[Profile], threads: usize, f: F) -> Vec<R>
where
    F: Fn(&Profile) -> R + Sync,
    R: Send,
{
    let pool = ThreadPool::new(threads);
    pool.map(profiles, |_, p| f(p))
}

/// One experiment outcome row.
#[derive(Debug, Clone)]
pub struct RunRow {
    /// Benchmark name.
    pub name: String,
    /// Gate count actually built.
    pub gates: usize,
    /// The stitched run report.
    pub report: StitchReport,
}

/// Runs one stitching configuration against a profile.
///
/// # Panics
///
/// Panics if the profile's circuit cannot be processed (the generator only
/// emits valid circuits, so this indicates an internal error).
pub fn run_profile(profile: &Profile, scaling: &Scaling, config: &StitchConfig) -> RunRow {
    let netlist = scaling.build(profile);
    let gates = netlist.stats().combinational_gates;
    // The "# Panics" contract above: generated profiles are valid by
    // construction, so failure here is an internal bug. lint:allow(SRC005)
    let engine = StitchEngine::new(&netlist).expect("profiles are sequential circuits");
    let report = engine.run(config).expect("engine run"); // lint:allow(SRC005)
    RunRow {
        name: profile.name.to_owned(),
        gates,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_scale_caps_large_profiles() {
        let big = tvs_circuits::profile("s38417").unwrap();
        let small = tvs_circuits::profile("s444").unwrap();
        let s = Scaling::default();
        assert!(s.effective(&big) < 0.1);
        assert_eq!(s.effective(&small), 1.0);
        let full = Scaling {
            full: true,
            ..Scaling::default()
        };
        assert_eq!(full.effective(&big), 1.0);
    }

    #[test]
    fn run_profile_produces_coverage() {
        let p = tvs_circuits::profile("s444").unwrap();
        let row = run_profile(
            &p,
            &Scaling {
                factor: 0.3,
                full: false,
            },
            &Default::default(),
        );
        assert!(row.report.metrics.fault_coverage > 0.9);
        assert!(row.gates > 0);
    }
}
