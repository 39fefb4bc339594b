//! The pluggable strategy layer over the cycle pipeline.
//!
//! A [`Strategy`] owns every knob the paper varies between its columns —
//! deterministic fault ordering, whether candidates are greedily scored,
//! and the shift-size schedule — plus a stable fingerprint that feeds
//! [`StitchConfig::fingerprint`](crate::StitchConfig::fingerprint) (and
//! through it the snapshot header and the serving layer's `ArtifactKey`).
//!
//! The paper's four §6.3 selection behaviors (random, hardness, most
//! faults, weighted) are one trait impl, bit-identical to the closed-enum
//! engine it replaced: they touch neither the run PRNG (beyond the draws
//! the old code made) nor the budget during [`Strategy::prepare`], so
//! their result streams are unchanged. Three new strategies ride on the
//! same surface:
//!
//! * [`StrategyId::Adi`] — accidental-detection-index ordering (Pomeranz/
//!   Reddy, arXiv:0710.4637): a seeded random fault-sim pass counts how
//!   often each fault is detected *by accident*; constrained ATPG then
//!   targets the rarely-hit faults first, since the frequently-hit ones
//!   fall out fortuitously anyway.
//! * [`StrategyId::SchemeSearch`] — evolutionary scheme search (Polian et
//!   al., arXiv:0710.4670): a seeded, budget-charged evolutionary loop
//!   tunes the `Variable` shift-schedule rationals per circuit and emits
//!   the winning genome deterministically as the strategy cursor.
//! * [`StrategyId::Buckets`] — hardness-bucketed escalation: SCOAP
//!   hardness terciles order the targets, and the shift size escalates
//!   per-bucket (easy faults at small shifts, hard faults allowed the full
//!   cap) instead of globally. Growth stays monotone, which keeps eager
//!   caught-classification sound (see [`ShiftPolicy`]).
//!
//! Strategy state that must survive a checkpoint (ADI counts, the winning
//! genome, the active bucket) lives in an opaque `Vec<u64>` cursor carried
//! by the snapshot; impls validate the cursor at every use so a forged
//! snapshot degrades to defaults instead of panicking.

use tvs_exec::Budget;
use tvs_logic::{BitVec, Prng};
use tvs_netlist::{Netlist, ScanView};

use tvs_fault::{Fault, FaultSim, Scoap, SimSession, SlotSpec};

use crate::policy::Ratio;
use crate::{FaultSets, ShiftPolicy};

/// The borrowed slice of run state a strategy decision sees.
///
/// Everything here is a disjoint borrow of `RunState` fields: immutable
/// views of the circuit and fault state, plus the three mutable streams a
/// strategy may legitimately drive — the run PRNG (legacy `Random`
/// ordering), the work budget (every prepare-phase simulation is charged),
/// and the strategy's own cursor.
pub struct StrategyCtx<'c> {
    /// The circuit under test.
    pub netlist: &'c Netlist,
    /// Its scan view (PI/PO/chain widths).
    pub view: &'c ScanView,
    /// SCOAP testability, precomputed once per run.
    pub scoap: &'c Scoap,
    /// The tracked fault sets (`f_u`/`f_h`/`f_c`).
    pub sets: &'c FaultSets,
    /// The configured shift policy (strategies may delegate or derive).
    pub policy: &'c ShiftPolicy,
    /// The run seed (strategies derive their own decoupled streams).
    pub seed: u64,
    /// Scan chain length `L`.
    pub scan_len: usize,
    /// Current shift size `k`.
    pub k: usize,
    /// The run PRNG. Only the legacy `Random` ordering draws from it —
    /// new strategies use seed-derived private streams so their prepare
    /// phase cannot perturb the shared stream.
    pub rng: &'c mut Prng,
    /// The run's work budget; prepare-phase simulation charges here.
    pub budget: &'c mut Budget,
    /// The strategy's persistent cursor (checkpointed verbatim).
    pub cursor: &'c mut Vec<u64>,
}

impl StrategyCtx<'_> {
    fn hardness(&self, target: usize) -> u64 {
        self.scoap
            .fault_hardness(self.netlist, &self.sets.fault(target))
    }
}

/// One pluggable strategy over the cycle pipeline.
///
/// Implementations must be deterministic: any randomness comes from the
/// context's run PRNG or a stream derived from the config seed, and any
/// meaningful work is charged to the context's budget. State that must
/// survive checkpoint/resume goes in the cursor returned by
/// [`prepare`](Strategy::prepare).
pub trait Strategy: Send + Sync {
    /// The strategy's CLI/wire name.
    fn name(&self) -> &'static str;

    /// A float-free, stable text rendering for the config fingerprint.
    /// Changing a strategy's semantics must change this text, so stale
    /// snapshots and cache artifacts are invalidated.
    fn fingerprint_text(&self) -> String;

    /// Whether the selection stage scores multiple candidates per cycle
    /// (greedy) or takes the first constrained-ATPG success.
    fn is_greedy(&self) -> bool {
        false
    }

    /// Whether greedy scoring weights each caught fault by its SCOAP
    /// hardness (the paper's `Weighted` column).
    fn weighted_scoring(&self) -> bool {
        false
    }

    /// One-time cold-start work after the prescreen; returns the cursor.
    /// Not called on resume — the snapshot restores the cursor instead.
    fn prepare(&self, _ctx: &mut StrategyCtx<'_>) -> Vec<u64> {
        Vec::new()
    }

    /// The shift size for the first stitched cycle.
    fn initial_shift(&self, ctx: &mut StrategyCtx<'_>) -> usize {
        ctx.policy.initial(ctx.scan_len)
    }

    /// The next (strictly larger) shift size once the current one is
    /// exhausted, or `None` to hand the leftovers to the fallback phase.
    /// Must be monotone — a shrinking shift would unsound the engine's
    /// eager caught-classification.
    fn escalate(&self, ctx: &mut StrategyCtx<'_>) -> Option<usize> {
        ctx.policy.escalate(ctx.scan_len, ctx.k)
    }

    /// Orders the current constrained-ATPG target list in place. `targets`
    /// arrives in ascending tracked-index order with never-target faults
    /// already removed; all sorting must be stable so ties break by index
    /// at any thread count.
    fn order_targets(&self, ctx: &mut StrategyCtx<'_>, targets: &mut Vec<usize>);
}

/// Identifier of a [`Strategy`], carried by
/// [`StitchConfig`](crate::StitchConfig).
///
/// The paper's four §6.3 selection behaviors and the three strategy-layer
/// additions each get one variant. The identifier
/// (not the trait object) is what configs store, wires serialize and
/// fingerprints hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StrategyId {
    /// A legacy selection strategy (paper §6.3) with the configured shift
    /// policy. The default is the paper's winning `MostFaults`.
    #[default]
    MostFaults,
    /// Legacy random ordering.
    Random,
    /// Legacy hardest-first ordering.
    Hardness,
    /// Legacy greedy scoring with hardness weights.
    Weighted,
    /// Accidental-detection-index ordering (Pomeranz/Reddy).
    Adi,
    /// Evolutionary shift-schedule search (Polian et al.).
    SchemeSearch,
    /// SCOAP-bucketed per-bucket escalation.
    Buckets,
}

/// Every strategy, in the canonical sweep order (legacy first).
pub const ALL_STRATEGIES: [StrategyId; 7] = [
    StrategyId::Random,
    StrategyId::Hardness,
    StrategyId::MostFaults,
    StrategyId::Weighted,
    StrategyId::Adi,
    StrategyId::SchemeSearch,
    StrategyId::Buckets,
];

impl StrategyId {
    /// Parses a CLI/wire strategy name.
    pub fn parse(name: &str) -> Option<StrategyId> {
        match name {
            "random" => Some(StrategyId::Random),
            "hardness" => Some(StrategyId::Hardness),
            "most" => Some(StrategyId::MostFaults),
            "weighted" => Some(StrategyId::Weighted),
            "adi" => Some(StrategyId::Adi),
            "scheme-search" => Some(StrategyId::SchemeSearch),
            "buckets" => Some(StrategyId::Buckets),
            _ => None,
        }
    }

    /// The CLI/wire name.
    pub fn name(&self) -> &'static str {
        self.resolve().name()
    }

    /// The strategy implementation behind this identifier.
    pub fn resolve(&self) -> &'static dyn Strategy {
        match self {
            StrategyId::Random => &SelectOrdering(StrategyId::Random),
            StrategyId::Hardness => &SelectOrdering(StrategyId::Hardness),
            StrategyId::MostFaults => &SelectOrdering(StrategyId::MostFaults),
            StrategyId::Weighted => &SelectOrdering(StrategyId::Weighted),
            StrategyId::Adi => &AdiOrdering,
            StrategyId::SchemeSearch => &SchemeSearch,
            StrategyId::Buckets => &HardnessBuckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Legacy behaviors through the trait (bit-identical to the closed enums).
// ---------------------------------------------------------------------------

/// The four paper-§6.3 behaviors, keyed by their id. Only `Random`,
/// `Hardness`, `MostFaults` and `Weighted` resolve here, so every `_` arm
/// below is `MostFaults`.
struct SelectOrdering(StrategyId);

impl Strategy for SelectOrdering {
    fn name(&self) -> &'static str {
        match self.0 {
            StrategyId::Random => "random",
            StrategyId::Hardness => "hardness",
            StrategyId::Weighted => "weighted",
            _ => "most",
        }
    }

    fn fingerprint_text(&self) -> String {
        format!("select:{}", self.name())
    }

    fn is_greedy(&self) -> bool {
        !matches!(self.0, StrategyId::Random | StrategyId::Hardness)
    }

    fn weighted_scoring(&self) -> bool {
        self.0 == StrategyId::Weighted
    }

    fn order_targets(&self, ctx: &mut StrategyCtx<'_>, targets: &mut Vec<usize>) {
        match self.0 {
            StrategyId::Random => ctx.rng.shuffle(targets),
            // Hardness/Weighted: hard faults get first claim on the still-
            // loose constraint (the paper's §6.3 rationale).
            StrategyId::Hardness | StrategyId::Weighted => {
                targets.sort_by_key(|&i| std::cmp::Reverse(ctx.hardness(i)));
            }
            // MostFaults: candidates come from easy targets first — they
            // are the ones likely to admit tests under a tight constraint
            // (the paper's §6.1: "easy-to-test faults dominate" the early,
            // small-shift stage), and the greedy scoring then picks the
            // best of the pool.
            _ => {
                targets.sort_by_key(|&i| ctx.hardness(i));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ADI ordering (Pomeranz/Reddy, arXiv:0710.4637).
// ---------------------------------------------------------------------------

/// Random patterns simulated during the ADI prepare pass.
const ADI_PATTERNS: usize = 16;
/// Seed salt decoupling the ADI pattern stream from the run PRNG.
const ADI_SALT: u64 = 0x41444926_u64; // "ADI&"

struct AdiOrdering;

impl AdiOrdering {
    /// Per-fault accidental-detection counts over a seeded random-pattern
    /// fault-sim pass (full observation: any output difference counts).
    /// All [`ADI_PATTERNS`] patterns share one pattern-parallel sweep per
    /// fault, so a count is the popcount of the fault's detection mask.
    fn detection_counts(ctx: &mut StrategyCtx<'_>) -> Vec<u64> {
        let faults: Vec<Fault> = (0..ctx.sets.len()).map(|i| ctx.sets.fault(i)).collect();
        let mut rng = Prng::seed_from_u64(ctx.seed ^ ADI_SALT);
        let patterns: Vec<BitVec> = (0..ADI_PATTERNS)
            .map(|_| {
                ctx.budget.charge(faults.len() as u64);
                (0..ctx.view.input_count())
                    .map(|_| rng.next_bool())
                    .collect()
            })
            .collect();
        let mut session = SimSession::new(ctx.netlist, ctx.view);
        let masks = match session.detect_patterns(&patterns, &faults) {
            Ok(masks) => masks,
            Err(_) => unreachable!("16 view-width patterns per sweep"),
        };
        masks.iter().map(|m| u64::from(m.count_ones())).collect()
    }
}

impl Strategy for AdiOrdering {
    fn name(&self) -> &'static str {
        "adi"
    }

    fn fingerprint_text(&self) -> String {
        format!("adi:p{ADI_PATTERNS}")
    }

    fn prepare(&self, ctx: &mut StrategyCtx<'_>) -> Vec<u64> {
        Self::detection_counts(ctx)
    }

    fn order_targets(&self, ctx: &mut StrategyCtx<'_>, targets: &mut Vec<usize>) {
        // Rarely-accidentally-detected faults first: they need explicit
        // targeting, while high-ADI faults fall out as side effects of
        // whatever vectors get applied. A forged/short cursor degrades to
        // count 0 (highest priority), never out-of-bounds.
        targets.sort_by_key(|&i| ctx.cursor.get(i).copied().unwrap_or(0));
    }
}

// ---------------------------------------------------------------------------
// Evolutionary scheme search (Polian et al., arXiv:0710.4670).
// ---------------------------------------------------------------------------

/// Population per generation.
const SCHEME_POP: usize = 8;
/// Generations after the initial population.
const SCHEME_GENS: usize = 4;
/// Fault-sample cap per fitness evaluation.
const SCHEME_SAMPLE: usize = 128;
/// Random probe vectors shared by every fitness evaluation.
const SCHEME_VECTORS: usize = 4;
/// Seed salt decoupling the search stream from the run PRNG.
const SCHEME_SALT: u64 = 0x5343484D_u64; // "SCHM"

struct SchemeSearch;

/// A shift-schedule genome: `[start_num, start_den, growth_num,
/// growth_den, max_num, max_den]` — exactly the cursor layout.
type Genome = [u64; 6];

fn genome_policy(genome: &[u64]) -> Option<ShiftPolicy> {
    if genome.len() != 6 || genome[1] == 0 || genome[3] == 0 || genome[5] == 0 {
        return None;
    }
    let start = Ratio {
        num: genome[0],
        den: genome[1],
    };
    let growth = Ratio {
        num: genome[2],
        den: genome[3],
    };
    let max = Ratio {
        num: genome[4],
        den: genome[5],
    };
    if !start.is_proper() || !growth.exceeds_one() || !max.is_proper() || !max.ge(&start) {
        return None;
    }
    Some(ShiftPolicy::Variable { start, growth, max })
}

/// Fitness memo keyed by `(k0, cap)` — the only genome features the
/// probe-based fitness can see.
type Memo = Vec<((usize, usize), u128)>;

impl SchemeSearch {
    /// The schedule the cursor genome encodes, falling back to the
    /// configured policy when the cursor is absent or forged.
    fn schedule(ctx: &StrategyCtx<'_>) -> ShiftPolicy {
        genome_policy(ctx.cursor).unwrap_or(*ctx.policy)
    }

    /// Memoized fitness of one genome (invalid genomes score zero).
    fn evaluate(
        g: &Genome,
        ctx: &mut StrategyCtx<'_>,
        probes: &[BitVec],
        sample: &[Fault],
        goods: &[BitVec],
        memo: &mut Memo,
        allowance: u64,
    ) -> u128 {
        let policy = match genome_policy(g) {
            Some(p) => p,
            None => return 0,
        };
        let key = (policy.initial(ctx.scan_len), policy.cap(ctx.scan_len));
        if let Some(&(_, f)) = memo.iter().find(|&&(k, _)| k == key) {
            return f;
        }
        // Search spend is capped: once the allowance is gone, unevaluated
        // schedules score zero instead of starving the run being tuned.
        if ctx.budget.spent() >= allowance {
            return 0;
        }
        let f = Self::fitness(&policy, ctx, probes, sample, goods);
        memo.push((key, f));
        f
    }

    /// A random valid genome mutation of `parent` (deterministic in `rng`).
    fn mutate(parent: &Genome, rng: &mut Prng) -> Genome {
        let mut g = *parent;
        for _ in 0..8 {
            match rng.gen_range(0..3) {
                // start = 1/d, d ∈ 2..=16.
                0 => {
                    g[0] = 1;
                    g[1] = rng.gen_range(2..17) as u64;
                }
                // growth ∈ {3/2, 2/1, 5/2, 3/1}.
                1 => {
                    let (n, d) = [(3, 2), (2, 1), (5, 2), (3, 1)][rng.gen_range(0..4)];
                    g[2] = n;
                    g[3] = d;
                }
                // max ∈ {1/4, 1/3, 1/2, 2/3}.
                _ => {
                    let (n, d) = [(1, 4), (1, 3), (1, 2), (2, 3)][rng.gen_range(0..4)];
                    g[4] = n;
                    g[5] = d;
                }
            }
            if genome_policy(&g).is_some() {
                return g;
            }
            // Rare invalid combination (e.g. max < start): retry a bounded
            // number of times, then keep the parent.
            g = *parent;
        }
        *parent
    }

    /// Fitness of one schedule: estimated catches-per-memory-bit at both
    /// ends of the schedule (the opening shift size and the escalation
    /// cap), integer-scaled. A fault counts as caught at shift `k` when a
    /// probe vector differentiates it at a PO or inside the `k`-bit
    /// response window the next shift would expose.
    fn fitness(
        policy: &ShiftPolicy,
        ctx: &mut StrategyCtx<'_>,
        probes: &[BitVec],
        sample: &[Fault],
        goods: &[BitVec],
    ) -> u128 {
        let l = ctx.scan_len;
        let k0 = policy.initial(l);
        let cap = policy.cap(l);
        Self::window_score(k0, ctx, probes, sample, goods) * 2
            + Self::window_score(cap, ctx, probes, sample, goods)
    }

    fn window_score(
        k: usize,
        ctx: &mut StrategyCtx<'_>,
        probes: &[BitVec],
        sample: &[Fault],
        goods: &[BitVec],
    ) -> u128 {
        let (q, l) = (ctx.view.po_count(), ctx.scan_len);
        let p = ctx.view.pi_count();
        let watched: Vec<usize> = (0..q).chain(q + l.saturating_sub(k)..q + l).collect();
        let mut fsim = FaultSim::new(ctx.netlist, ctx.view);
        let mut caught = 0u128;
        for (probe, good) in probes.iter().zip(goods) {
            ctx.budget.charge(sample.len() as u64);
            for chunk in sample.chunks(63) {
                let slots: Vec<SlotSpec<'_>> = chunk
                    .iter()
                    .map(|&f| SlotSpec {
                        stimulus: probe,
                        fault: Some(f),
                    })
                    .collect();
                let outs = match fsim.run_slots(&slots) {
                    Ok(outs) => outs,
                    Err(_) => unreachable!("63 view-width slots per sweep"),
                };
                for out in &outs {
                    if watched.iter().any(|&o| out.get(o) != good.get(o)) {
                        caught += 1;
                    }
                }
            }
        }
        // Catches per stitched-cycle memory cost (2k + p + q bits), scaled
        // to keep everything in integers.
        caught * 1_000_000 / (2 * k + p + q).max(1) as u128
    }
}

impl Strategy for SchemeSearch {
    fn name(&self) -> &'static str {
        "scheme-search"
    }

    fn fingerprint_text(&self) -> String {
        format!("scheme:pop{SCHEME_POP}:gen{SCHEME_GENS}")
    }

    fn is_greedy(&self) -> bool {
        true
    }

    fn prepare(&self, ctx: &mut StrategyCtx<'_>) -> Vec<u64> {
        let mut rng = Prng::seed_from_u64(ctx.seed ^ SCHEME_SALT);
        let sample: Vec<Fault> = (0..ctx.sets.len().min(SCHEME_SAMPLE))
            .map(|i| ctx.sets.fault(i))
            .collect();
        if sample.is_empty() || ctx.scan_len == 0 {
            return Vec::new();
        }
        // Probe vectors are drawn once and shared by every evaluation, so
        // fitness comparisons are apples-to-apples.
        let probes: Vec<BitVec> = (0..SCHEME_VECTORS)
            .map(|_| {
                (0..ctx.view.input_count())
                    .map(|_| rng.next_bool())
                    .collect()
            })
            .collect();
        let goods: Vec<BitVec> = {
            let mut fsim = FaultSim::new(ctx.netlist, ctx.view);
            probes.iter().map(|p| fsim.good_outputs(p)).collect()
        };

        // Initial population: the configured default schedule plus mutants.
        let seed_genome: Genome = match *ctx.policy {
            ShiftPolicy::Variable { start, growth, max } => [
                start.num, start.den, growth.num, growth.den, max.num, max.den,
            ],
            // A fixed policy has no rational genome; seed from the repo
            // default schedule instead.
            ShiftPolicy::Fixed(_) => [1, 8, 2, 1, 1, 2],
        };
        let seed_genome = if genome_policy(&seed_genome).is_some() {
            seed_genome
        } else {
            [1, 8, 2, 1, 1, 2]
        };
        let mut population: Vec<Genome> = vec![seed_genome];
        while population.len() < SCHEME_POP {
            let g = Self::mutate(&seed_genome, &mut rng);
            population.push(g);
        }

        // Fitness depends on the genome only through (k0, cap), so
        // evaluations memoize on that pair — a plain Vec, not a hash map,
        // to keep iteration order deterministic. The whole search may spend
        // at most a quarter of the remaining work budget; the spend
        // sequence is deterministic, so so is the cut-off point.
        let mut memo: Memo = Vec::new();
        let allowance = ctx
            .budget
            .spent()
            .saturating_add(ctx.budget.remaining() / 4);

        for _ in 0..SCHEME_GENS {
            let mut scored: Vec<(u128, Genome)> = Vec::with_capacity(population.len());
            for g in &population {
                let f = Self::evaluate(g, ctx, &probes, &sample, &goods, &mut memo, allowance);
                scored.push((f, *g));
            }
            // Fittest first; ties break on the genome itself so survivor
            // choice never depends on population order.
            scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            scored.dedup_by(|a, b| a.1 == b.1);
            scored.truncate(SCHEME_POP / 2);
            population = scored.iter().map(|&(_, g)| g).collect();
            let survivors = population.clone();
            let mut i = 0usize;
            while population.len() < SCHEME_POP {
                let parent = survivors[i % survivors.len()];
                population.push(Self::mutate(&parent, &mut rng));
                i += 1;
            }
        }
        let first = Self::evaluate(
            &population[0],
            ctx,
            &probes,
            &sample,
            &goods,
            &mut memo,
            allowance,
        );
        let mut best = (first, population[0]);
        for g in &population[1..] {
            let f = Self::evaluate(g, ctx, &probes, &sample, &goods, &mut memo, allowance);
            if f > best.0 || (f == best.0 && *g < best.1) {
                best = (f, *g);
            }
        }
        // A zero-fitness winner means the allowance ran dry before any
        // schedule proved itself — keep the configured policy instead.
        if best.0 == 0 {
            return seed_genome.to_vec();
        }
        best.1.to_vec()
    }

    fn initial_shift(&self, ctx: &mut StrategyCtx<'_>) -> usize {
        Self::schedule(ctx).initial(ctx.scan_len)
    }

    fn escalate(&self, ctx: &mut StrategyCtx<'_>) -> Option<usize> {
        Self::schedule(ctx).escalate(ctx.scan_len, ctx.k)
    }

    fn order_targets(&self, ctx: &mut StrategyCtx<'_>, targets: &mut Vec<usize>) {
        // The schedule is the search target; ordering and scoring follow
        // the paper's winning greedy scheme (easy-first + most-faults).
        targets.sort_by_key(|&i| ctx.hardness(i));
    }
}

// ---------------------------------------------------------------------------
// Hardness-bucketed escalation.
// ---------------------------------------------------------------------------

/// Number of SCOAP hardness buckets.
const BUCKETS: usize = 3;

struct HardnessBuckets;

impl HardnessBuckets {
    /// `(t1, t2)` — the tercile thresholds from the cursor (zeros when the
    /// cursor is absent or forged, which degrades every fault to the
    /// hardest bucket).
    fn thresholds(cursor: &[u64]) -> (u64, u64) {
        (
            cursor.first().copied().unwrap_or(0),
            cursor.get(1).copied().unwrap_or(0),
        )
    }

    fn active(cursor: &[u64]) -> usize {
        cursor
            .get(2)
            .copied()
            .unwrap_or(0)
            .min((BUCKETS - 1) as u64) as usize
    }

    fn bucket(h: u64, t1: u64, t2: u64) -> usize {
        if h <= t1 {
            0
        } else if h <= t2 {
            1
        } else {
            2
        }
    }

    /// The escalation ceiling of bucket `b` (bucket `BUCKETS-1` gets the
    /// policy's full cap).
    fn bucket_cap(policy: &ShiftPolicy, scan_len: usize, b: usize) -> usize {
        let cap = policy.cap(scan_len).clamp(1, scan_len);
        (cap * (b + 1) / BUCKETS).max(1)
    }
}

impl Strategy for HardnessBuckets {
    fn name(&self) -> &'static str {
        "buckets"
    }

    fn fingerprint_text(&self) -> String {
        format!("buckets:{BUCKETS}")
    }

    fn is_greedy(&self) -> bool {
        true
    }

    fn prepare(&self, ctx: &mut StrategyCtx<'_>) -> Vec<u64> {
        let mut hardness: Vec<u64> = (0..ctx.sets.len()).map(|i| ctx.hardness(i)).collect();
        hardness.sort_unstable();
        let (t1, t2) = if hardness.is_empty() {
            (0, 0)
        } else {
            (
                hardness[hardness.len() / BUCKETS],
                hardness[hardness.len() * 2 / BUCKETS],
            )
        };
        vec![t1, t2, 0]
    }

    fn initial_shift(&self, ctx: &mut StrategyCtx<'_>) -> usize {
        let base = ctx.policy.initial(ctx.scan_len);
        match *ctx.policy {
            // A fixed policy never escalates, so bucketing cannot cap it.
            ShiftPolicy::Fixed(_) => base,
            ShiftPolicy::Variable { .. } => {
                base.clamp(1, Self::bucket_cap(ctx.policy, ctx.scan_len, 0))
            }
        }
    }

    fn escalate(&self, ctx: &mut StrategyCtx<'_>) -> Option<usize> {
        if matches!(ctx.policy, ShiftPolicy::Fixed(_)) {
            return None;
        }
        if ctx.cursor.len() < 3 {
            // Forged snapshot: restore a usable cursor shape.
            ctx.cursor.resize(3, 0);
        }
        let mut active = Self::active(ctx.cursor);
        loop {
            let cap_b = Self::bucket_cap(ctx.policy, ctx.scan_len, active);
            if ctx.k < cap_b {
                // Grow within the active bucket's ceiling. The policy only
                // refuses past its own (full) cap, which `cap_b` never
                // exceeds, so this always yields a strictly larger k.
                let next = ctx.policy.escalate(ctx.scan_len, ctx.k)?;
                return Some(next.min(cap_b));
            }
            if active + 1 >= BUCKETS {
                return None;
            }
            // This bucket is capped out: hand the ordering priority to the
            // next-harder bucket and allow its larger ceiling. k never
            // shrinks, so eager caught-classification stays sound.
            active += 1;
            ctx.cursor[2] = active as u64;
        }
    }

    fn order_targets(&self, ctx: &mut StrategyCtx<'_>, targets: &mut Vec<usize>) {
        let (t1, t2) = Self::thresholds(ctx.cursor);
        let active = Self::active(ctx.cursor);
        // Active bucket first (easy-first within it, as the greedy scoring
        // wants candidates), then the remaining buckets in hardness order.
        targets.sort_by_key(|&i| {
            let h = ctx.hardness(i);
            let b = Self::bucket(h, t1, t2);
            (usize::from(b != active), b, h)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_name() {
        for id in ALL_STRATEGIES {
            assert_eq!(StrategyId::parse(id.name()), Some(id));
        }
        assert_eq!(StrategyId::parse("sideways"), None);
        assert_eq!(StrategyId::parse("ADI"), None, "names are case-sensitive");
    }

    #[test]
    fn default_is_the_papers_winner() {
        assert_eq!(StrategyId::default(), StrategyId::MostFaults);
    }

    #[test]
    fn only_the_papers_greedy_schemes_score_candidates() {
        let greedy = |id: StrategyId| id.resolve().is_greedy();
        assert!(!greedy(StrategyId::Random));
        assert!(!greedy(StrategyId::Hardness));
        assert!(greedy(StrategyId::MostFaults));
        assert!(greedy(StrategyId::Weighted));
        for id in ALL_STRATEGIES {
            assert_eq!(
                id.resolve().weighted_scoring(),
                id == StrategyId::Weighted,
                "{}",
                id.name()
            );
        }
    }

    #[test]
    fn fingerprints_are_distinct_and_float_free() {
        let mut texts: Vec<String> = ALL_STRATEGIES
            .iter()
            .map(|id| id.resolve().fingerprint_text())
            .collect();
        for t in &texts {
            assert!(!t.contains('.'), "fingerprint text {t:?} smells of floats");
        }
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), ALL_STRATEGIES.len());
    }

    #[test]
    fn genome_policy_rejects_forged_cursors() {
        assert!(genome_policy(&[]).is_none());
        assert!(genome_policy(&[1, 8, 2, 1, 1]).is_none(), "short");
        assert!(genome_policy(&[1, 0, 2, 1, 1, 2]).is_none(), "zero den");
        assert!(genome_policy(&[9, 8, 2, 1, 1, 2]).is_none(), "start > 1");
        assert!(genome_policy(&[1, 8, 1, 1, 1, 2]).is_none(), "growth <= 1");
        assert!(genome_policy(&[1, 2, 2, 1, 1, 4]).is_none(), "max < start");
        let p = genome_policy(&[1, 8, 2, 1, 1, 2]).unwrap();
        assert_eq!(p, ShiftPolicy::default());
    }

    #[test]
    fn bucket_caps_are_monotone_and_end_at_the_policy_cap() {
        let policy = ShiftPolicy::default();
        let l = 100;
        let caps: Vec<usize> = (0..BUCKETS)
            .map(|b| HardnessBuckets::bucket_cap(&policy, l, b))
            .collect();
        assert!(caps.windows(2).all(|w| w[0] <= w[1]), "{caps:?}");
        assert_eq!(*caps.last().unwrap(), policy.cap(l));
    }
}
