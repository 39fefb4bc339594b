//! The seeded request schedule of the `served-mix` workload.
//!
//! Each client owns a private list of submission keys. A step either
//! creates a key (a cold submission under a fresh engine seed, or a
//! one-gate edit of one of the client's own keys) or resubmits one of the
//! client's own keys verbatim. Because no two clients ever share a key, no
//! submission can attach to another client's in-flight run, so the
//! admission of every request — and with it `delta.plans` — is fixed by
//! the seed alone, whatever the timing.

use tvs_logic::Prng;

/// What one request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A new circuit submission under a fresh engine seed (an engine run
    /// with no delta ancestor).
    Cold,
    /// A one-gate edit of one of the client's earlier keys (an engine run
    /// with a delta plan from that ancestor).
    Edit,
    /// An exact resubmission of one of the client's earlier keys (served
    /// from the artifact cache).
    Resubmit,
}

/// One request of a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// What the request does.
    pub kind: Kind,
    /// Index into the client's key list: the key created (cold, edit) or
    /// reused (resubmit).
    pub key: usize,
    /// For edits, the key being edited.
    pub parent: Option<usize>,
    /// Index of the base circuit the key descends from.
    pub circuit: usize,
    /// Engine seed of the key's configuration (shared along an edit chain,
    /// unique per cold submission across all clients).
    pub config_seed: u64,
    /// Random draw that chooses the edited gate.
    pub pick: u64,
}

/// Shares of the request mix, in percent: cold, edit, and (the rest)
/// resubmit.
pub const MIX: (usize, usize) = (40, 30);

/// Builds the per-client schedules: `requests` in total, split evenly over
/// `clients`. Cold submissions are spread evenly over the `circuits` base
/// circuits, and edits as evenly as the keys a client holds at the time
/// allow, so the seed reorders the mix and picks the edits without
/// changing what the mix costs by much.
///
/// # Panics
///
/// Panics unless `requests` divides evenly over `clients` and each client
/// makes at least one cold submission.
pub fn served_schedule(
    seed: u64,
    requests: usize,
    clients: usize,
    circuits: usize,
) -> Vec<Vec<Step>> {
    assert!(
        clients > 0 && requests.is_multiple_of(clients),
        "requests must split evenly"
    );
    let per_client = requests / clients;
    let cold = per_client * MIX.0 / 100;
    let edits = per_client * MIX.1 / 100;
    assert!(
        cold > 0 && circuits > 0,
        "every client needs a cold submission"
    );
    let mut rng = Prng::seed_from_u64(seed ^ 0x5E7E_D5C4_ED01_E000);
    let mut next_config_seed = seed.wrapping_mul(1_000_003);
    let mut plans = Vec::with_capacity(clients);
    for _ in 0..clients {
        let mut kinds: Vec<Kind> = std::iter::repeat_n(Kind::Cold, cold)
            .chain(std::iter::repeat_n(Kind::Edit, edits))
            .chain(std::iter::repeat_n(
                Kind::Resubmit,
                per_client - cold - edits,
            ))
            .collect();
        shuffle(&mut kinds, &mut rng);
        // The first request must create a key for the others to refer to.
        let first_cold = kinds.iter().position(|&k| k == Kind::Cold).unwrap_or(0);
        kinds.swap(0, first_cold);
        let mut cold_circuits = balanced(cold, circuits, &mut rng);
        let mut edit_circuits = balanced(edits, circuits, &mut rng);

        // (circuit, config seed) of every key this client owns.
        let mut keys: Vec<(usize, u64)> = Vec::new();
        let mut steps = Vec::with_capacity(per_client);
        for kind in kinds {
            let pick = rng.next_u64();
            let (key, parent) = match kind {
                Kind::Cold => {
                    next_config_seed = next_config_seed.wrapping_add(1);
                    keys.push((cold_circuits.pop().unwrap_or(0), next_config_seed));
                    (keys.len() - 1, None)
                }
                Kind::Edit => {
                    // The next wanted circuit the client already holds a key
                    // of; a client holding none of them edits any key.
                    let wanted = edit_circuits
                        .iter()
                        .position(|&c| keys.iter().any(|k| k.0 == c));
                    let pool: Vec<usize> = match wanted {
                        Some(at) => {
                            let c = edit_circuits.remove(at);
                            (0..keys.len()).filter(|&i| keys[i].0 == c).collect()
                        }
                        None => (0..keys.len()).collect(),
                    };
                    let parent = pool[(rng.next_u64() % pool.len() as u64) as usize];
                    keys.push(keys[parent]);
                    (keys.len() - 1, Some(parent))
                }
                Kind::Resubmit => ((rng.next_u64() % keys.len() as u64) as usize, None),
            };
            let (circuit, config_seed) = keys[key];
            steps.push(Step {
                kind,
                key,
                parent,
                circuit,
                config_seed,
                pick,
            });
        }
        plans.push(steps);
    }
    plans
}

/// `n` circuit indices cycling over `circuits`, in seeded order.
fn balanced(n: usize, circuits: usize, rng: &mut Prng) -> Vec<usize> {
    let mut out: Vec<usize> = (0..n).map(|i| i % circuits).collect();
    shuffle(&mut out, rng);
    out
}

/// Fisher–Yates shuffle driven by the workspace PRNG.
fn shuffle<T>(items: &mut [T], rng: &mut Prng) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}
