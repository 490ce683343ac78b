//! Everything the workloads feed the program, generated from `--seed`:
//! the corpus session order, tenants, multi-config share, churn arrival
//! schedule and sizes, query rotation, and checker treatment order.
//! The program under test only ever sees the generated inputs.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;

use jinn_replay::{record_program, replay_trace, Program, ReplayConfig, Trace};

/// Where the golden corpus lives, relative to the repository root.
pub const CORPUS_DIR: &str = "tests/corpus";
/// Tenants the corpus sessions are spread over.
pub const TENANTS: u64 = 8;
/// The single-config selection (streams while a slot is free).
pub const JINN: &str = "jinn";
/// The Table 1 differential: three configs, judged buffered.
pub const MULTI: &str = "jinn,xcheck,hotspot";
/// Native calls per recorded churn trace, one trace per size.
pub const CHURN_CALLS: [u32; 3] = [1, 2, 4];
/// String round-trips per churn native call.
pub const CHURN_STRINGS: u32 = 200;

/// SplitMix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream, index)`; distinct triples give
    /// independent sequences.
    pub fn new(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Random-stream identifiers, so each generated input draws from its
/// own sequence.
mod stream {
    pub const SHUFFLE: u64 = 1;
    pub const TENANT: u64 = 2;
    pub const MULTI: u64 = 3;
    pub const TENANT_NAME: u64 = 4;
    pub const ARRIVALS: u64 = 5;
    pub const CHURN_SIZE: u64 = 6;
    pub const QUERY: u64 = 7;
    pub const TREATMENTS: u64 = 8;
}

/// The expected verdicts of one (trace, config selection) pair, from a
/// local replay: `(config label, machine, error state, function)` →
/// count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected {
    /// Total verdict rows.
    pub count: u64,
    /// The full multiset.
    pub multiset: BTreeMap<(String, String, String, String), u64>,
}

/// Replays `trace` under each config of `selection` and collects the
/// verdict multiset the daemon must reproduce.
///
/// # Errors
///
/// An unknown config label or a replay failure.
pub fn expected_verdicts(trace: &Trace, selection: &str) -> Result<Expected, String> {
    let mut out = Expected::default();
    for label in selection.split(',') {
        let config = ReplayConfig::parse(label).ok_or_else(|| format!("config `{label}`"))?;
        let outcome = replay_trace(trace, &config).map_err(|e| format!("replay: {e}"))?;
        for v in &outcome.violations {
            *out.multiset
                .entry((
                    config.label(),
                    v.machine.to_string(),
                    v.error_state.to_string(),
                    v.function.clone(),
                ))
                .or_insert(0) += 1;
            out.count += 1;
        }
    }
    Ok(out)
}

/// One golden-corpus trace with its expected verdicts.
#[derive(Debug)]
pub struct CorpusTrace {
    /// File stem.
    pub name: String,
    /// The `.jtrace` bytes.
    pub bytes: Vec<u8>,
    /// Expected verdicts under [`JINN`] and under [`MULTI`].
    pub expected: [Expected; 2],
}

/// The golden corpus plus the seeded names the sessions use.
#[derive(Debug)]
pub struct Corpus {
    /// Traces, in file-name order.
    pub traces: Vec<CorpusTrace>,
    /// Seeded tenant names.
    pub tenants: Vec<String>,
    /// Machines that appear in some expected verdict, sorted (query
    /// targets).
    pub machines: Vec<String>,
    /// Config labels the sessions produce, sorted (query targets).
    pub config_labels: Vec<String>,
}

impl Corpus {
    /// Reads `tests/corpus/*.jtrace` under `root` and computes every
    /// expected verdict multiset.
    ///
    /// # Errors
    ///
    /// A missing or unreadable corpus.
    pub fn load(root: &Path, seed: u64) -> Result<Arc<Corpus>, String> {
        let dir = root.join(CORPUS_DIR);
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "jtrace"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(format!("{}: no .jtrace files", dir.display()));
        }
        let mut traces = Vec::new();
        for path in paths {
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let trace = Trace::parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
            traces.push(CorpusTrace {
                name: path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default(),
                expected: [
                    expected_verdicts(&trace, JINN)?,
                    expected_verdicts(&trace, MULTI)?,
                ],
                bytes,
            });
        }
        let mut machines = BTreeSet::new();
        let mut config_labels = BTreeSet::new();
        for t in &traces {
            for (label, machine, _, _) in t.expected[1].multiset.keys() {
                machines.insert(machine.clone());
                config_labels.insert(label.clone());
            }
        }
        for label in MULTI.split(',') {
            config_labels.insert(ReplayConfig::parse(label).expect("known label").label());
        }
        Ok(Arc::new(Corpus {
            traces,
            tenants: tenant_names(seed),
            machines: machines.into_iter().collect(),
            config_labels: config_labels.into_iter().collect(),
        }))
    }
}

/// The seeded tenant names.
pub fn tenant_names(seed: u64) -> Vec<String> {
    (0..TENANTS)
        .map(|k| {
            format!(
                "tenant-{:08x}",
                Rng::new(seed, stream::TENANT_NAME, k).next_u64() as u32
            )
        })
        .collect()
}

/// One planned corpus session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Index into [`Corpus::traces`].
    pub trace: usize,
    /// Index into [`Corpus::tenants`].
    pub tenant: usize,
    /// Whether the session selects [`MULTI`] instead of [`JINN`].
    pub multi: bool,
}

/// The closed-loop corpus session sequence: each cycle of `n` sessions
/// is a seeded shuffle of the corpus. Entry `i` depends only on the seed
/// and `i`, so client threads can claim entries in any interleaving and
/// the sequence of sessions stays the same.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload seed.
    pub seed: u64,
    /// Corpus size.
    pub n: usize,
    /// One in this many sessions selects [`MULTI`]; 0 never does.
    pub multi_one_in: u64,
}

/// A seeded permutation of `0..n`.
fn shuffled(n: usize, r: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        order.swap(k, r.below(k as u64 + 1) as usize);
    }
    order
}

impl Plan {
    /// The `i`-th session.
    pub fn session(&self, i: u64) -> Planned {
        let n = self.n as u64;
        let (cycle, pos) = (i / n, i % n);
        let order = shuffled(self.n, &mut Rng::new(self.seed, stream::SHUFFLE, cycle));
        Planned {
            trace: order[pos as usize],
            tenant: Rng::new(self.seed, stream::TENANT, i).below(TENANTS) as usize,
            multi: self.multi_one_in > 0
                && Rng::new(self.seed, stream::MULTI, i).below(self.multi_one_in) == 0,
        }
    }
}

/// Records the churn workload: a bug-free native method doing `calls`
/// invocations of [`CHURN_STRINGS`] string round-trips each
/// (`NewStringUTF`, `GetStringUTFLength`, `DeleteLocalRef`).
pub fn record_churn(calls: u32) -> Vec<u8> {
    use jinn_microbench::Setup;
    use minijni::typed;
    use minijvm::JValue;

    let program = Program {
        name: format!("Churn{calls}"),
        pitfall: None,
        // Metadata only: the workload is bug-free by construction.
        machine: "local-reference",
        error_state: "Ok",
        leaks: false,
        gc_period: Some(64),
        build: Box::new(move |vm| {
            let (_c, entry) = vm.define_native_class(
                "bench/Churn",
                "churn",
                "()I",
                true,
                Rc::new(|env, _| {
                    let mut survived = 0;
                    for i in 0..CHURN_STRINGS {
                        let s = typed::new_string_utf(env, &format!("churn-{i}"))?;
                        if typed::get_string_utf_length(env, s)? > 0 {
                            survived += 1;
                        }
                        typed::delete_local_ref(env, s)?;
                    }
                    Ok(JValue::Int(survived))
                }),
            );
            Setup {
                entries: vec![entry; calls as usize],
                first_args: Vec::new(),
            }
        }),
    };
    record_program(&program)
}

/// One open-loop churn session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When its `Open` is due, in nanoseconds from the schedule start.
    pub due_ns: u64,
    /// Index into [`CHURN_CALLS`].
    pub size: usize,
}

/// `rate × seconds` churn arrivals at sorted uniform times in
/// `[0, seconds)`: a Poisson process conditioned on its count, so every
/// run offers the same load and only the spacing varies with the seed.
/// Sizes come in blocks holding each size once, in seeded order, so
/// every run has the same size mix too.
pub fn churn_schedule(seed: u64, phase: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let n = (rate * seconds).round().max(1.0) as u64;
    let mut r = Rng::new(seed, stream::ARRIVALS, phase);
    let mut due: Vec<u64> = (0..n).map(|_| (r.unit() * seconds * 1e9) as u64).collect();
    due.sort_unstable();
    let mut sizes = Rng::new(seed, stream::CHURN_SIZE, phase);
    let mut block = Vec::new();
    due.into_iter()
        .map(|due_ns| {
            if block.is_empty() {
                block = shuffled(CHURN_CALLS.len(), &mut sizes);
            }
            Arrival {
                due_ns,
                size: block.pop().expect("refilled above"),
            }
        })
        .collect()
}

/// One query of the read-side rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Verdicts of one machine (index into [`Corpus::machines`]).
    Machine(usize),
    /// Verdicts of one tenant, paged by cursor (up to five pages).
    Tenant(usize),
    /// Event summaries of the most recently judged session.
    Session,
    /// Outcomes of one config (index into [`Corpus::config_labels`]).
    Config(usize),
}

/// The `j`-th query: shapes rotate in a fixed order from a seeded
/// starting point; each shape's target is seeded.
pub fn query_shape(seed: u64, j: u64, machines: usize, configs: usize) -> Shape {
    let mut r = Rng::new(seed, stream::QUERY, j);
    let start = Rng::new(seed, stream::QUERY, u64::MAX).below(4);
    match (j + start) % 4 {
        0 => Shape::Machine(r.below(machines as u64) as usize),
        1 => Shape::Tenant(r.below(TENANTS) as usize),
        2 => Shape::Session,
        _ => Shape::Config(r.below(configs as u64) as usize),
    }
}

/// The checker treatment order of round `round`: a seeded permutation
/// of `0..n`.
pub fn treatment_order(seed: u64, round: u64, n: usize) -> Vec<usize> {
    shuffled(n, &mut Rng::new(seed, stream::TREATMENTS, round))
}

#[cfg(test)]
/// Every generated input of `seed`, rendered to bytes: the first corpus
/// cycles, the tenants, a churn schedule, the query rotation and the
/// treatment orders.
pub fn schedule_bytes(seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    let plan = Plan {
        seed,
        n: 20,
        multi_one_in: 4,
    };
    for i in 0..200 {
        let p = plan.session(i);
        out.extend_from_slice(&[p.trace as u8, p.tenant as u8, u8::from(p.multi)]);
    }
    for t in tenant_names(seed) {
        out.extend_from_slice(t.as_bytes());
    }
    for a in churn_schedule(seed, 0, 80.0, 2.0) {
        out.extend_from_slice(&a.due_ns.to_le_bytes());
        out.push(a.size as u8);
    }
    for j in 0..64 {
        out.extend_from_slice(format!("{:?}", query_shape(seed, j, 9, 3)).as_bytes());
    }
    for round in 0..16 {
        out.extend(treatment_order(seed, round, 4).iter().map(|&t| t as u8));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_every_input() {
        assert_eq!(schedule_bytes(1), schedule_bytes(1));
        assert_ne!(schedule_bytes(1), schedule_bytes(2));
    }

    #[test]
    fn each_cycle_visits_every_trace_once() {
        let plan = Plan {
            seed: 9,
            n: 20,
            multi_one_in: 4,
        };
        for cycle in 0..3 {
            let mut seen: Vec<usize> = (0..20)
                .map(|k| plan.session(cycle * 20 + k).trace)
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..20).collect::<Vec<_>>());
        }
        let multi = (0..4000).filter(|&i| plan.session(i).multi).count();
        assert!((800..1200).contains(&multi), "about one in four: {multi}");
    }

    #[test]
    fn churn_schedule_offers_a_fixed_count() {
        let a = churn_schedule(3, 0, 80.0, 15.0);
        assert_eq!(a.len(), 1200);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        for size in 0..CHURN_CALLS.len() {
            assert_eq!(a.iter().filter(|x| x.size == size).count(), 400);
        }
        assert!(a.last().is_some_and(|x| x.due_ns < 15_000_000_000));
        assert_ne!(a, churn_schedule(3, 1, 80.0, 15.0));
    }
}
