//! The benchmark's workloads: seeded streams of the paper's Flights queries
//! F-q1 … F-q9 over one fixed synthetic Flights table.
//!
//! The workload seed draws only the stream — template order, template
//! parameters and each query's `EngineConfig::seed` (its random start block,
//! §5.2). The table itself is always the same 4M-row dataset, so a seed
//! changes what is asked, never what is stored.

use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::{EngineConfig, SamplingStrategy};
use fastframe_engine::progressive::Budget;
use fastframe_engine::query::AggQuery;
use fastframe_store::table::StoreResult;
use fastframe_workloads::flights::{FlightsConfig, FlightsDataset};
use fastframe_workloads::queries::{self as templates, QueryTemplate};

/// Name the Flights table is registered under.
pub const TABLE: &str = "flights";
/// Rows of the benchmark table (the paper-scale default of the harnesses).
pub const DEFAULT_ROWS: usize = 4_000_000;
/// Distinct origin airports of the generated table.
pub const AIRPORTS: usize = 100;
/// Seed of the generated table and of its scramble permutation.
pub const DATA_SEED: u64 = 2_021;
/// The paper's error probability (§5.2).
pub const DELTA: f64 = 1e-15;
/// Scan worker threads, pinned so results and timings do not depend on the
/// `FASTFRAME_THREADS` environment default.
pub const THREADS: usize = 2;
/// Rows per OptStop round on the paper workloads (the paper default).
pub const PAPER_ROUND_ROWS: u64 = 40_000;
/// Rows per round of the online-aggregation workload (80 blocks of 25 rows).
pub const FINE_ROUND_ROWS: u64 = 2_000;
/// Row budget of one online-aggregation query (at most 100 rounds).
pub const FINE_MAX_ROWS: u64 = 200_000;

/// F-q1 draws its airport among this many most popular airports.
const F_Q1_TOP_AIRPORTS: usize = 20;
/// F-q1 relative-accuracy targets.
const F_Q1_EPSILONS: [f64; 3] = [0.5, 0.25, 0.1];
/// F-q2 HAVING thresholds. They lie below or above every airline's mean
/// delay, so the query stays the early stopper the paper describes; a
/// threshold inside the band of airline means turns it into a full pass.
const F_Q2_THRESHOLDS: [f64; 5] = [-5.0, 0.0, 2.0, 25.0, 30.0];
/// F-q3 `min_dep_time` values (HHMM).
const F_Q3_MIN_DEP_TIMES: [i64; 5] = [1_000, 1_350, 1_700, 2_000, 2_250];
/// Number of templates; every cycle of the stream runs each once.
pub const TEMPLATES: usize = 9;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's queries over the in-memory scramble.
    FlightsMem,
    /// The same stream over the same scramble saved to a segment file and
    /// reopened with `Session::open_table`.
    FlightsSeg,
    /// An online-aggregation UI: 2 000-row rounds, a 200 000-row budget and
    /// a bounder rotating over all six kinds, in memory.
    ProgressiveFine,
}

impl Workload {
    /// Every workload, in the order the all-workloads mode runs them
    /// (segment first, so its peak RSS is not inflated by the in-memory
    /// table).
    pub const ALL: [Workload; 3] = [
        Workload::FlightsSeg,
        Workload::FlightsMem,
        Workload::ProgressiveFine,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlightsMem => "flights_mem",
            Workload::FlightsSeg => "flights_seg",
            Workload::ProgressiveFine => "progressive_fine",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the table is served from a segment file.
    pub fn segment_backed(self) -> bool {
        self == Workload::FlightsSeg
    }

    /// The cancellation budget of every query of the workload. No deadline,
    /// so block counts repeat exactly for a seed.
    pub fn budget(self) -> Budget {
        match self {
            Workload::ProgressiveFine => Budget::unlimited().max_rows(FINE_MAX_ROWS),
            Workload::FlightsMem | Workload::FlightsSeg => Budget::unlimited(),
        }
    }
}

/// The airports of the benchmark table, most popular first. Generating a
/// zero-row dataset yields the same code list as the full one without
/// drawing any rows.
pub fn airports_by_popularity() -> StoreResult<Vec<String>> {
    Ok(FlightsDataset::generate(flights_config(0))?.airport_codes)
}

/// The generator configuration of the benchmark table.
pub fn flights_config(rows: usize) -> FlightsConfig {
    FlightsConfig::default()
        .rows(rows)
        .airports(AIRPORTS)
        .seed(DATA_SEED)
}

/// One query of a stream, with the configuration it runs under.
#[derive(Debug, Clone)]
pub struct StreamQuery {
    /// Position in the stream, from 0.
    pub index: usize,
    /// Template id (`F-q1` … `F-q9`).
    pub template: &'static str,
    /// The query instance; its name encodes its parameters, so equal names
    /// mean equal exact answers.
    pub query: AggQuery,
    /// Engine configuration, with the start-block seed drawn for this query.
    pub config: EngineConfig,
}

/// SplitMix64: a small, fixed generator so a seed gives the same stream on
/// every platform and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Deals indexes `0..n` in shuffled order, reshuffling when all are dealt.
#[derive(Debug, Clone)]
struct Deck {
    n: usize,
    left: Vec<usize>,
}

impl Deck {
    fn new(n: usize) -> Self {
        Self {
            n,
            left: Vec::new(),
        }
    }

    fn deal(&mut self, rng: &mut SplitMix64) -> usize {
        if self.left.is_empty() {
            self.left = (0..self.n).collect();
            shuffle(&mut self.left, rng);
        }
        self.left.pop().expect("refilled above")
    }
}

/// Fisher–Yates shuffle.
fn shuffle(v: &mut [usize], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// A seeded, endless stream of queries, produced one cycle at a time. Each
/// cycle runs all nine templates once, so every run sees the same template
/// mix however many cycles it completes. Each parameter
/// is dealt from a shuffled deck of its values, so five cycles use every
/// F-q2 threshold and F-q3 time once and no run is skewed towards a few
/// values.
#[derive(Debug, Clone)]
pub struct QueryStream {
    workload: Workload,
    rng: SplitMix64,
    airports: Vec<String>,
    airport_deck: Deck,
    epsilon_deck: Deck,
    threshold_deck: Deck,
    dep_time_deck: Deck,
    next_index: usize,
}

impl QueryStream {
    /// The stream of `workload` for `seed`. `airports` lists the table's
    /// airports, most popular first.
    pub fn new(workload: Workload, seed: u64, airports: Vec<String>) -> Self {
        assert!(!airports.is_empty(), "the Flights table has airports");
        Self {
            workload,
            rng: SplitMix64::new(seed),
            airport_deck: Deck::new(airports.len().min(F_Q1_TOP_AIRPORTS)),
            airports,
            epsilon_deck: Deck::new(F_Q1_EPSILONS.len()),
            threshold_deck: Deck::new(F_Q2_THRESHOLDS.len()),
            dep_time_deck: Deck::new(F_Q3_MIN_DEP_TIMES.len()),
            next_index: 0,
        }
    }

    /// The next cycle: one query per template. The first cycle runs them in
    /// the paper's order, so the queries that pay first-use costs — the
    /// segment reader's group enumeration, once per GROUP BY shape — are
    /// the same templates in every run; later cycles run them in a seeded
    /// order.
    pub fn next_cycle(&mut self) -> Vec<StreamQuery> {
        let mut order: Vec<usize> = (0..TEMPLATES).collect();
        if self.next_index > 0 {
            shuffle(&mut order, &mut self.rng);
        }
        order
            .into_iter()
            .map(|template| self.instantiate(template))
            .collect()
    }

    fn instantiate(&mut self, template: usize) -> StreamQuery {
        let rng = &mut self.rng;
        let QueryTemplate { id, query, .. } = match template {
            0 => templates::f_q1(
                &self.airports[self.airport_deck.deal(rng)],
                F_Q1_EPSILONS[self.epsilon_deck.deal(rng)],
            ),
            1 => templates::f_q2(F_Q2_THRESHOLDS[self.threshold_deck.deal(rng)]),
            2 => templates::f_q3(F_Q3_MIN_DEP_TIMES[self.dep_time_deck.deal(rng)]),
            3 => templates::f_q4(),
            4 => templates::f_q5(),
            5 => templates::f_q6(),
            6 => templates::f_q7(),
            7 => templates::f_q8(),
            _ => templates::f_q9(),
        };
        let index = self.next_index;
        self.next_index += 1;
        let config = self.config_for(template, &query);
        StreamQuery {
            index,
            template: id,
            query,
            config,
        }
    }

    /// The configuration of a query of template number `template` (from 0).
    ///
    /// On the online-aggregation workload the bounders rotate over the
    /// templates of a cycle: F-q(t+1) uses kind t mod 6, so each cycle runs
    /// all six kinds and every cycle runs the same nine (template, bounder)
    /// pairs. Pairs that changed from cycle to cycle would make a run's mix
    /// depend on how many cycles it completed, and which template drew the
    /// costly Anderson/DKW kinds would differ from run to run.
    fn config_for(&mut self, template: usize, query: &AggQuery) -> EngineConfig {
        // Active scanning only pays off when there are groups to retire.
        let strategy = if query.is_grouped() {
            SamplingStrategy::ActivePeek
        } else {
            SamplingStrategy::Scan
        };
        let (bounder, round_rows) = match self.workload {
            Workload::ProgressiveFine => (
                BounderKind::ALL[template % BounderKind::ALL.len()],
                FINE_ROUND_ROWS,
            ),
            Workload::FlightsMem | Workload::FlightsSeg => {
                (BounderKind::BernsteinRangeTrim, PAPER_ROUND_ROWS)
            }
        };
        EngineConfig::builder()
            .bounder(bounder)
            .strategy(strategy)
            .delta(DELTA)
            .round_rows(round_rows)
            .threads(THREADS)
            .seed(self.rng.next_u64())
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn airports() -> Vec<String> {
        (0..30).map(|i| format!("A{i}")).collect()
    }

    #[test]
    fn a_seed_gives_the_same_stream() {
        let mut a = QueryStream::new(Workload::FlightsMem, 7, airports());
        let mut b = QueryStream::new(Workload::FlightsMem, 7, airports());
        for _ in 0..3 {
            let (x, y) = (a.next_cycle(), b.next_cycle());
            let names = |c: &[StreamQuery]| {
                c.iter()
                    .map(|q| (q.query.name.clone(), q.config.seed))
                    .collect::<Vec<_>>()
            };
            assert_eq!(names(&x), names(&y));
        }
    }

    #[test]
    fn every_cycle_runs_each_template_once() {
        let mut s = QueryStream::new(Workload::ProgressiveFine, 3, airports());
        let first: Vec<_> = s.next_cycle().iter().map(|q| q.template).collect();
        assert_eq!(first[0], "F-q1");
        assert_eq!(first[8], "F-q9");
        for cycle in 1..4 {
            let mut ids: Vec<_> = s.next_cycle().iter().map(|q| q.template).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), TEMPLATES, "cycle {cycle}");
        }
    }

    #[test]
    fn parameters_are_dealt_without_repeats() {
        let mut s = QueryStream::new(Workload::FlightsMem, 9, airports());
        let thresholds: Vec<String> = (0..F_Q2_THRESHOLDS.len())
            .flat_map(|_| s.next_cycle())
            .filter(|q| q.template == "F-q2")
            .map(|q| q.query.name)
            .collect();
        let mut distinct = thresholds.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), F_Q2_THRESHOLDS.len(), "{thresholds:?}");
    }

    #[test]
    fn the_fine_workload_rotates_every_bounder() {
        let mut s = QueryStream::new(Workload::ProgressiveFine, 1, airports());
        let pairs = |cycle: Vec<StreamQuery>| {
            let mut p: Vec<_> = cycle
                .iter()
                .map(|q| (q.template, q.config.bounder, q.config.round_rows))
                .collect();
            p.sort_by_key(|&(t, _, _)| t);
            p
        };
        let first = pairs(s.next_cycle());
        assert!(first.contains(&("F-q5", BounderKind::AndersonDkw, FINE_ROUND_ROWS)));
        for kind in BounderKind::ALL {
            assert!(first.iter().any(|&(_, k, _)| k == kind));
        }
        assert_eq!(pairs(s.next_cycle()), first);
        let mut paper = QueryStream::new(Workload::FlightsSeg, 1, airports());
        assert!(paper
            .next_cycle()
            .iter()
            .all(|q| q.config.bounder == BounderKind::BernsteinRangeTrim
                && q.config.threads == THREADS
                && q.config.delta == DELTA));
    }
}
