//! The exactness contract in one harness. Algorithm 2 with every
//! pruning rule returns the exhaustive Baseline's optimum, and every
//! way of running the engine — backend, cache, observability, entry
//! point, options, mode and budget — returns the same answers down to
//! the last bit.
//!
//! Over random small SSNs (Uni and Zipf at scale 0.004), each query of
//! the `common::corpus` grid plus τ 4–6 queries first runs a reference
//! cell — CH index, cache off, no `Obs`, `try_query`, default options —
//! at every (mode, budget). The references are held to the Baseline:
//! unbudgeted, every answer passes `check_answer` and the optimum (and
//! the top-3 values at τ ≤ 4) match bitwise; under a tiny group budget
//! an exact completion is the optimum and a truncated one has a sound
//! gap. Then every single-axis variation of the unbudgeted references,
//! the JSONL entry point under each tiny budget (an unbounded gap is
//! `null` on the wire), plus one cell that changes every axis at once,
//! must equal the
//! reference of its (mode, budget) in users, POIs, `maxdist` bits,
//! completion and gap bits — and, with the cache off, in pages read
//! across the observability and entry-point axes. The full product of
//! the axes would be too slow for a debug build.

mod common;

use common::corpus;
use gpssn::core::query::check_answer;
use gpssn::core::serve::error_code;
use gpssn::core::{
    exact_baseline, exact_baseline_top_k, serve_jsonl, Completion, Counter, DistanceCacheConfig,
    EngineConfig, GpSsnAnswer, GpSsnEngine, GpSsnError, GpSsnQuery, QueryBudget, QueryMode,
    QueryOptions, QueryOutcome, ServeConfig,
};
use gpssn::index::{PivotSelectConfig, SocialIndexConfig};
use gpssn::obs::{json, Obs, ObsConfig};
use gpssn::ssn::{synthetic, SpatialSocialNetwork, SyntheticConfig};
use std::sync::Arc;

const K: usize = 3;
const MODES: [QueryMode; 2] = [QueryMode::Exact, QueryMode::TopK(K)];
/// `max_groups_enumerated`: unlimited, then two tiny budgets. 5 also
/// cuts the "does any group exist" pre-check; 60 cuts most probes at
/// τ 3–6.
const BUDGETS: [Option<u64>; 3] = [None, Some(5), Some(60)];
/// Workers for the batch and JSONL entry points.
const THREADS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Cache {
    Off,
    /// The default ball cache, on its first pass over the corpus.
    Cold,
    /// The same engine's second pass: hits, not only misses.
    Warm,
    /// 2 balls, 1 shard: evicting almost constantly.
    Evicting,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Entry {
    Single,
    Batch,
    Jsonl,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Options {
    Default,
    /// Interest, social-distance, matching and δ pruning all off.
    Unpruned,
    TightMbr,
    /// An 8-page buffer pool in front of the index file.
    BufferPool,
}

/// One way of running the corpus.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cell {
    /// CH rows, or an index built without CH: every `dist_RN` row then
    /// comes from Dijkstra, the path CH-less index files and the
    /// breaker take.
    ch: bool,
    cache: Cache,
    /// Full metrics and tracing, every trace kept.
    obs: bool,
    entry: Entry,
    options: Options,
    mode: QueryMode,
    groups: Option<u64>,
}

const REFERENCE: Cell = Cell {
    ch: true,
    cache: Cache::Off,
    obs: false,
    entry: Entry::Single,
    options: Options::Default,
    mode: QueryMode::Exact,
    groups: None,
};

/// Every single-axis variation of the unbudgeted references, in run
/// order (a warm pass follows its cold one), the JSONL entry point under
/// each tiny budget, then the cell that changes every axis. Its options axis is the buffer pool: turning pruning off
/// or tightening the MBR test changes which users a probe admits, so
/// under a group budget those cells legitimately truncate elsewhere.
fn variations() -> Vec<Cell> {
    let mut cells = Vec::new();
    for mode in MODES {
        let base = Cell { mode, ..REFERENCE };
        cells.push(Cell { ch: false, ..base });
        for cache in [Cache::Cold, Cache::Warm, Cache::Evicting] {
            cells.push(Cell { cache, ..base });
        }
        cells.push(Cell { obs: true, ..base });
        for entry in [Entry::Batch, Entry::Jsonl] {
            cells.push(Cell { entry, ..base });
        }
        // Budgeted response lines, where a short top-k writes its
        // unbounded gap as `null`.
        for groups in [Some(5), Some(60)] {
            let entry = Entry::Jsonl;
            cells.push(Cell {
                entry,
                groups,
                ..base
            });
        }
        for options in [Options::Unpruned, Options::TightMbr, Options::BufferPool] {
            cells.push(Cell { options, ..base });
        }
    }
    cells.push(Cell {
        ch: false,
        cache: Cache::Evicting,
        obs: true,
        entry: Entry::Batch,
        options: Options::BufferPool,
        mode: QueryMode::TopK(K),
        groups: Some(60),
    });
    cells
}

/// The engines of one SSN, built on first use. Cells that differ only
/// in entry point, query options, mode or budget share an engine, and
/// a warm pass runs on its cold pass's engine.
struct Engines<'a> {
    ssn: &'a SpatialSocialNetwork,
    seed: u64,
    built: Vec<((bool, Cache, bool, bool), GpSsnEngine<'a>)>,
}

impl<'a> Engines<'a> {
    fn get(&mut self, cell: &Cell) -> &GpSsnEngine<'a> {
        let cache = if cell.cache == Cache::Warm {
            Cache::Cold
        } else {
            cell.cache
        };
        let pool = cell.options == Options::BufferPool;
        let key = (cell.ch, cache, cell.obs, pool);
        if let Some(i) = self.built.iter().position(|(k, _)| *k == key) {
            return &self.built[i].1;
        }
        let mut cfg = EngineConfig {
            num_road_pivots: 3,
            num_social_pivots: 3,
            social_index: SocialIndexConfig {
                leaf_size: 8,
                fanout: 3,
            },
            pivot_select: PivotSelectConfig {
                seed: self.seed,
                ..Default::default()
            },
            distance_cache: match cache {
                Cache::Off => None,
                Cache::Evicting => Some(DistanceCacheConfig {
                    ball_capacity: 2,
                    shards: 1,
                    ..Default::default()
                }),
                _ => Some(DistanceCacheConfig::default()),
            },
            page_cache_capacity: pool.then_some(8),
            obs: cell.obs.then(|| {
                Arc::new(Obs::new(ObsConfig {
                    metrics: true,
                    tracing: true,
                    trace_capacity: 1 << 16,
                }))
            }),
            ..Default::default()
        };
        cfg.road_index.build_ch = cell.ch;
        self.built.push((key, GpSsnEngine::build(self.ssn, cfg)));
        &self.built[self.built.len() - 1].1
    }
}

/// What every cell of one (mode, budget) must agree on, bit for bit.
#[derive(Clone, Debug, Default, PartialEq)]
struct Key {
    /// `exact`, `truncated`, or `error:<code>`: a `Failed` completion
    /// and an `Err` are the same record on the JSONL wire.
    completion: String,
    gap_bits: Option<u64>,
    /// `(users, pois, maxdist bits)`, best first.
    answers: Vec<(Vec<u32>, Vec<u32>, u64)>,
}

/// One query's run in one cell.
#[derive(Default)]
struct Run {
    key: Key,
    io_pages: Option<u64>,
    /// Ball cache hits, and CH batches (0 through JSONL).
    hits: u64,
    ch_batches: u64,
}

impl Run {
    fn error(code: &str) -> Run {
        let completion = format!("error:{code}");
        let key = Key {
            completion,
            ..Key::default()
        };
        Run {
            key,
            ..Run::default()
        }
    }

    fn of(result: &Result<QueryOutcome, GpSsnError>) -> Run {
        let out = match result {
            Err(e)
            | Ok(QueryOutcome {
                completion: Completion::Failed(e),
                ..
            }) => return Run::error(error_code(e)),
            Ok(out) => out,
        };
        let gap = match out.completion {
            Completion::TruncatedWithGap(gap) => Some(gap.to_bits()),
            _ => None,
        };
        let c = &out.metrics.counters;
        let answers = out.answers.iter();
        Run {
            key: Key {
                completion: out.completion.rung().to_string(),
                gap_bits: gap,
                answers: answers
                    .map(|a| (a.users.clone(), a.pois.clone(), a.maxdist.to_bits()))
                    .collect(),
            },
            io_pages: Some(c[Counter::IoPages]),
            hits: c[Counter::BallHits],
            ch_batches: c[Counter::ChBatches],
        }
    }

    /// Parses the `serve_jsonl` response to request `id`.
    fn of_line(line: &str, id: usize) -> Run {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"));
        let num = |key: &str| v.get(key).and_then(json::Value::as_f64);
        let text = |key: &str| v.get(key).and_then(json::Value::as_str).unwrap_or("");
        let ids = |key: &str| -> Vec<u32> {
            let list = v.get(key).and_then(json::Value::as_array).unwrap_or(&[]);
            list.iter()
                .filter_map(json::Value::as_f64)
                .map(|x| x as u32)
                .collect()
        };
        assert_eq!(num("id"), Some(id as f64), "response out of order: {line}");
        if text("status") == "error" {
            return Run::error(text("code"));
        }
        let best = num("maxdist").map(|d| (ids("users"), ids("pois"), d.to_bits()));
        Run {
            key: Key {
                completion: text("completion").to_string(),
                gap_bits: match v.get("gap") {
                    Some(json::Value::Null) => Some(f64::INFINITY.to_bits()),
                    _ => num("gap").map(f64::to_bits),
                },
                answers: best.into_iter().collect(),
            },
            io_pages: num("io_pages").map(|p| p as u64),
            ..Run::default()
        }
    }
}

fn run_cell(engine: &GpSsnEngine<'_>, cell: &Cell, queries: &[GpSsnQuery]) -> Vec<Run> {
    let prune = cell.options != Options::Unpruned;
    let opts = QueryOptions {
        mode: cell.mode,
        use_tight_mbr_test: cell.options == Options::TightMbr,
        use_interest_pruning: prune,
        use_social_distance_pruning: prune,
        use_matching_pruning: prune,
        use_delta_pruning: prune,
        ..Default::default()
    };
    let budget = QueryBudget {
        max_groups_enumerated: cell.groups,
        ..QueryBudget::unlimited()
    };
    match cell.entry {
        Entry::Single => queries
            .iter()
            .map(|q| Run::of(&engine.try_query(q, &opts, &budget)))
            .collect(),
        Entry::Batch => engine
            .try_query_batch(queries, THREADS, &opts, &budget)
            .iter()
            .map(Run::of)
            .collect(),
        Entry::Jsonl => {
            let mut input = String::new();
            for (i, q) in queries.iter().enumerate() {
                let GpSsnQuery {
                    user,
                    tau,
                    gamma,
                    theta,
                    radius,
                    ..
                } = q;
                input += &format!("{{\"id\":{i},\"user\":{user},\"tau\":{tau},\"gamma\":{gamma},\"theta\":{theta},\"r\":{radius}");
                if let Some(n) = cell.groups {
                    input += &format!(",\"max_groups\":{n}");
                }
                input += "}\n";
            }
            let cfg = ServeConfig {
                threads: THREADS,
                options: opts,
                ..Default::default()
            };
            let mut out = Vec::new();
            serve_jsonl(engine, &cfg, input.as_bytes(), &mut out).expect("no I/O errors");
            let out = String::from_utf8(out).expect("responses are UTF-8");
            let runs: Vec<Run> = out
                .lines()
                .enumerate()
                .map(|(i, l)| Run::of_line(l, i))
                .collect();
            assert_eq!(runs.len(), queries.len(), "one response per request");
            runs
        }
    }
}

/// The Baseline's view of one query.
struct Oracle {
    optimum: Option<f64>,
    /// The exhaustive top-`K` values, at τ ≤ 4 only (above that the
    /// oracle is too slow for a debug build).
    top: Option<Vec<f64>>,
}

/// What the harness saw, so that it can prove it checked something.
#[derive(Default)]
struct Tally {
    queries: usize,
    feasible: usize,
    ch_engaged: usize,
    /// `[mode][truncated, exact]` completions under a tiny budget.
    budgeted: [[usize; 2]; 2],
}

/// Holds one reference run to the Baseline.
fn check_reference(
    ssn: &SpatialSocialNetwork,
    q: &GpSsnQuery,
    cell: &Cell,
    key: &Key,
    oracle: &Oracle,
    tally: &mut Tally,
) {
    let what = format!("{q:?} {:?} groups {:?}: {key:?}", cell.mode, cell.groups);
    let mut pairs = Vec::new();
    for (users, pois, bits) in &key.answers {
        let maxdist = f64::from_bits(*bits);
        let (users, pois) = (users.clone(), pois.clone());
        let answer = GpSsnAnswer {
            users,
            pois,
            maxdist,
        };
        check_answer(ssn, q, &answer).unwrap_or_else(|e| panic!("{what}: invalid answer: {e}"));
        pairs.push((answer.users, answer.pois));
    }
    let values: Vec<f64> = key.answers.iter().map(|a| f64::from_bits(a.2)).collect();
    assert!(values.windows(2).all(|w| w[0] <= w[1]), "{what}: unsorted");
    pairs.sort();
    pairs.dedup();
    assert_eq!(pairs.len(), values.len(), "{what}: duplicate answers");
    let top_k = cell.mode == QueryMode::TopK(K);
    // The optimum of this cell's mode, when the oracle computed it.
    let expected: Option<Vec<f64>> = match top_k {
        false => Some(oracle.optimum.into_iter().collect()),
        true => oracle.top.clone(),
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match key.completion.as_str() {
        "exact" => {
            let first = values.first().map(|x| x.to_bits());
            assert_eq!(first, oracle.optimum.map(f64::to_bits), "{what}: optimum");
            if let Some(e) = &expected {
                assert_eq!(bits(&values), bits(e), "{what}: not the top-{K}");
            }
            if cell.groups.is_some() {
                tally.budgeted[top_k as usize][1] += 1;
            }
        }
        "truncated" => {
            assert!(cell.groups.is_some(), "{what}: truncated without a budget");
            tally.budgeted[top_k as usize][0] += 1;
            let gap = f64::from_bits(key.gap_bits.expect("a truncated run has a gap"));
            // The true k-th value (the optimum for Exact) is at least
            // the reported k-th value minus the gap.
            let k = if top_k { K } else { 1 };
            match (values.get(k - 1), &expected) {
                (Some(kth), Some(e)) => {
                    let true_kth = e.get(k - 1).copied().unwrap_or(f64::INFINITY);
                    assert!(kth - gap <= true_kth, "{what}: gap {gap} unsound");
                }
                (Some(_), None) => {}
                (None, _) => assert!(top_k && gap == f64::INFINITY, "{what}"),
            }
        }
        "error:infeasible" => assert_eq!(oracle.optimum, None, "{what}"),
        _ => assert!(
            cell.groups.is_some() && key.completion == "error:budget_exhausted",
            "{what}: unexpected completion"
        ),
    }
}

fn check_family(config: SyntheticConfig, seeds: std::ops::Range<u64>) {
    let config = config.scaled(0.004);
    let mut tally = Tally::default();
    for seed in seeds {
        let ssn = synthetic(&config, seed);
        // The shared parameter grid (τ 1–3) plus τ 4–6, where tiny
        // budgets truncate.
        let mut queries = corpus(&ssn, seed);
        let user = (seed as u32 + 1) % ssn.social().num_users() as u32;
        for tau in 4..=6 {
            queries.push(GpSsnQuery {
                user,
                tau,
                gamma: 0.5,
                theta: 0.4,
                radius: 2.0,
            });
        }
        let oracles: Vec<Oracle> = queries
            .iter()
            .map(|q| Oracle {
                optimum: exact_baseline(&ssn, q).map(|a| a.maxdist),
                top: (q.tau <= 4).then(|| {
                    let top = exact_baseline_top_k(&ssn, q, K);
                    top.iter().map(|a| a.maxdist).collect()
                }),
            })
            .collect();
        tally.queries += queries.len();
        tally.feasible += oracles.iter().filter(|o| o.optimum.is_some()).count();
        let mut engines = Engines {
            ssn: &ssn,
            seed,
            built: Vec::new(),
        };

        let mut references: Vec<(Cell, Vec<Run>)> = Vec::new();
        for (mode, groups) in MODES.into_iter().flat_map(|m| BUDGETS.map(|b| (m, b))) {
            let cell = Cell {
                mode,
                groups,
                ..REFERENCE
            };
            let runs = run_cell(engines.get(&cell), &cell, &queries);
            for ((q, run), oracle) in queries.iter().zip(&runs).zip(&oracles) {
                check_reference(&ssn, q, &cell, &run.key, oracle, &mut tally);
            }
            if cell == REFERENCE {
                tally.ch_engaged += runs.iter().filter(|r| r.ch_batches > 0).count();
            }
            references.push((cell, runs));
        }

        for cell in variations() {
            let runs = run_cell(engines.get(&cell), &cell, &queries);
            let (_, want) = references
                .iter()
                .find(|(r, _)| (r.mode, r.groups) == (cell.mode, cell.groups))
                .expect("a reference for every (mode, budget)");
            // With the cache off, the observability and entry-point axes
            // read the reference's pages too.
            let same_pages =
                cell.ch && cell.cache == Cache::Off && cell.options == Options::Default;
            for ((q, got), want) in queries.iter().zip(&runs).zip(want) {
                let what = format!("seed {seed} {q:?} {cell:?}");
                let mut expected = want.key.clone();
                if cell.entry == Entry::Jsonl {
                    // A response line carries the best answer only.
                    expected.answers.truncate(1);
                }
                assert_eq!(got.key, expected, "{what}");
                if same_pages {
                    assert_eq!(got.io_pages, want.io_pages, "{what}: pages differ");
                }
                assert!(cell.ch || got.ch_batches == 0, "{what}: CH-less served CH");
                assert!(
                    cell.cache != Cache::Warm || got.hits > 0 || got.key.answers.is_empty(),
                    "{what}: the warm pass never hit the cache"
                );
            }
        }
    }
    let Tally {
        queries,
        feasible,
        ch_engaged,
        budgeted,
    } = tally;
    assert!(queries >= 200, "corpus too small: {queries}");
    assert!(feasible >= 10, "too few feasible queries: {feasible}");
    assert!(ch_engaged >= 10, "CH barely engaged: {ch_engaged} queries");
    for (mode, [truncated, exact]) in MODES.iter().zip(budgeted) {
        assert!(
            truncated > 0 && exact > 0,
            "{mode:?} under a tiny budget: {truncated} truncated, {exact} exact"
        );
    }
}

#[test]
fn uni_every_cell_matches_the_baseline_checked_reference() {
    check_family(SyntheticConfig::uni(), 0..6);
}

#[test]
fn zipf_every_cell_matches_the_baseline_checked_reference() {
    check_family(SyntheticConfig::zipf(), 20..24);
}
