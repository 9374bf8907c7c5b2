//! The three workloads: which dataset each serves, how its requests
//! arrive, and the outcome every request is designed to get.
//!
//! The dataset of a workload is one fixed instance (like the paper's
//! single dataset per figure); `--seed` draws the request stream. The
//! warm-up stream comes from the same generator under a different seed,
//! so it never replays the measured stream.

use gpssn_core::GpSsnQuery;
use gpssn_ssn::{DatasetKind, SpatialSocialNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dataset scale of every workload (×0.1 of the paper's sizes).
pub const SCALE: f64 = 0.1;
/// Seed of each workload's fixed dataset instance.
pub const DATASET_SEED: u64 = 1;
/// Offered rate of the open-loop `serve-light` workload, requests per
/// second: about a twentieth of what one worker sustains on it.
pub const LIGHT_RATE: f64 = 5_000.0;
/// `serve-light` requests arrive in bursts of this many every
/// `LIGHT_BURST / LIGHT_RATE` seconds (40 ms). Requests then queue
/// behind the rest of their burst, so latency measures serve-path work
/// rather than the thread wake-up jitter a lone request would see. A
/// burst fits the service's default queue (256), so the generator never
/// blocks on a full queue and the worker never sleeps inside a burst.
/// A burst is exactly one latency window, so each window's percentiles
/// describe one burst and a host stall that hits a burst moves only
/// that window.
pub const LIGHT_BURST: usize = crate::stats::WINDOW;
/// XORed into `--seed` to derive the warm-up stream's seed.
const WARMUP_SALT: u64 = 0x5741_524d_5550_0001;

/// The re-planning session of `gowcol-replan`: one user adjusts the
/// matching threshold θ and the radius r over five consecutive queries.
pub const REPLAN_STEPS: [(f64, f64); 5] =
    [(0.5, 2.0), (0.4, 2.5), (0.6, 1.5), (0.3, 2.0), (0.5, 3.0)];

/// Lines that are not valid requests; each must come back
/// `invalid_query`. None mentions `"control"`, which would make it a
/// control line instead.
const MALFORMED: [&str; 6] = [
    "not json",
    "{\"user\":-1}",
    "{\"tau\":5}",
    "{\"user\":7,\"tau\":2.5}",
    "[1,2,3]",
    "{\"user\":12,",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    UniDefault,
    GowcolReplan,
    ServeLight,
}

impl Name {
    pub const ALL: [Name; 3] = [Name::UniDefault, Name::GowcolReplan, Name::ServeLight];

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Name::UniDefault => "uni-default",
            Name::GowcolReplan => "gowcol-replan",
            Name::ServeLight => "serve-light",
        }
    }

    pub fn dataset_kind(self) -> DatasetKind {
        match self {
            Name::GowcolReplan => DatasetKind::GowCol,
            Name::UniDefault | Name::ServeLight => DatasetKind::Uni,
        }
    }

    pub fn dataset(self) -> SpatialSocialNetwork {
        self.dataset_kind().build(SCALE, DATASET_SEED)
    }

    /// How requests arrive with `nproc` cores.
    pub fn discipline(self, nproc: usize) -> Discipline {
        match self {
            Name::UniDefault | Name::GowcolReplan => Discipline::Closed { clients: nproc },
            Name::ServeLight => Discipline::Open {
                rate: LIGHT_RATE,
                burst: LIGHT_BURST,
            },
        }
    }

    /// Serve workers with `nproc` cores. The closed loops use every
    /// core. In the open loop the submitting thread, which generates,
    /// parses and admits every line, keeps one core to itself
    /// (`drive` pins it there), so serve work is never time-sliced
    /// against it.
    pub fn workers(self, nproc: usize) -> usize {
        match self {
            Name::UniDefault | Name::GowcolReplan => nproc,
            Name::ServeLight => nproc.saturating_sub(1).max(1),
        }
    }

    /// Lines per warm-up round: enough work that one round moves the
    /// distance cache visibly when the workload uses it.
    pub fn warmup_round(self, nproc: usize) -> usize {
        match self {
            Name::UniDefault => 4 * nproc,
            Name::GowcolReplan => 2 * REPLAN_STEPS.len() * nproc,
            Name::ServeLight => 2_000,
        }
    }

    /// The measured stream for `seed`.
    pub fn stream(
        self,
        ssn: &SpatialSocialNetwork,
        seed: u64,
        nproc: usize,
        len: usize,
    ) -> Vec<Line> {
        let mut rng = StdRng::seed_from_u64(seed);
        let users = UserPool::new(ssn);
        match self {
            Name::UniDefault => {
                let mut order = users.cycle(&mut rng);
                (0..len)
                    .map(|k| {
                        Line::query(
                            k,
                            GpSsnQuery::with_defaults(order.next_user(&mut rng)),
                            false,
                        )
                    })
                    .collect()
            }
            Name::GowcolReplan => {
                // Line k belongs to client k mod C; that client's j-th
                // request is step j mod 5 of its session j / 5. Session
                // users are drawn in (session, client) order.
                let clients = nproc.max(1);
                let steps = REPLAN_STEPS.len();
                let mut order = users.cycle(&mut rng);
                let mut session_users: Vec<u32> = Vec::new();
                (0..len)
                    .map(|k| {
                        let (client, j) = (k % clients, k / clients);
                        let slot = (j / steps) * clients + client;
                        while session_users.len() <= slot {
                            session_users.push(order.next_user(&mut rng));
                        }
                        let (theta, radius) = REPLAN_STEPS[j % steps];
                        let q = GpSsnQuery {
                            theta,
                            radius,
                            ..GpSsnQuery::with_defaults(session_users[slot])
                        };
                        Line::query(k, q, false)
                    })
                    .collect()
            }
            Name::ServeLight => (0..len)
                .map(|k| {
                    let roll = rng.gen_range(0..100u32);
                    if roll < 5 {
                        Line {
                            text: MALFORMED[rng.gen_range(0..MALFORMED.len())].to_string(),
                            expect: Expect::InvalidQuery,
                            query: None,
                        }
                    } else {
                        let q = GpSsnQuery {
                            gamma: 0.9,
                            ..GpSsnQuery::with_defaults(users.any(&mut rng))
                        };
                        Line::query(k, q, roll < 10)
                    }
                })
                .collect(),
        }
    }

    /// The warm-up stream for `seed`: same generator, disjoint seed.
    pub fn warmup_stream(
        self,
        ssn: &SpatialSocialNetwork,
        seed: u64,
        nproc: usize,
        len: usize,
    ) -> Vec<Line> {
        self.stream(ssn, seed ^ WARMUP_SALT, nproc, len)
    }
}

/// How the benchmark releases request lines to the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Discipline {
    /// `clients` callers that each wait for their own reply: line k is
    /// released only after response k − clients has been written.
    Closed { clients: usize },
    /// Arrivals at a fixed rate, independent of replies, in bursts of
    /// `burst` lines: line k is due (k − k mod burst) / rate seconds
    /// after the first.
    Open { rate: f64, burst: usize },
}

/// What a line is designed to get back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `status:ok` with an exact completion (an empty answer included).
    Exact,
    /// `invalid_query`: the line is not a well-formed request.
    InvalidQuery,
    /// `deadline_expired`: the request carries `timeout_ms:0`.
    DeadlineExpired,
}

/// One request line and its design.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub text: String,
    pub expect: Expect,
    /// The query a well-formed line asks.
    pub query: Option<GpSsnQuery>,
}

impl Line {
    /// A well-formed request at 0-based position `k`; its id is the
    /// 1-based line number, the id the service gives malformed lines.
    fn query(k: usize, q: GpSsnQuery, dead_on_arrival: bool) -> Line {
        let mut text = format!(
            "{{\"id\":{},\"user\":{},\"tau\":{},\"gamma\":{},\"theta\":{},\"r\":{}",
            k + 1,
            q.user,
            q.tau,
            q.gamma,
            q.theta,
            q.radius
        );
        if dead_on_arrival {
            text.push_str(",\"timeout_ms\":0");
        }
        text.push('}');
        Line {
            text,
            expect: if dead_on_arrival {
                Expect::DeadlineExpired
            } else {
                Expect::Exact
            },
            query: Some(q),
        }
    }
}

/// Social-degree strata of the user pool (see [`UserPool::cycle`]).
const STRATA: usize = 16;

/// Users with at least one friend: every query from them is feasible
/// to start (a friendless user with τ ≥ 2 is a typed `infeasible`).
/// They are sorted by social degree and cut into [`STRATA`] groups of
/// near-equal size.
struct UserPool {
    strata: Vec<Vec<u32>>,
}

impl UserPool {
    fn new(ssn: &SpatialSocialNetwork) -> Self {
        let graph = ssn.social().graph();
        let mut users: Vec<u32> = (0..ssn.social().num_users() as u32)
            .filter(|&u| !graph.neighbors(u).is_empty())
            .collect();
        users.sort_by_key(|&u| (graph.neighbors(u).len(), u));
        let (n, k) = (users.len(), STRATA.min(users.len()).max(1));
        UserPool {
            strata: (0..k)
                .map(|i| users[i * n / k..(i + 1) * n / k].to_vec())
                .collect(),
        }
    }

    fn any(&self, rng: &mut StdRng) -> u32 {
        let s = &self.strata[rng.gen_range(0..self.strata.len())];
        s[rng.gen_range(0..s.len())]
    }

    /// Distinct users in a seeded order in which every [`STRATA`]
    /// consecutive users hold one user of each degree stratum.
    /// Query cost grows with the user's social neighbourhood, so a run
    /// of any length sees nearly the same degree mix whatever the seed,
    /// which narrows the seed-to-seed spread of the figures. The order
    /// is redrawn when exhausted.
    fn cycle(&self, rng: &mut StdRng) -> Cycle {
        let mut c = Cycle {
            strata: self.strata.clone(),
            order: Vec::new(),
            next: 0,
        };
        c.deal(rng);
        c
    }
}

struct Cycle {
    strata: Vec<Vec<u32>>,
    order: Vec<u32>,
    next: usize,
}

impl Cycle {
    /// Shuffles every stratum, then deals one user of each stratum per
    /// round, the strata in a fresh shuffled order every round.
    fn deal(&mut self, rng: &mut StdRng) {
        for s in &mut self.strata {
            shuffle(s, rng);
        }
        let rounds = self.strata.iter().map(Vec::len).max().unwrap_or(0);
        let mut picks: Vec<usize> = (0..self.strata.len()).collect();
        self.order.clear();
        for r in 0..rounds {
            shuffle(&mut picks, rng);
            self.order
                .extend(picks.iter().filter_map(|&s| self.strata[s].get(r)));
        }
        self.next = 0;
    }

    fn next_user(&mut self, rng: &mut StdRng) -> u32 {
        if self.next == self.order.len() {
            self.deal(rng);
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        for name in Name::ALL {
            let ssn = name.dataset();
            let a = name.stream(&ssn, 7, 2, 300);
            assert_eq!(a, name.stream(&ssn, 7, 2, 300), "{name:?}");
            assert_ne!(a, name.stream(&ssn, 8, 2, 300), "{name:?}");
            assert_ne!(a, name.warmup_stream(&ssn, 7, 2, 300), "{name:?}");
        }
    }

    #[test]
    fn datasets_are_deterministic() {
        let a = Name::UniDefault.dataset();
        let b = Name::UniDefault.dataset();
        assert_eq!(a.social().num_users(), 3_000);
        let stream = |ssn| Name::UniDefault.stream(ssn, 3, 2, 50);
        assert_eq!(stream(&a), stream(&b));
    }

    #[test]
    fn uni_default_asks_the_paper_default_of_distinct_users() {
        let ssn = Name::UniDefault.dataset();
        let lines = Name::UniDefault.stream(&ssn, 1, 2, 500);
        let mut users: Vec<u32> = lines
            .iter()
            .map(|l| l.query.as_ref().unwrap().user)
            .collect();
        for l in &lines {
            assert_eq!(l.expect, Expect::Exact);
            let q = l.query.as_ref().unwrap();
            assert_eq!(*q, GpSsnQuery::with_defaults(q.user));
        }
        users.sort_unstable();
        users.dedup();
        assert_eq!(users.len(), 500);
    }

    #[test]
    fn every_block_of_users_spans_the_degree_strata() {
        let ssn = Name::GowcolReplan.dataset();
        let pool = UserPool::new(&ssn);
        let stratum = |u: u32| pool.strata.iter().position(|s| s.contains(&u)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut order = pool.cycle(&mut rng);
        for _ in 0..10 {
            let mut seen: Vec<usize> = (0..STRATA)
                .map(|_| stratum(order.next_user(&mut rng)))
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..STRATA).collect::<Vec<_>>());
        }
    }

    #[test]
    fn replan_sessions_follow_each_client() {
        let ssn = Name::GowcolReplan.dataset();
        let clients = 2;
        let lines = Name::GowcolReplan.stream(&ssn, 4, clients, 40);
        for (k, l) in lines.iter().enumerate() {
            let q = l.query.as_ref().unwrap();
            let j = k / clients;
            assert_eq!((q.theta, q.radius), REPLAN_STEPS[j % REPLAN_STEPS.len()]);
            // Every step of a session asks for the session's user.
            let first = k - (j % REPLAN_STEPS.len()) * clients;
            assert_eq!(q.user, lines[first].query.as_ref().unwrap().user);
        }
        assert_ne!(
            lines[0].query.as_ref().unwrap().user,
            lines[1].query.as_ref().unwrap().user
        );
    }

    #[test]
    fn serve_light_mixes_designed_errors() {
        let ssn = Name::ServeLight.dataset();
        let lines = Name::ServeLight.stream(&ssn, 9, 2, 20_000);
        let share = |e| lines.iter().filter(|l| l.expect == e).count() as f64 / 20_000.0;
        assert!((share(Expect::InvalidQuery) - 0.05).abs() < 0.01);
        assert!((share(Expect::DeadlineExpired) - 0.05).abs() < 0.01);
        for l in &lines {
            assert!(!l.text.contains("control"));
            match l.expect {
                Expect::InvalidQuery => assert!(l.query.is_none()),
                Expect::DeadlineExpired => assert!(l.text.contains("\"timeout_ms\":0")),
                Expect::Exact => assert_eq!(l.query.as_ref().unwrap().gamma, 0.9),
            }
        }
    }
}
