//! Typed errors, resource budgets, and completion reporting for
//! fault-tolerant query serving.
//!
//! The engine's `try_*` entry points return [`GpSsnError`] instead of
//! panicking, accept a [`QueryBudget`] bounding wall-clock time and the
//! three dominant work units (best-first heap pops, connected-subset
//! enumerations, Dijkstra settles), and report how the answer terminated
//! via [`Completion`]: a tripped budget degrades into an *anytime* answer
//! — the best verified `(S, R)` pair so far plus an optimality-gap bound
//! derived from the smallest outstanding `lb_maxdist` (Eq. 17), which
//! lower-bounds every answer the truncated search did not examine.
//!
//! [`BudgetState`] is the per-query metering object threaded through the
//! traversal, refinement, sampling, and baseline code paths. Checks are
//! cheap: saturating counter bumps, with the clock consulted only every
//! [`DEADLINE_CHECK_PERIOD`] events.

use crate::stats::{Counter, QueryCounters};
use gpssn_social::UserId;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Everything that can go wrong while serving a GP-SSN query.
#[derive(Debug, Clone, PartialEq)]
pub enum GpSsnError {
    /// The query parameters fail [`crate::GpSsnQuery::validate`].
    InvalidQuery(String),
    /// The query radius falls outside the `[r_min, r_max]` range the road
    /// index was built for.
    RadiusOutOfIndexRange {
        /// The requested radius.
        radius: f64,
        /// Smallest radius the index supports.
        r_min: f64,
        /// Largest radius the index supports.
        r_max: f64,
    },
    /// The query user id is not a vertex of the social network.
    UnknownUser {
        /// The requested user id.
        user: UserId,
        /// Number of users in the network.
        num_users: usize,
    },
    /// No answer can exist, with a proof sketch (e.g. `τ` exceeds the
    /// user population, or the query user has no friends and `τ ≥ 2`).
    Infeasible {
        /// Why no feasible answer exists.
        reason: String,
    },
    /// The [`QueryBudget::deadline`] elapsed before the search finished
    /// and no verified answer was available to degrade to.
    DeadlineExceeded,
    /// A work-unit budget ran out before the search finished and no
    /// verified answer was available to degrade to.
    BudgetExhausted {
        /// Which budget tripped (`"heap pops"`, `"groups enumerated"`,
        /// `"dijkstra settles"`).
        resource: &'static str,
    },
    /// The serving layer's bounded submission queue was full and the
    /// overload policy sheds instead of blocking; the request never
    /// reached the engine. Only produced by [`crate::serve()`].
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The request's deadline had already expired before any engine work
    /// was spent on it (at submission, or after waiting in the serving
    /// queue), so admission control shed it. Distinct from
    /// [`GpSsnError::DeadlineExceeded`], which reports a deadline that
    /// tripped *mid-query*. Only produced by [`crate::serve()`].
    DeadlineExpired,
    /// A persisted index failed its per-section checksum (or parse) on
    /// load. `section` names the corrupt section (`"cfg"`, `"pivots"`,
    /// `"pois"`, `"ch"`); a corrupt `ch` section is recoverable by
    /// rebuilding the oracle from the road graph (see
    /// `gpssn_index::load_road_index_healing`).
    IndexCorrupt {
        /// Which serialized section failed verification.
        section: String,
    },
    /// A query panicked inside a serve call; the payload message is
    /// preserved. Produced by [`crate::serve()`] (and so by
    /// [`crate::GpSsnEngine::try_query_batch`]), which isolates the panic
    /// to the offending request.
    Internal(String),
}

impl std::fmt::Display for GpSsnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpSsnError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            GpSsnError::RadiusOutOfIndexRange {
                radius,
                r_min,
                r_max,
            } => {
                write!(
                    f,
                    "radius {radius} outside the index's [{r_min}, {r_max}] range"
                )
            }
            GpSsnError::UnknownUser { user, num_users } => {
                write!(
                    f,
                    "unknown user {user} (social network has {num_users} users)"
                )
            }
            GpSsnError::Infeasible { reason } => write!(f, "query is infeasible: {reason}"),
            GpSsnError::DeadlineExceeded => write!(f, "deadline exceeded"),
            GpSsnError::BudgetExhausted { resource } => {
                write!(f, "resource budget exhausted: {resource}")
            }
            GpSsnError::Overloaded { depth, capacity } => {
                write!(
                    f,
                    "service overloaded: submission queue at depth {depth} of capacity {capacity}"
                )
            }
            GpSsnError::DeadlineExpired => {
                write!(f, "deadline expired before the query started")
            }
            GpSsnError::IndexCorrupt { section } => {
                write!(f, "index corrupt: section {section:?} failed verification")
            }
            GpSsnError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for GpSsnError {}

/// How a query terminated.
#[derive(Debug, Clone, PartialEq)]
pub enum Completion {
    /// The search ran to completion: the answer (or its absence) is the
    /// exact optimum.
    Exact,
    /// A budget tripped mid-search. The reported answer is the best
    /// verified one and the true optimum `opt` satisfies
    /// `answer.maxdist - gap <= opt <= answer.maxdist`. For top-k queries
    /// with fewer than `k` answers found, the gap is `f64::INFINITY`.
    TruncatedWithGap(f64),
    /// The exact pipeline could not produce an answer (fault or budget
    /// trip with nothing verified) and the degradation ladder served
    /// one from the sampling estimator instead (the paper's §6.3
    /// baseline device). The answer satisfies every query constraint —
    /// it passes `check_answer` — but its `maxdist` is only an upper
    /// bound on the optimum, with no gap estimate. Only produced when
    /// [`crate::DegradationPolicy::Ladder`] is selected.
    DegradedSampling,
    /// A budget tripped before any answer was verified; the error names
    /// the tripped resource.
    Failed(GpSsnError),
}

impl Completion {
    /// Whether the result is the exact optimum.
    pub fn is_exact(&self) -> bool {
        matches!(self, Completion::Exact)
    }

    /// The degradation-ladder rung this completion was served from, as
    /// a stable label: `"exact"`, `"truncated"`, `"sampling"`, or
    /// `"failed"` (used for exit codes and the
    /// `gpssn_degraded_rung_total` counter).
    pub fn rung(&self) -> &'static str {
        match self {
            Completion::Exact => "exact",
            Completion::TruncatedWithGap(_) => "truncated",
            Completion::DegradedSampling => "sampling",
            Completion::Failed(_) => "failed",
        }
    }
}

/// Resource limits for one query. The default is unlimited (every field
/// `None`), which makes the budgeted code paths behave exactly like the
/// unbudgeted ones.
///
/// The limits bound the query's own search. When the degradation
/// ladder's sampling rescue runs, it works under a fixed budget of its
/// own, and a [`Completion::DegradedSampling`] outcome's counters include
/// that work too, so they can exceed these limits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryBudget {
    /// Wall-clock deadline, measured from query start.
    pub deadline: Option<Duration>,
    /// Cap on best-first heap pops (road-index traversal, Eq. 17 order):
    /// every traversal pop, `δ`-cut or not, and every deferred node the
    /// fallback expands. Centers are not charged.
    pub max_heap_pops: Option<u64>,
    /// Cap on group-enumeration work, the only bound on it: one unit per
    /// admission check of an enabled user by the feasibility kernel
    /// (refinement probes, the feasibility pre-check, the Baseline), per
    /// group the sampler draws, and per (group, ball) pair the Baseline
    /// scores.
    pub max_groups_enumerated: Option<u64>,
    /// Cap on vertices settled by refinement-time distance batches:
    /// every settle of a plain Dijkstra batch, and the forward
    /// upward-sweep settles of a contraction-hierarchy batch (its
    /// target-label scans read a precomputed table and are not
    /// charged; see `gpssn_graph::ChOracle::batch_dists`).
    pub max_dijkstra_settles: Option<u64>,
}

impl QueryBudget {
    /// No limits at all (same as `Default`).
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// Only a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        QueryBudget {
            deadline: Some(deadline),
            ..Default::default()
        }
    }

    /// Whether every limit is absent.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_heap_pops.is_none()
            && self.max_groups_enumerated.is_none()
            && self.max_dijkstra_settles.is_none()
    }
}

/// Which budget tripped first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trip {
    /// The wall-clock deadline elapsed.
    Deadline,
    /// [`QueryBudget::max_heap_pops`] ran out.
    HeapPops,
    /// [`QueryBudget::max_groups_enumerated`] ran out.
    Groups,
    /// [`QueryBudget::max_dijkstra_settles`] ran out.
    DijkstraSettles,
}

impl From<Trip> for GpSsnError {
    fn from(t: Trip) -> GpSsnError {
        match t {
            Trip::Deadline => GpSsnError::DeadlineExceeded,
            Trip::HeapPops => GpSsnError::BudgetExhausted {
                resource: "heap pops",
            },
            Trip::Groups => GpSsnError::BudgetExhausted {
                resource: "groups enumerated",
            },
            Trip::DijkstraSettles => GpSsnError::BudgetExhausted {
                resource: "dijkstra settles",
            },
        }
    }
}

/// The clock is consulted once per this many counted events (and once per
/// chunky operation), keeping the common-case budget check branch-and-add
/// cheap.
pub const DEADLINE_CHECK_PERIOD: u64 = 64;

/// Per-query budget metering. Cheap to consult; once any limit trips the
/// state is sticky — every later check reports the same [`Trip`] so the
/// whole pipeline unwinds cooperatively.
///
/// The meter also holds the query's shared counts: one cell per
/// [`Counter`], read back once with [`BudgetState::snapshot`]. One
/// instance serves exactly one query, on the thread running it, so the
/// state is plain [`Cell`]s behind `&self` (the meter is not `Sync`).
///
/// Settles are one unit across distance backends: a Dijkstra batch
/// charges every vertex it settles; a contraction-hierarchy batch
/// charges the vertices its forward upward sweeps settle and nothing
/// for scanning the targets' precomputed upward labels (a table read
/// of a few entries per target, bounded by the target count).
#[derive(Debug)]
pub struct BudgetState {
    deadline_at: Option<Instant>,
    max_pops: u64,
    max_groups: u64,
    max_settles: u64,
    /// The first trip (sticky).
    tripped: Cell<Option<Trip>>,
    counts: [Cell<u64>; Counter::COUNT],
}

impl BudgetState {
    /// Starts metering `budget` from now.
    pub fn new(budget: &QueryBudget) -> Self {
        BudgetState {
            deadline_at: budget.deadline.map(|d| Instant::now() + d),
            max_pops: budget.max_heap_pops.unwrap_or(u64::MAX),
            max_groups: budget.max_groups_enumerated.unwrap_or(u64::MAX),
            max_settles: budget.max_dijkstra_settles.unwrap_or(u64::MAX),
            tripped: Cell::new(None),
            counts: std::array::from_fn(|_| Cell::new(0)),
        }
    }

    /// A meter that never trips (counters still accumulate).
    pub fn unlimited() -> Self {
        BudgetState::new(&QueryBudget::unlimited())
    }

    /// Records one best-first heap pop; returns the trip if any budget is
    /// now (or was already) exhausted. A budget of `N` admits exactly `N`
    /// pops: the `N+1`-th attempt trips *without* being counted, so this
    /// meter's [`Counter::HeapPops`] never exceeds the budget. (The
    /// degradation ladder's sampling rescue meters its own pops under a
    /// fixed budget of its own and adds them to the query's counters, so
    /// a [`crate::Completion::DegradedSampling`] outcome may report more
    /// pops than the query's budget.)
    #[inline]
    pub fn note_pop(&self) -> Option<Trip> {
        self.note_counted(Counter::HeapPops, self.max_pops, Trip::HeapPops)
    }

    /// Records one unit of group-enumeration work (see
    /// [`QueryBudget::max_groups_enumerated`]); returns the trip if any
    /// budget is now (or was already) exhausted. As with [`Self::note_pop`],
    /// the tripping attempt itself is not counted.
    #[inline]
    pub fn note_group(&self) -> Option<Trip> {
        self.note_counted(Counter::GroupsEnumerated, self.max_groups, Trip::Groups)
    }

    #[inline]
    fn note_counted(&self, c: Counter, max: u64, kind: Trip) -> Option<Trip> {
        if let Some(t) = self.trip() {
            return Some(t);
        }
        let counter = &self.counts[c as usize];
        let n = counter.get();
        if n >= max {
            // The tripping attempt is not counted, so the reported
            // metric never exceeds the budget.
            return self.trip_now(kind);
        }
        counter.set(n + 1);
        if (n + 1).is_multiple_of(DEADLINE_CHECK_PERIOD) {
            return self.check_deadline();
        }
        None
    }

    /// Records `n` vertices settled on `backend` ([`Counter::DijkstraSettles`]
    /// or [`Counter::ChSettles`]) and charges them against the settle
    /// budget, which caps the two backends' sum; returns the trip if any
    /// budget is now (or was already) exhausted. The settles already ran,
    /// so they are counted even on a tripped meter. Distance batches are
    /// chunky, so the deadline is consulted on every call.
    #[inline]
    pub fn add_settles(&self, backend: Counter, n: u64) -> Option<Trip> {
        let other = match backend {
            Counter::ChSettles => Counter::DijkstraSettles,
            _ => Counter::ChSettles,
        };
        let own = self.counts[backend as usize].get().saturating_add(n);
        self.counts[backend as usize].set(own);
        let total = own.saturating_add(self.counts[other as usize].get());
        if let Some(t) = self.trip() {
            return Some(t);
        }
        if total > self.max_settles {
            return self.trip_now(Trip::DijkstraSettles);
        }
        self.check_deadline()
    }

    /// Adds `n` to counter `c` — pure bookkeeping, charged against no
    /// budget (pops, groups and settles go through [`Self::note_pop`],
    /// [`Self::note_group`] and [`Self::add_settles`]).
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        let cell = &self.counts[c as usize];
        cell.set(cell.get().wrapping_add(n));
    }

    /// The counts recorded so far.
    pub fn snapshot(&self) -> QueryCounters {
        let mut out = QueryCounters::default();
        for &c in Counter::ALL {
            out[c] = self.counts[c as usize].get();
        }
        out
    }

    /// Re-checks the sticky trip state and the deadline without charging
    /// any work (used between pipeline stages).
    #[inline]
    pub fn check(&self) -> Option<Trip> {
        if let Some(t) = self.trip() {
            return Some(t);
        }
        self.check_deadline()
    }

    /// Whether any budget has tripped.
    pub fn is_tripped(&self) -> bool {
        self.trip().is_some()
    }

    /// The first trip, if any.
    pub fn trip(&self) -> Option<Trip> {
        self.tripped.get()
    }

    #[inline]
    fn check_deadline(&self) -> Option<Trip> {
        match self.deadline_at {
            Some(at) if Instant::now() >= at => self.trip_now(Trip::Deadline),
            _ => None,
        }
    }

    fn trip_now(&self, t: Trip) -> Option<Trip> {
        // First trip wins: a later (possibly different) trip keeps
        // reporting the original cause.
        if self.tripped.get().is_none() {
            self.tripped.set(Some(t));
        }
        self.tripped.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = BudgetState::unlimited();
        for _ in 0..10_000 {
            assert_eq!(b.note_pop(), None);
            assert_eq!(b.note_group(), None);
        }
        assert_eq!(b.add_settles(Counter::DijkstraSettles, 1 << 40), None);
        assert!(!b.is_tripped());
        let c = b.snapshot();
        assert_eq!(c[Counter::HeapPops], 10_000);
        assert_eq!(c[Counter::GroupsEnumerated], 10_000);
        assert_eq!(c.total_settles(), 1 << 40);
    }

    #[test]
    fn pop_budget_trips_and_sticks() {
        let b = BudgetState::new(&QueryBudget {
            max_heap_pops: Some(3),
            ..Default::default()
        });
        assert_eq!(b.note_pop(), None);
        assert_eq!(b.note_pop(), None);
        assert_eq!(b.note_pop(), None);
        assert_eq!(b.note_pop(), Some(Trip::HeapPops));
        // Sticky: every later check reports the same trip.
        assert_eq!(b.note_group(), Some(Trip::HeapPops));
        assert_eq!(b.add_settles(Counter::ChSettles, 1), Some(Trip::HeapPops));
        assert_eq!(b.check(), Some(Trip::HeapPops));
        // The tripping attempt is never counted: metrics stay <= budget.
        assert_eq!(b.snapshot()[Counter::HeapPops], 3);
    }

    #[test]
    fn group_and_settle_budgets_trip() {
        let b = BudgetState::new(&QueryBudget {
            max_groups_enumerated: Some(2),
            ..Default::default()
        });
        assert_eq!(b.note_group(), None);
        assert_eq!(b.note_group(), None);
        assert_eq!(b.note_group(), Some(Trip::Groups));

        let b = BudgetState::new(&QueryBudget {
            max_dijkstra_settles: Some(10),
            ..Default::default()
        });
        // The cap covers both backends' sum.
        assert_eq!(b.add_settles(Counter::DijkstraSettles, 6), None);
        assert_eq!(b.add_settles(Counter::ChSettles, 4), None);
        assert_eq!(
            b.add_settles(Counter::ChSettles, 1),
            Some(Trip::DijkstraSettles)
        );
    }

    #[test]
    fn zero_deadline_trips_on_first_period() {
        let b = BudgetState::new(&QueryBudget::with_deadline(Duration::ZERO));
        // The deadline is only consulted every DEADLINE_CHECK_PERIOD pops.
        let mut tripped = false;
        for _ in 0..DEADLINE_CHECK_PERIOD {
            if b.note_pop().is_some() {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
        assert_eq!(b.trip(), Some(Trip::Deadline));
        // check() consults the clock immediately.
        let b2 = BudgetState::new(&QueryBudget::with_deadline(Duration::ZERO));
        assert_eq!(b2.check(), Some(Trip::Deadline));
    }

    #[test]
    fn errors_display_one_line() {
        let cases: Vec<GpSsnError> = vec![
            GpSsnError::InvalidQuery("tau must be at least 1".into()),
            GpSsnError::RadiusOutOfIndexRange {
                radius: 9.0,
                r_min: 0.5,
                r_max: 4.0,
            },
            GpSsnError::UnknownUser {
                user: 7,
                num_users: 3,
            },
            GpSsnError::Infeasible {
                reason: "tau exceeds population".into(),
            },
            GpSsnError::DeadlineExceeded,
            GpSsnError::Overloaded {
                depth: 128,
                capacity: 128,
            },
            GpSsnError::DeadlineExpired,
            Trip::HeapPops.into(),
            Trip::Groups.into(),
            Trip::DijkstraSettles.into(),
            GpSsnError::IndexCorrupt {
                section: "ch".into(),
            },
            GpSsnError::Internal("boom".into()),
        ];
        for e in cases {
            let line = e.to_string();
            assert!(!line.is_empty() && !line.contains('\n'), "{line:?}");
        }
    }

    #[test]
    fn budget_constructors() {
        assert!(QueryBudget::unlimited().is_unlimited());
        let d = QueryBudget::with_deadline(Duration::from_millis(5));
        assert!(!d.is_unlimited());
        assert_eq!(d.max_heap_pops, None);
    }
}
