//! Shared experiment plumbing: context, engine construction, query
//! sampling, and aligned-table printing.

use gpssn_core::{
    Completion, EngineConfig, GpSsnEngine, GpSsnError, GpSsnQuery, QueryBudget, QueryOptions,
    QueryOutcome,
};
use gpssn_index::{PivotSelectConfig, RoadIndexConfig, SocialIndexConfig};
use gpssn_ssn::SpatialSocialNetwork;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Runs `q` under `opts` and an unlimited budget. A query proven
/// infeasible before any index work counts as an exact empty answer at
/// zero cost; any other rejection is a harness bug and panics. So does
/// any completion other than `Exact`: no figure averages a truncated or
/// degraded answer.
pub fn run_query(engine: &GpSsnEngine<'_>, q: &GpSsnQuery, opts: &QueryOptions) -> QueryOutcome {
    let out = match engine.try_query(q, opts, &QueryBudget::unlimited()) {
        Ok(out) => out,
        Err(GpSsnError::Infeasible { .. }) => QueryOutcome::infeasible(),
        Err(e) => panic!("harness query rejected: {e}"),
    };
    assert!(
        matches!(out.completion, Completion::Exact),
        "harness query {q:?} completed {:?}, not Exact",
        out.completion
    );
    out
}

/// Global knobs every experiment respects.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Dataset scale relative to the paper's full sizes (1.0 = 40K-user
    /// surrogates, 30K-vertex synthetics). The default 0.1 keeps a full
    /// `all` run in minutes on a laptop while preserving every trend.
    pub scale: f64,
    /// Base RNG seed (datasets and query users derive from it).
    pub seed: u64,
    /// Queries averaged per data point.
    pub queries_per_point: usize,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        ExperimentContext {
            scale: 0.1,
            seed: 42,
            queries_per_point: 5,
        }
    }
}

impl ExperimentContext {
    /// The paper's default query (`τ=5, γ=0.5, θ=0.5, r=2`), parameterized
    /// by query user later.
    pub fn default_query(&self) -> GpSsnQuery {
        GpSsnQuery::with_defaults(0)
    }

    /// The default engine configuration (5 road + 5 social pivots,
    /// `r ∈ [0.5, 4]`).
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            num_road_pivots: 5,
            num_social_pivots: 5,
            road_index: RoadIndexConfig::default(),
            social_index: SocialIndexConfig::default(),
            pivot_select: PivotSelectConfig {
                seed: self.seed,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Builds an engine over `ssn` with `cfg`.
    pub fn engine<'a>(&self, ssn: &'a SpatialSocialNetwork, cfg: EngineConfig) -> GpSsnEngine<'a> {
        GpSsnEngine::build(ssn, cfg)
    }

    /// Samples `count` query users, preferring users with at least one
    /// friend (isolated users trivially answer `None` for `τ > 1`).
    pub fn sample_query_users(&self, ssn: &SpatialSocialNetwork, count: usize) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xABCD);
        let m = ssn.social().num_users();
        let mut out = Vec::with_capacity(count);
        let mut guard = 0;
        while out.len() < count && guard < count * 100 {
            guard += 1;
            let u = rng.gen_range(0..m) as u32;
            if ssn.social().graph().degree(u) > 0 || m < 4 {
                out.push(u);
            }
        }
        while out.len() < count {
            out.push(0);
        }
        out
    }
}

/// An aligned, printable result table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats seconds humanely (µs → years), as the paper's Figure 8 spans
/// 13 orders of magnitude.
pub fn fmt_seconds(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2}s")
    } else if s < 86_400.0 {
        format!("{:.1}h", s / 3600.0)
    } else if s < 86_400.0 * 365.0 * 3.0 {
        format!("{:.1}d", s / 86_400.0)
    } else {
        format!("{:.2e}y", s / (86_400.0 * 365.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpssn_ssn::{synthetic, SyntheticConfig};

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1".into()]);
        t.push_row(vec!["b".into(), "10000".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("alpha"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["x".into()]);
    }

    #[test]
    fn seconds_formatting_spans_magnitudes() {
        assert!(fmt_seconds(2e-5).ends_with("us"));
        assert!(fmt_seconds(0.02).ends_with("ms"));
        assert!(fmt_seconds(5.0).ends_with('s'));
        assert!(fmt_seconds(1e13).ends_with('y'));
    }

    #[test]
    fn query_users_have_friends() {
        let ctx = ExperimentContext {
            scale: 0.01,
            ..Default::default()
        };
        let ssn = synthetic(&SyntheticConfig::uni().scaled(0.01), 1);
        let users = ctx.sample_query_users(&ssn, 5);
        assert_eq!(users.len(), 5);
        for u in users {
            assert!(ssn.social().graph().degree(u) > 0);
        }
    }
}
