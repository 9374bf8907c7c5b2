//! The correctness gate, run outside the timed window: every response
//! must be the outcome its line was designed to get, and every answer
//! must satisfy Definition 5.

use crate::stats::Digest;
use crate::workload::{Expect, Line};
use gpssn_core::query::check_answer;
use gpssn_core::GpSsnAnswer;
use gpssn_obs::json::{self, Value};
use gpssn_ssn::SpatialSocialNetwork;

/// What the responses of one run held.
#[derive(Debug)]
pub struct Verdict {
    /// Responses that differ from their line's design.
    pub failed: usize,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Digest of every outcome in order: ids, status or error code,
    /// answer users, POIs and maxdist bits, and pages read.
    pub digest: u64,
    /// Lines the engine answered (`status:ok`).
    pub served: usize,
    /// Pages read over the served lines.
    pub io_pages: u64,
    /// Engine time of each line in µs (0 for lines the engine never ran).
    pub cpu_us: Vec<u64>,
}

const KEEP_FAILURES: usize = 5;

/// Checks `responses[k]` against `lines[k]` for every k.
pub fn verify(ssn: &SpatialSocialNetwork, lines: &[Line], responses: &[String]) -> Verdict {
    let mut v = Verdict {
        failed: 0,
        failures: Vec::new(),
        digest: 0,
        served: 0,
        io_pages: 0,
        cpu_us: vec![0; responses.len()],
    };
    let mut digest = Digest::default();
    for (k, (line, resp)) in lines.iter().zip(responses).enumerate() {
        if let Err(why) = check_one(ssn, k, line, resp, &mut v, &mut digest) {
            v.failed += 1;
            if v.failures.len() < KEEP_FAILURES {
                v.failures.push(format!("line {}: {why}: {resp}", k + 1));
            }
        }
    }
    v.digest = digest.value();
    v
}

fn check_one(
    ssn: &SpatialSocialNetwork,
    k: usize,
    line: &Line,
    resp: &str,
    v: &mut Verdict,
    digest: &mut Digest,
) -> Result<(), String> {
    let r = json::parse(resp)?;
    let num = |key: &str| r.get(key).and_then(Value::as_f64);
    let text = |key: &str| r.get(key).and_then(Value::as_str).unwrap_or("");
    if num("id") != Some((k + 1) as f64) {
        return Err("response out of order".into());
    }
    digest.add(k as u64 + 1);
    let (status, code) = (text("status"), text("code"));
    digest.add_str(status);
    digest.add_str(code);
    match line.expect {
        Expect::InvalidQuery if code == "invalid_query" => return Ok(()),
        Expect::DeadlineExpired if code == "deadline_expired" => return Ok(()),
        Expect::Exact if status == "ok" && text("completion") == "exact" => {}
        _ => return Err(format!("designed {:?}", line.expect)),
    }
    let q = line
        .query
        .as_ref()
        .ok_or("well-formed line without a query")?;
    let pages = num("io_pages").ok_or("no io_pages")? as u64;
    v.served += 1;
    v.io_pages += pages;
    v.cpu_us[k] = num("cpu_us").ok_or("no cpu_us")? as u64;
    digest.add(pages);
    let Some(maxdist) = num("maxdist") else {
        digest.add(u64::MAX);
        return Ok(());
    };
    let ids = |key: &str| -> Result<Vec<u32>, String> {
        r.get(key)
            .and_then(Value::as_array)
            .ok_or(format!("no {key}"))?
            .iter()
            .map(|x| x.as_f64().map(|f| f as u32).ok_or(format!("bad {key}")))
            .collect()
    };
    let answer = GpSsnAnswer {
        users: ids("users")?,
        pois: ids("pois")?,
        maxdist,
    };
    for &u in &answer.users {
        digest.add(u64::from(u));
    }
    for &o in &answer.pois {
        digest.add(u64::from(o));
    }
    digest.add(maxdist.to_bits());
    check_answer(ssn, q, &answer).map_err(|e| format!("Definition 5 violated: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Name;

    #[test]
    fn designed_errors_pass_and_wrong_outcomes_fail() {
        let ssn = Name::ServeLight.dataset();
        let lines = Name::ServeLight.stream(&ssn, 3, 2, 60);
        let ok = |k: usize| {
            format!("{{\"id\":{},\"status\":\"ok\",\"completion\":\"exact\",\"maxdist\":null,\"cpu_us\":3,\"io_pages\":40}}", k + 1)
        };
        let err = |k: usize, code: &str| {
            format!(
                "{{\"id\":{},\"status\":\"error\",\"code\":\"{code}\"}}",
                k + 1
            )
        };
        let designed: Vec<String> = lines
            .iter()
            .enumerate()
            .map(|(k, l)| match l.expect {
                Expect::Exact => ok(k),
                Expect::InvalidQuery => err(k, "invalid_query"),
                Expect::DeadlineExpired => err(k, "deadline_expired"),
            })
            .collect();
        let v = verify(&ssn, &lines, &designed);
        assert_eq!(v.failed, 0, "{:?}", v.failures);
        assert_eq!(
            v.served,
            lines.iter().filter(|l| l.expect == Expect::Exact).count()
        );

        let mut swapped = designed.clone();
        let k = lines
            .iter()
            .position(|l| l.expect == Expect::Exact)
            .unwrap();
        swapped[k] = err(k, "overloaded");
        assert_eq!(verify(&ssn, &lines, &swapped).failed, 1);
        swapped.swap(0, 1);
        assert!(
            verify(&ssn, &lines, &swapped).failed >= 2,
            "order is checked"
        );
    }

    #[test]
    fn an_invalid_answer_fails() {
        let ssn = Name::UniDefault.dataset();
        let lines = Name::UniDefault.stream(&ssn, 3, 2, 1);
        let q = lines[0].query.as_ref().unwrap();
        let resp = format!(
            "{{\"id\":1,\"status\":\"ok\",\"completion\":\"exact\",\"maxdist\":1.5,\"users\":[{}],\"pois\":[0],\"cpu_us\":9,\"io_pages\":40}}",
            q.user
        );
        let v = verify(&ssn, &lines, &[resp]);
        assert_eq!(v.failed, 1);
        assert!(v.failures[0].contains("Definition 5"), "{:?}", v.failures);
    }
}
