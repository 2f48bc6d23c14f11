//! Tables over result records: the summary of one set, the spread of
//! repeated sets against each metric's bound (`repeat`), and the verdict
//! table between two result files (`compare`).

use crate::json::Json;
use crate::spec;
use crate::stats::{median, quartiles, relative_spread};

/// Values of `metric` for `workload` across `runs`, in run order.
fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Metric names present in `runs` for `workload`, in emission order.
fn metric_names(runs: &[Json], workload: &str) -> Vec<String> {
    runs.iter()
        .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .and_then(|r| r.get("metrics")?.as_obj())
        .map(|m| m.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

fn workloads_in(runs: &[Json]) -> Vec<&'static str> {
    spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| {
            runs.iter()
                .any(|r| r.get("workload").and_then(Json::as_str) == Some(name))
        })
        .collect()
}

/// One line per workload with the end-to-end metrics side by side.
pub fn print_summary(runs: &[Json]) {
    let traced = runs
        .iter()
        .any(|r| r.get("trace").and_then(Json::as_bool) == Some(true));
    if traced {
        return; // a traced set already printed its ~86 metrics per workload
    }
    println!();
    print!("{:<18}", "workload");
    for m in spec::END_TO_END {
        print!(" {:>16}", format!("{} [{}]", m.name, m.unit));
    }
    println!(" {:>10} {:>7}", "attempted", "failed");
    for w in workloads_in(runs) {
        print!("{w:<18}");
        for m in spec::END_TO_END {
            match values(runs, w, m.name).first() {
                Some(v) => print!(" {v:>16.3}"),
                None => print!(" {:>16}", "-"),
            }
        }
        let count = |key: &str| {
            runs.iter()
                .find(|r| r.get("workload").and_then(Json::as_str) == Some(w))
                .and_then(|r| r.get(key)?.as_f64())
                .unwrap_or(0.0)
        };
        println!(" {:>10} {:>7}", count("attempted"), count("failed"));
    }
}

/// How far `new` is worse than `old` as a share of `old` (negative: better).
fn worsening(m: &spec::MetricSpec, old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    if m.higher_is_better {
        (old - new) / old.abs()
    } else {
        (new - old) / old.abs()
    }
}

/// Spread table of repeated sets.  Returns `false` if an end-to-end spread
/// exceeds its bound or (with `exact`) a count that must repeat did not.
pub fn print_repeat(runs: &[Json], traced: bool, exact: bool) -> bool {
    let mut ok = true;
    println!();
    println!(
        "{:<18} {:<30} {:>14} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"
    );
    for w in workloads_in(runs) {
        for name in metric_names(runs, w) {
            let v = values(runs, w, &name);
            if v.len() < 2 {
                continue;
            }
            let gated = spec::end_to_end(&name);
            let must_repeat = exact && spec::EXACT_COUNTS.contains(&name.as_str());
            if traced && !must_repeat && v.iter().all(|x| *x == 0.0) {
                continue;
            }
            let [q1, q2, q3] = quartiles(&v);
            let spread = relative_spread(&v);
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
            let range = if q2 == 0.0 { 0.0 } else { (hi - lo) / q2.abs() };
            let verdict = if must_repeat {
                if lo == hi {
                    "exact"
                } else {
                    ok = false;
                    "NOT EXACT"
                }
            } else {
                match gated {
                    // setup_s is exempt from the spread rule (its medians are held).
                    Some(m) if m.name != "setup_s" && spread > m.bound => {
                        ok = false;
                        "WIDE"
                    }
                    Some(m) if m.name != "setup_s" && spread > m.bound / 3.0 => "warn",
                    Some(_) => "ok",
                    None => "",
                }
            };
            println!(
                "{w:<18} {name:<30} {q2:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}% {:>7.2}% {:>7}  {verdict}",
                spread * 100.0,
                range * 100.0,
                gated.map_or(String::new(), |m| format!("{:.0}%", m.bound * 100.0)),
            );
        }
    }
    ok
}

/// Verdict table between result files `a` (before) and `b` (after): one row
/// per workload and end-to-end metric.  Returns the number of `worse` rows.
pub fn print_compare(a: &[Json], b: &[Json]) -> usize {
    let mut worse = 0;
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>9} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worsens", "A iqr", "B iqr", "bound"
    );
    for w in workloads_in(a) {
        for m in spec::END_TO_END {
            let (va, vb) = (values(a, w, m.name), values(b, w, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let (sa, sb) = (relative_spread(&va), relative_spread(&vb));
            let change = worsening(m, ma, mb);
            let verdict = if sa.max(sb) > m.bound {
                "unresolved"
            } else if change > m.bound {
                worse += 1;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{w:<18} {:<14} {ma:>14.4} {mb:>14.4} {:>+8.2}% {:>7.2}% {:>7.2}% {:>6.0}%  {verdict}",
                m.name,
                change * 100.0,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0
            );
        }
    }
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, metric: &str, value: f64) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("trace", Json::Bool(false)),
            (
                "metrics",
                Json::obj([(
                    metric,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str("x"))]),
                )]),
            ),
        ])
    }

    #[test]
    fn worsening_respects_direction() {
        let ops = spec::end_to_end("ops_per_s").unwrap();
        let p50 = spec::end_to_end("p50_us").unwrap();
        assert!((worsening(ops, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(ops, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(p50, 100.0, 110.0) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn compare_counts_worse_and_leaves_noisy_rows_unresolved() {
        let a: Vec<Json> = [100.0, 101.0, 99.0]
            .iter()
            .map(|v| run("point_get_int", "ops_per_s", *v))
            .collect();
        let slower: Vec<Json> = [70.0, 71.0, 69.0]
            .iter()
            .map(|v| run("point_get_int", "ops_per_s", *v))
            .collect();
        let noisy: Vec<Json> = [40.0, 80.0, 160.0]
            .iter()
            .map(|v| run("point_get_int", "ops_per_s", *v))
            .collect();
        assert_eq!(print_compare(&a, &a), 0);
        assert_eq!(print_compare(&a, &slower), 1);
        assert_eq!(
            print_compare(&a, &noisy),
            0,
            "a spread wider than the bound is unresolved, not worse"
        );
    }

    #[test]
    fn repeat_flags_wide_spreads_and_inexact_counts() {
        let tight: Vec<Json> = [100.0, 100.5, 99.5, 100.2]
            .iter()
            .map(|v| run("insert_int", "ops_per_s", *v))
            .collect();
        assert!(print_repeat(&tight, false, true));
        let wide: Vec<Json> = [100.0, 150.0, 60.0, 100.0]
            .iter()
            .map(|v| run("insert_int", "ops_per_s", *v))
            .collect();
        assert!(!print_repeat(&wide, false, true));
        let counts: Vec<Json> = [3.0, 3.0]
            .iter()
            .map(|v| run("insert_int", "mem.segments", *v))
            .collect();
        assert!(print_repeat(&counts, true, true));
        let drift: Vec<Json> = [3.0, 4.0]
            .iter()
            .map(|v| run("insert_int", "mem.segments", *v))
            .collect();
        assert!(!print_repeat(&drift, true, true));
        assert!(
            print_repeat(&drift, true, false),
            "with varied seeds counts may differ"
        );
    }
}
