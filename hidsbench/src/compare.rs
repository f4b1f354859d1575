//! `--compare`: two recorded sets of runs, end-to-end metric by workload.
//!
//! A set is a file `--record` appended to, one run per workload and seed.
//! Each pair prints as `agree`, `better`, `worse` or `unresolved` by the
//! rule in [`crate::stats::verdict`].

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::stats::{verdict, Summary, Verdict};
use crate::{END_TO_END, WORKLOADS};

/// End-to-end samples by `(workload, metric)`.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Parse record rows `workload seed trace metric value`, keeping untraced
/// ones.
fn parse(text: &str) -> Result<Samples, String> {
    let mut out = Samples::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        let [workload, _seed, trace, metric, value] = f[..] else {
            return Err(format!("line {}: expected 5 tab-separated fields", i + 1));
        };
        if trace != "0" {
            continue;
        }
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: not a number: {value}", i + 1))?;
        out.entry((workload.to_string(), metric.to_string()))
            .or_default()
            .push(value);
    }
    Ok(out)
}

fn load(path: &Path) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn describe(v: &[f64]) -> String {
    Summary::of(v).map_or("-".into(), |s| {
        format!(
            "{:.6} (n={}, spread {:.1}%)",
            s.median,
            s.n,
            100.0 * s.spread()
        )
    })
}

pub fn run(baseline: &Path, candidate: &Path) -> ExitCode {
    let (a, b) = match (load(baseline), load(candidate)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("hidsbench --compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!("workload\tmetric\tbaseline\tcandidate\tbound\tverdict");
    let mut worse = false;
    for w in WORKLOADS {
        for (metric, unit, better, bound, floor) in END_TO_END {
            let key = (w.to_string(), metric.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{w}\t{metric}\t-\t-\t-\tmissing");
                continue;
            };
            let v = verdict(va, vb, better, bound, floor);
            worse |= v == Verdict::Worse;
            let floor = if floor > 0.0 {
                format!(", >= {floor} {unit}")
            } else {
                String::new()
            };
            println!(
                "{w}\t{metric} [{unit}]\t{}\t{}\t{:.0}%{floor}\t{}",
                describe(va),
                describe(vb),
                100.0 * bound,
                v.name()
            );
        }
    }
    if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_keeps_untraced_rows_by_workload_and_metric() {
        let text = "fleet-sketch\t1\t0\tthroughput\t4000.5\n\
                    fleet-sketch\t2\t0\tthroughput\t4100\n\
                    fleet-sketch\t2\t1\ttrace.coverage\t0.99\n\n";
        let s = parse(text).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(
            s[&("fleet-sketch".into(), "throughput".into())],
            vec![4000.5, 4100.0]
        );
        assert!(parse("a\tb\n").is_err());
        assert!(parse("w\t1\t0\tm\tfast\n").is_err());
    }
}
