//! Facts about the machine and checkout a result is reported with.

use std::path::Path;

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// `VmHWM` in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kib / 1024.0),
        _ => None,
    }
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out under `root`, read from `.git` without running
/// git; `"unknown"` outside a repository.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_kib_into_mib() {
        let status =
            "Name:\thidsbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(50.0));
    }

    #[test]
    fn vm_hwm_rejects_missing_or_odd_lines() {
        assert_eq!(parse_vm_hwm("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t many kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 1024 MB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\n"), None);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        }
    }
}
