//! CPU time and peak memory read from `/proc/self`.
//!
//! Every reader returns `Err` with the reason when `/proc` is missing or
//! unreadable, never a silent 0: a benchmark that reports zero CPU on a
//! platform without `/proc` would pass any bound.

use std::path::Path;

/// Kernel clock ticks per second for the `stat` CPU fields (`USER_HZ`,
/// 100 on every Linux architecture this project runs on).
const TICKS_PER_S: f64 = 100.0;

/// `(utime + stime)` in seconds from one `stat` line.
///
/// The command name sits in parentheses and may itself contain spaces or
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Result<f64, String> {
    let rest = stat
        .rsplit_once(')')
        .ok_or("stat line has no `)` after the command name")?
        .1;
    // After the name: state(3) ppid(4) ... utime(14) stime(15).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize, name: &str| -> Result<u64, String> {
        fields
            .get(i)
            .ok_or(format!("stat line has no {name} field"))?
            .parse::<u64>()
            .map_err(|e| format!("stat {name} field: {e}"))
    };
    Ok((tick(11, "utime")? + tick(12, "stime")?) as f64 / TICKS_PER_S)
}

/// Peak resident set size in MiB from a `status` file's `VmHWM` line.
pub fn parse_vm_hwm_mib(status: &str) -> Result<f64, String> {
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("status has no VmHWM line")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM value: {e}"))?;
    Ok(kib / 1024.0)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// User + system CPU seconds of the whole process, exited threads included.
pub fn process_cpu_s() -> Result<f64, String> {
    parse_stat_cpu(&read(Path::new("/proc/self/stat"))?)
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    parse_vm_hwm_mib(&read(Path::new("/proc/self/status"))?)
}

/// CPU seconds of every live thread, as `(thread name, seconds)`.
/// Thread names are the kernel's `comm`, cut to 15 bytes.
pub fn thread_cpu() -> Result<Vec<(String, f64)>, String> {
    let dir = Path::new("/proc/self/task");
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let task = entry
            .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
            .path();
        // A thread that exits between listing and reading is skipped.
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(task.join("comm")),
            std::fs::read_to_string(task.join("stat")),
        ) else {
            continue;
        };
        out.push((comm.trim_end().to_owned(), parse_stat_cpu(&stat)?));
    }
    Ok(out)
}

/// Summed CPU seconds of the live threads whose name starts with any of
/// `prefixes`.
pub fn threads_cpu_s(prefixes: &[&str]) -> Result<f64, String> {
    Ok(thread_cpu()?
        .iter()
        .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
        .map(|(_, s)| s)
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_fields_after_the_last_paren() {
        // A reactor thread whose name holds a space and a `)`.
        let line = "4242 (httpnet) x) S 1 4242 4242 0 -1 4194368 1500 0 0 0 \
                    250 75 0 0 20 0 37 0 123456 1000000 5000 18446744073709551615";
        assert_eq!(parse_stat_cpu(line), Ok(3.25));
    }

    #[test]
    fn stat_cpu_rejects_truncated_or_garbled_lines() {
        assert!(parse_stat_cpu("4242 (httpnet S 1")
            .unwrap_err()
            .contains(")"));
        assert!(parse_stat_cpu("4242 (w) S 1 2 3")
            .unwrap_err()
            .contains("utime"));
        let garbled = "1 (w) S 1 1 1 0 -1 0 0 0 0 0 x 0 0";
        assert!(parse_stat_cpu(garbled).unwrap_err().contains("utime field"));
    }

    #[test]
    fn vm_hwm_reads_kib_as_mib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  314368 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Ok(307.0));
        assert!(parse_vm_hwm_mib("Name:\tx\n")
            .unwrap_err()
            .contains("VmHWM"));
    }

    #[test]
    fn live_readers_see_this_process() {
        // Linux test runners have /proc; elsewhere the readers must say why.
        match process_cpu_s() {
            Ok(s) => assert!(s >= 0.0),
            Err(reason) => assert!(reason.contains("/proc/self/stat"), "{reason}"),
        }
        if let Ok(threads) = thread_cpu() {
            assert!(!threads.is_empty(), "the test thread itself is live");
        }
    }
}
