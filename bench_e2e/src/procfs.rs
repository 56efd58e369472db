//! Process CPU time and peak memory from `/proc/self`. A field the
//! kernel does not provide yields `None`; the caller omits the metric
//! with a warning rather than failing the run.

/// Clock ticks per second of `/proc/self/stat`'s time fields. `USER_HZ`
/// is 100 on every Linux ABI this runs on; reading it would need libc.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of the whole process (live and joined
/// threads), from the text of `/proc/self/stat`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) may itself hold spaces or ')': fields
    // are counted from the last ')'. `utime` and `stime` are fields 14
    // and 15, i.e. the 12th and 13th after it.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Peak resident set (`VmHWM`) in MiB, from the text of
/// `/proc/self/status`.
pub fn parse_peak_rss_mib(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().next()?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

pub fn peak_rss_mib() -> Option<f64> {
    parse_peak_rss_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_name() {
        let stat = "4242 (bench e2e) x) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 1000 200";
        assert_eq!(parse_cpu_seconds(stat), Some(13.0));
    }

    #[test]
    fn missing_fields_yield_none() {
        assert_eq!(parse_cpu_seconds(""), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2 3"), None);
        assert_eq!(
            parse_cpu_seconds("1 (x) R 1 2 3 4 5 6 7 8 9 10 eleven 12"),
            None
        );
        assert_eq!(parse_peak_rss_mib("VmRSS:\t  100 kB\n"), None);
        assert_eq!(parse_peak_rss_mib("VmHWM:\n"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tbench_e2e\nVmHWM:\t  284920 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_peak_rss_mib(status), Some(284920.0 / 1024.0));
    }

    #[test]
    fn live_process_reports_both() {
        assert!(cpu_seconds().is_some());
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
