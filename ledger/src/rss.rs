//! Peak resident memory from `/proc/<pid>/status`.

/// The `VmHWM` line of a `/proc/<pid>/status` document, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Peak resident set of process `pid` in MB (`None`: no such process, or
/// not a Linux `/proc`).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_a_status_document() {
        let status = "Name:\tledger\nVmPeak:\t  9000 kB\nVmHWM:\t   41236 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(41236));
        assert_eq!(parse_vm_hwm_kb("Name:\tledger\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        assert!(peak_rss_mb(std::process::id()).expect("linux /proc") > 0.0);
    }
}
