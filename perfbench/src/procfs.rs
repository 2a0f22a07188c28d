//! Process CPU time and peak resident memory from `/proc/self`.
//! Both return `None` where `/proc` is missing or unreadable, so the
//! caller can report "unavailable" instead of a false zero.

/// Kernel clock ticks per second as exposed in `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// Cumulative user and system CPU seconds of this process, all threads
/// included (exited rank threads too).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl std::ops::Sub for Cpu {
    type Output = Cpu;
    fn sub(self, o: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - o.user_s,
            sys_s: self.sys_s - o.sys_s,
        }
    }
}

pub fn cpu() -> Option<Cpu> {
    parse_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Fields 14 and 15 of `stat` (utime, stime), counted after the
/// parenthesised command name, which may itself contain spaces.
fn parse_stat(stat: &str) -> Option<Cpu> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut f = rest.split_whitespace().skip(11);
    let utime: f64 = f.next()?.parse().ok()?;
    let stime: f64 = f.next()?.parse().ok()?;
    Some(Cpu {
        user_s: utime / USER_HZ,
        sys_s: stime / USER_HZ,
    })
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_name() {
        let s = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0";
        assert_eq!(
            parse_stat(s),
            Some(Cpu {
                user_s: 2.5,
                sys_s: 0.75
            })
        );
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn parses_hwm() {
        let s = "Name:\tx\nVmPeak:\t 9 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_hwm(s), Some(2.0));
        assert_eq!(parse_hwm("Name:\tx\n"), None);
    }
}
