//! Small helpers: parameters, percentiles, peak RSS and a flat JSON writer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The workload parameters `run.py` passes as `--param key=value` (their
/// single source is `perfbench/protocol.json`).
pub struct Params(BTreeMap<String, String>);

impl Params {
    pub fn parse(pairs: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for p in pairs {
            let (k, v) = p
                .split_once('=')
                .ok_or_else(|| format!("parameter `{p}` is not key=value"))?;
            map.insert(k.to_string(), v.to_string());
        }
        Ok(Self(map))
    }

    pub fn f64(&self, key: &str) -> Result<f64, String> {
        let v = self
            .0
            .get(key)
            .ok_or_else(|| format!("missing parameter `{key}`"))?;
        v.parse()
            .map_err(|_| format!("parameter `{key}`: `{v}` is not a number"))
    }

    pub fn usize(&self, key: &str) -> Result<usize, String> {
        let x = self.f64(key)?;
        if x < 0.0 || x.fract() != 0.0 {
            return Err(format!("parameter `{key}` must be a whole number"));
        }
        Ok(x as usize)
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=100).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending (total order; the samples are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time, in ns, used so far by this process's live threads whose name
/// starts with one of `prefixes` (`/proc/self/task/*/schedstat`; time the
/// hypervisor stole from the vCPU is not in it).
pub fn threads_cpu_ns(prefixes: &[&str]) -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.flatten()
        .filter_map(|task| {
            let path = task.path();
            let comm = std::fs::read_to_string(path.join("comm")).ok()?;
            if !prefixes.iter().any(|p| comm.trim_end().starts_with(p)) {
                return None;
            }
            let stat = std::fs::read_to_string(path.join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time, in ns, used so far by the calling thread. Unlike the
/// `schedstat` files, which a running thread sees only as of its last
/// scheduler tick, this clock is exact, so it can time a 2 ms attach.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly laid out `Timespec`; the
    // clock id is a valid constant, so the call cannot fail.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// An ordered flat JSON object of numbers, strings, booleans and number
/// arrays — everything a session reports to `run.py`.
#[derive(Default)]
pub struct Json(Vec<(String, String)>);

impl Json {
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() { v } else { 0.0 };
        self.0.push((key.to_string(), format!("{v}")));
        self
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.0.push((key.to_string(), v.to_string()));
        self
    }

    pub fn boolean(&mut self, key: &str, v: bool) -> &mut Self {
        self.0.push((key.to_string(), v.to_string()));
        self
    }

    pub fn string(&mut self, key: &str, v: &str) -> &mut Self {
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        self.0.push((key.to_string(), format!("\"{escaped}\"")));
        self
    }

    pub fn nums(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        let mut s = String::from("[");
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{v}");
        }
        s.push(']');
        self.0.push((key.to_string(), s));
        self
    }

    pub fn render(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{k}\": {v}");
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn thread_cpu_clock_advances_with_work() {
        let t0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > t0, "{x}");
    }

    #[test]
    fn params_reject_malformed_input() {
        assert!(Params::parse(&["rate".into()]).is_err());
        let p = Params::parse(&["rate=400".into(), "ues=1.5".into()]).unwrap();
        assert_eq!(p.f64("rate").unwrap(), 400.0);
        assert!(p.usize("ues").is_err());
        assert!(p.f64("missing").is_err());
    }
}
