//! Drives one request stream through `serve_jsonl` with an in-memory
//! reader and writer, recording for every line when it was due, when
//! it was handed to the service, and when its response line was
//! written. Parse, admission, queue, engine, reorder buffer and emit
//! all run inside that measurement.

use crate::workload::{Discipline, Line};
use gpssn_core::{serve_jsonl, GpSsnEngine, ServeConfig, ServeStats};
use std::io::{self, BufRead, Read, Write};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// When the feed stops releasing lines.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much time from the first release (a timed window).
    After(Duration),
    /// After this many lines (a replay of a timed window).
    Lines(usize),
}

/// One driven stream.
#[derive(Debug)]
pub struct Run {
    pub discipline: Discipline,
    pub stats: ServeStats,
    /// When each line's caller was ready: the due time in an open loop;
    /// in a closed loop, when the client's previous response was
    /// written (the window start for a client's first line).
    pub due: Vec<Instant>,
    /// When each line was handed to the service.
    pub released: Vec<Instant>,
    /// When each response line was written, in order.
    pub written: Vec<Instant>,
    pub responses: Vec<String>,
    pub began: Instant,
}

impl Run {
    pub fn len(&self) -> usize {
        self.released.len()
    }

    /// A request's latency runs from its submission in a closed loop
    /// and from its due time in an open loop, so a stalled generator
    /// shows as latency instead of hiding it.
    pub fn latency(&self, k: usize) -> Duration {
        let start = match self.discipline {
            Discipline::Closed { .. } => self.released[k],
            Discipline::Open { .. } => self.due[k],
        };
        self.written[k].saturating_duration_since(start)
    }

    /// How late the generator released line k.
    pub fn generator_lag(&self, k: usize) -> Duration {
        self.released[k].saturating_duration_since(self.due[k])
    }

    /// First release to last response.
    pub fn window(&self) -> Duration {
        self.written
            .last()
            .map_or(Duration::ZERO, |w| w.saturating_duration_since(self.began))
    }

    /// Requests completed per second of the window.
    pub fn throughput(&self) -> f64 {
        self.len() as f64 / self.window().as_secs_f64()
    }
}

/// Responses written so far, shared by the writer (serve workers) and
/// the feed (the submitting thread) that waits on them.
struct Written {
    lines: Mutex<Vec<(Instant, String)>>,
    grew: Condvar,
}

impl Written {
    fn lock(&self) -> MutexGuard<'_, Vec<(Instant, String)>> {
        self.lines
            .lock()
            .expect("a serve worker panicked while writing a response")
    }
}

/// How early a sleeping open-loop generator wakes to yield-spin until
/// the due time: a timed sleep overshoots by the kernel's timer slack
/// (about 50 µs on Linux), which would otherwise swamp the serve-path
/// latency the open loop exists to measure.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(150);

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_BEFORE_DUE {
        std::thread::sleep(due - now - SPIN_BEFORE_DUE);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// The service's input: releases one line at a time under `discipline`.
struct Feed<'a> {
    lines: &'a [Line],
    discipline: Discipline,
    stop: Stop,
    written: &'a Written,
    began: Option<Instant>,
    due: Vec<Instant>,
    released: Vec<Instant>,
    buf: Vec<u8>,
    pos: usize,
    done: bool,
    /// CPU set the feed moves its thread to on the first release.
    pin: Option<affinity::CpuSet>,
}

impl Feed<'_> {
    /// Waits until line `k` may go, loads it into the buffer, and
    /// returns false at the end of the stream.
    fn release_next(&mut self) -> bool {
        let k = self.released.len();
        let limit = match self.stop {
            Stop::Lines(n) => n.min(self.lines.len()),
            Stop::After(_) => self.lines.len(),
        };
        if self.done || k >= limit {
            self.done = true;
            return false;
        }
        if let Some(cpus) = self.pin.take() {
            affinity::set(&cpus);
        }
        let began = *self.began.get_or_insert_with(Instant::now);
        let end = match self.stop {
            Stop::After(d) => Some(began + d),
            Stop::Lines(_) => None,
        };
        let due = match self.discipline {
            Discipline::Closed { clients } if k >= clients => {
                let mut w = self.written.lock();
                while w.len() < k + 1 - clients {
                    w = self
                        .written
                        .grew
                        .wait(w)
                        .expect("a serve worker panicked while writing a response");
                }
                w[k - clients].0
            }
            Discipline::Closed { .. } => began,
            Discipline::Open { rate, burst } => {
                let due = began + Duration::from_secs_f64((k - k % burst) as f64 / rate);
                if end.is_some_and(|e| due >= e) {
                    self.done = true;
                    return false;
                }
                wait_until(due);
                due
            }
        };
        let now = Instant::now();
        if end.is_some_and(|e| now >= e) {
            self.done = true;
            return false;
        }
        self.due.push(due);
        self.released.push(now);
        self.buf.clear();
        self.buf.extend_from_slice(self.lines[k].text.as_bytes());
        self.buf.push(b'\n');
        self.pos = 0;
        true
    }
}

impl Read for Feed<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = {
            let avail = self.fill_buf()?;
            let n = avail.len().min(out.len());
            out[..n].copy_from_slice(&avail[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Feed<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.buf.len() && !self.release_next() {
            return Ok(&[]);
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.buf.len());
    }
}

/// The service's output: timestamps each completed line.
struct Sink<'a> {
    written: &'a Written,
    partial: Vec<u8>,
}

impl Write for Sink<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut rest = buf;
        while let Some(i) = rest.iter().position(|&b| b == b'\n') {
            let at = Instant::now();
            self.partial.extend_from_slice(&rest[..i]);
            let line = String::from_utf8(std::mem::take(&mut self.partial))
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            self.written.lock().push((at, line));
            self.written.grew.notify_all();
            rest = &rest[i + 1..];
        }
        self.partial.extend_from_slice(rest);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Drives `lines` through `serve_jsonl` on `engine` until `stop`.
pub fn drive(
    engine: &GpSsnEngine<'_>,
    cfg: &ServeConfig,
    lines: &[Line],
    discipline: Discipline,
    stop: Stop,
) -> Result<Run, String> {
    let written = Written {
        lines: Mutex::new(Vec::with_capacity(lines.len())),
        grew: Condvar::new(),
    };
    let mut feed = Feed {
        lines,
        discipline,
        stop,
        written: &written,
        began: None,
        due: Vec::with_capacity(lines.len()),
        released: Vec::with_capacity(lines.len()),
        buf: Vec::new(),
        pos: 0,
        done: false,
        pin: None,
    };
    // Open loop: the submitting thread (generator, parse, admission)
    // gets the first usable CPU and the serve workers the rest, so the
    // two never time-slice one core and the scheduler's placement does
    // not move the latency. Workers inherit the set they are spawned
    // under; the feed moves itself on its first release, which
    // `serve_jsonl` makes after spawning them.
    let restore = affinity::get();
    if let (Discipline::Open { .. }, Some(all)) = (discipline, restore) {
        if let Some((first, rest)) = affinity::split_first(&all) {
            affinity::set(&rest);
            feed.pin = Some(first);
        }
    }
    let sink = Sink {
        written: &written,
        partial: Vec::new(),
    };
    let stats = serve_jsonl(engine, cfg, &mut feed, sink);
    if let Some(all) = restore {
        affinity::set(&all);
    }
    let stats = stats.map_err(|e| format!("serve_jsonl: {e}"))?;
    let Feed {
        began,
        due,
        released,
        ..
    } = feed;
    let (written, responses): (Vec<Instant>, Vec<String>) = written
        .lines
        .into_inner()
        .map_err(|_| "a serve worker panicked while writing a response".to_string())?
        .into_iter()
        .unzip();
    if responses.len() != released.len() {
        return Err(format!(
            "{} lines submitted but {} responses written",
            released.len(),
            responses.len()
        ));
    }
    Ok(Run {
        discipline,
        stats,
        due,
        released,
        written,
        responses,
        began: began.ok_or("the stream released no line")?,
    })
}

/// CPU affinity of the calling thread, through the C library's
/// `sched_getaffinity`/`sched_setaffinity`. Elsewhere than Linux it
/// reads nothing and pins nothing.
mod affinity {
    /// A set of up to 1024 CPUs, laid out as the C library's `cpu_set_t`.
    pub type CpuSet = [u64; 16];

    #[cfg(target_os = "linux")]
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, set: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, set: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on.
    pub fn get() -> Option<CpuSet> {
        #[cfg(target_os = "linux")]
        {
            let mut set = [0; 16];
            // SAFETY: `set` is writable and exactly as large as passed.
            let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), set.as_mut_ptr()) };
            (rc == 0).then_some(set)
        }
        #[cfg(not(target_os = "linux"))]
        None
    }

    /// Restricts the calling thread, and threads it spawns later, to
    /// `set`. A refusal leaves the thread where it was.
    pub fn set(set: &CpuSet) {
        #[cfg(target_os = "linux")]
        // SAFETY: `set` is readable and exactly as large as passed.
        unsafe {
            sched_setaffinity(0, size_of::<CpuSet>(), set.as_ptr());
        }
    }

    /// `set`'s lowest CPU alone and the rest, when it holds two or more.
    pub fn split_first(set: &CpuSet) -> Option<(CpuSet, CpuSet)> {
        let word = set.iter().position(|&w| w != 0)?;
        let bit = 1 << set[word].trailing_zeros();
        let (mut first, mut rest) = ([0; 16], *set);
        first[word] = bit;
        rest[word] &= !bit;
        rest.iter().any(|&w| w != 0).then_some((first, rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_timestamps_lines_split_across_writes() {
        let written = Written {
            lines: Mutex::new(Vec::new()),
            grew: Condvar::new(),
        };
        let mut sink = Sink {
            written: &written,
            partial: Vec::new(),
        };
        sink.write_all(b"{\"id\":1").unwrap();
        sink.write_all(b"}\n{\"id\":2}\n{\"id\"").unwrap();
        let got: Vec<String> = written.lock().iter().map(|(_, l)| l.clone()).collect();
        assert_eq!(got, ["{\"id\":1}", "{\"id\":2}"]);
    }

    #[test]
    fn split_first_takes_the_lowest_cpu() {
        let mut set = [0; 16];
        set[0] = 0b1100;
        set[3] = 1;
        let (first, rest) = affinity::split_first(&set).unwrap();
        assert_eq!((first[0], rest[0], rest[3]), (0b0100, 0b1000, 1));
        assert!(first[1..].iter().all(|&w| w == 0));
        let mut one = [0; 16];
        one[1] = 1 << 5;
        assert_eq!(affinity::split_first(&one), None);
        assert_eq!(affinity::split_first(&[0; 16]), None);
    }
}
