//! The outside-in trace: spans recorded by the harness around each call
//! into a layer, kept in a preallocated buffer and written out when the
//! run ends. Nothing inside the program is instrumented; the only hook is
//! [`TimedBackend`], a `MatmulBackend` of the harness's own that a layer
//! is handed through the public `Dense::set_backend`.

use apa_gemm::{MatMut, MatRef};
use apa_nn::{Backend, MatmulBackend};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval. `id` is 1-based; `parent == 0` means a root span.
/// Spans of one op (a train step, a served request) share `op`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `(m, k, n)` of a multiply span.
    pub shape: Option<(u32, u32, u32)>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn ms(&self) -> f64 {
        self.ns() as f64 / 1e6
    }
}

struct Inner {
    spans: Vec<Span>,
    /// Open spans of the driving thread, innermost last.
    stack: Vec<u32>,
    op: u32,
    dropped: u64,
}

/// Span sink shared by the driving thread and any [`TimedBackend`].
pub struct Recorder {
    t0: Instant,
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Recorder {
    /// The buffer is allocated once, here; a span beyond `capacity` is
    /// counted in [`Self::dropped`] instead of growing it mid-run.
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(Recorder {
            t0: Instant::now(),
            capacity,
            inner: Mutex::new(Inner {
                spans: Vec::with_capacity(capacity),
                stack: Vec::with_capacity(16),
                op: 0,
                dropped: 0,
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("no recorder user panics while holding the lock")
    }

    fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Spans opened from now on belong to op `op`.
    pub fn set_op(&self, op: u32) {
        self.lock().op = op;
    }

    /// Open a span under the innermost open one; close it with
    /// [`Self::exit`]. Returns 0 when the buffer is full.
    pub fn enter(&self, name: &'static str) -> u32 {
        let start_ns = self.ns_of(Instant::now());
        let mut g = self.lock();
        if g.spans.len() >= self.capacity {
            g.dropped += 1;
            return 0;
        }
        let id = g.spans.len() as u32 + 1;
        let parent = g.stack.last().copied().unwrap_or(0);
        let op = g.op;
        g.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
            shape: None,
        });
        g.stack.push(id);
        id
    }

    pub fn exit(&self, id: u32) {
        let end_ns = self.ns_of(Instant::now());
        let mut g = self.lock();
        if id == 0 {
            return;
        }
        g.spans[id as usize - 1].end_ns = end_ns;
        let top = g.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Run `f` inside a span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Record a finished interval under `parent`, or under the innermost
    /// open span when `parent` is `None` (a root span when none is open,
    /// as on a serving lane's thread). `op` defaults to the current op.
    /// Returns the span's id, 0 when the buffer is full.
    pub fn leaf(
        &self,
        name: &'static str,
        parent: Option<u32>,
        op: Option<u32>,
        (start, end): (Instant, Instant),
        shape: Option<(u32, u32, u32)>,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns_of(start), self.ns_of(end));
        let mut g = self.lock();
        if g.spans.len() >= self.capacity {
            g.dropped += 1;
            return 0;
        }
        let id = g.spans.len() as u32 + 1;
        let parent = parent.unwrap_or_else(|| g.stack.last().copied().unwrap_or(0));
        let op = op.unwrap_or(g.op);
        g.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
            shape,
        });
        id
    }

    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// A `MatmulBackend` that forwards to `inner` and records every multiply
/// as a span carrying its shape. Results are bitwise those of `inner`.
pub struct TimedBackend {
    inner: Backend,
    rec: Arc<Recorder>,
}

impl TimedBackend {
    pub fn wrap(inner: Backend, rec: Arc<Recorder>) -> Backend {
        Arc::new(TimedBackend { inner, rec })
    }
}

impl MatmulBackend for TimedBackend {
    fn matmul_into(&self, a: MatRef<'_, f32>, b: MatRef<'_, f32>, c: MatMut<'_, f32>) {
        let shape = (a.rows() as u32, a.cols() as u32, b.cols() as u32);
        let start = Instant::now();
        self.inner.matmul_into(a, b, c);
        self.rec
            .leaf("mm", None, None, (start, Instant::now()), Some(shape));
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn warm(&self, shapes: &[(usize, usize, usize)]) {
        self.inner.warm(shapes);
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval that its direct children cover (overlapping
/// children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.ns().saturating_sub(covered)
        })
        .collect()
}

/// Write `spans` as a JSON array of
/// `{id, parent, op, name, start_ns, end_ns[, shape]}` objects.
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.write_all(b",\n")?;
        }
        // Span names are harness literals without quotes or backslashes.
        write!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
        if let Some((m, k, n)) = s.shape {
            write!(out, ",\"shape\":[{m},{k},{n}]")?;
        }
        out.write_all(b"}")?;
    }
    out.write_all(b"]\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "s",
            start_ns,
            end_ns,
            shape: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(1, 0, 0, 100), // step
            span(2, 1, 10, 40), // fwd
            span(3, 2, 15, 35), // mm under fwd
            span(4, 1, 50, 90), // bwd
            span(5, 4, 55, 70), // mm dW
            span(6, 4, 70, 85), // mm dX
        ];
        assert_eq!(self_times_ns(&spans), [30, 10, 20, 10, 15, 15]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_or_overhanging_children_are_counted_once() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 1, 40, 80),  // overlaps span 2 by 20
            span(4, 1, 90, 130), // hangs over the parent's end
        ];
        // cover = [10,60) ∪ [40,80) ∪ [90,100) = 50 + 20 + 10.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_by_stack_and_attributes_leaves() {
        let rec = Recorder::with_capacity(8);
        rec.set_op(7);
        let step = rec.enter("step");
        let fwd = rec.enter("fwd");
        let t = Instant::now();
        rec.leaf("mm", None, None, (t, t), Some((2, 3, 4)));
        rec.exit(fwd);
        rec.exit(step);
        let t = Instant::now();
        rec.leaf("mm", None, Some(9), (t, t), None); // no open span: a root
        rec.leaf("submit", Some(1), Some(9), (t, t), None); // explicit parent
        let spans = rec.spans();
        let view: Vec<(u32, u32, u32, &str)> = spans
            .iter()
            .map(|s| (s.id, s.parent, s.op, s.name))
            .collect();
        assert_eq!(
            view,
            [
                (1, 0, 7, "step"),
                (2, 1, 7, "fwd"),
                (3, 2, 7, "mm"),
                (4, 0, 9, "mm"),
                (5, 1, 9, "submit")
            ]
        );
        assert_eq!(spans[2].shape, Some((2, 3, 4)));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn a_full_buffer_drops_and_counts_instead_of_growing() {
        let rec = Recorder::with_capacity(1);
        let a = rec.enter("a");
        let b = rec.enter("b");
        assert_eq!(b, 0);
        rec.exit(b);
        rec.exit(a);
        assert_eq!((rec.spans().len(), rec.dropped()), (1, 1));
    }

    #[test]
    fn timed_backend_is_bitwise_transparent_and_records_shapes() {
        let rec = Recorder::with_capacity(4);
        let plain = apa_nn::classical(1);
        let timed = TimedBackend::wrap(plain.clone(), rec.clone());
        let a = apa_gemm::Mat::<f32>::from_fn(5, 7, |i, j| (i * 7 + j) as f32 * 0.1);
        let b = apa_gemm::Mat::<f32>::from_fn(7, 3, |i, j| (i + j) as f32 * 0.2 - 1.0);
        assert_eq!(
            timed.matmul(a.as_ref(), b.as_ref()),
            plain.matmul(a.as_ref(), b.as_ref())
        );
        assert_eq!(timed.name(), plain.name());
        assert_eq!(rec.spans()[0].shape, Some((5, 7, 3)));
    }

    #[test]
    fn trace_file_parses_with_the_json_shim() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("t.json");
        let mut s = span(1, 0, 5, 9);
        s.shape = Some((64, 1024, 1024));
        write_json(&path, &[s, span(2, 1, 6, 7)]).unwrap();
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(v[0]["shape"][1].as_u64(), Some(1024));
        assert_eq!(v[1]["parent"].as_u64(), Some(1));
        assert_eq!(v[1]["name"].as_str(), Some("s"));
    }
}
