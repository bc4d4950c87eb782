//! Seeded input generation. `--seed` is XORed into the generators' own
//! seeds here and nowhere else: the simulator only ever sees the traces.

use secpref_trace::gen::gap::{self, GapKernel};
use secpref_trace::gen::graph::CsrGraph;
use secpref_trace::gen::spec;
use secpref_trace::Trace;
use secpref_tracestore::TraceWriter;
use std::path::Path;
use std::sync::Arc;

/// Records per `.sct` chunk (the size `simbench` and `sectrace` use).
pub const SCT_CHUNK: u32 = 4_096;

/// The GAP-like shapes the workloads use: `(name, kernel, vertices,
/// average degree, suite seed)` — the suite's own parameters for the
/// LLC-resident and the DRAM-bound graph.
const GAP_SHAPES: [(&str, GapKernel, usize, usize, u64); 2] = [
    ("bfs_small", GapKernel::Bfs, 40_000, 12, 101),
    ("cc_large", GapKernel::Cc, 360_000, 12, 102),
];

/// Generates `n` instructions of the suite trace `shape` with the
/// generator seed XORed with `seed` (seed 0 reproduces the suite trace).
/// Bypasses the suite's process-wide caches so that repeated set-ups do
/// the same work each time.
///
/// # Panics
///
/// Panics on a shape the suite does not have: shapes are fixed in
/// `workloads.rs`, not user input.
pub fn shaped_trace(shape: &str, seed: u64, n: usize) -> Arc<Trace> {
    if let Some(&(name, kernel, vertices, degree, base)) = GAP_SHAPES.iter().find(|s| s.0 == shape)
    {
        let graph = CsrGraph::power_law(vertices, degree, base ^ seed);
        let mut t = gap::generate(kernel, &graph, base ^ seed, n);
        t.name = name.to_string();
        return Arc::new(t);
    }
    let mut kernel = spec::roster()
        .into_iter()
        .find(|k| k.name == shape)
        .unwrap_or_else(|| panic!("trace shape `{shape}` is not in the suite"));
    kernel.seed ^= seed;
    Arc::new(kernel.generate(n))
}

/// Captures `trace` into a chunked `.sct` store at `path`.
pub fn write_sct(trace: &Trace, path: &Path) -> std::io::Result<()> {
    let file = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut w = TraceWriter::create(file, &trace.name, SCT_CHUNK)?;
    for i in trace.instrs.iter() {
        w.push(i)?;
    }
    let (_, mut file) = w.finish()?;
    std::io::Write::flush(&mut file)
}
