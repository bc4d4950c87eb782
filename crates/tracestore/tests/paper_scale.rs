//! Prefix stability at paper scale: a generator built in place to 10^7
//! instructions holds exactly what the same generator streams into a
//! capture, at one copy's memory of 12-byte records (10^7 × 12 B).
//! Release-only: `cargo test --release -p secpref-tracestore -- --ignored`
//! (a `tools/tier1.sh` stage).

use secpref_trace::gen::spec;
use secpref_trace::Instr;
use secpref_tracestore::{digest_instrs, CaptureSink, TraceWriter, DEFAULT_CHUNK_SIZE};

/// A `/proc/self/status` field in KiB (`None` off Linux).
fn status_kib(field: &str) -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
#[ignore = "release-only: generates 10^7 instructions twice"]
fn lbm_like_built_in_place_equals_its_capture_at_ten_million() {
    const N: usize = 10_000_000;
    let kernel = spec::roster()
        .into_iter()
        .find(|k| k.name == "lbm_like")
        .expect("lbm_like is in the roster");

    let before = status_kib("VmRSS:");
    let trace = kernel.generate(N);
    let peak = status_kib("VmHWM:");
    assert_eq!(trace.instrs.len(), N);
    // Building in place peaks at one copy of the trace, N records of
    // 12 B. A `Vec` then a copy into the shared buffer would peak at two
    // copies, and a record padded back to 16 B at one and a third.
    if let (Some(before), Some(peak)) = (before, peak) {
        let one_copy = N * 12 / 1024;
        let grew = peak.saturating_sub(before);
        assert!(
            grew < one_copy * 5 / 4,
            "generation grew the peak by {grew} KiB for a {one_copy} KiB trace of \
             12-byte records; a record is {} B",
            std::mem::size_of::<Instr>()
        );
    }

    let w = TraceWriter::create(std::io::sink(), &kernel.name, DEFAULT_CHUNK_SIZE).unwrap();
    let mut sink = CaptureSink::new(w, N);
    kernel.generate_into(&mut sink);
    let (meta, _) = sink.finish().unwrap();
    assert_eq!(meta.n_instr, N as u64);
    assert_eq!(digest_instrs(&trace.instrs), meta.content_digest);
}
