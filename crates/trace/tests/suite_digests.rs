//! Pins the bytes of every suite trace: an FNV-1a digest over the trace
//! name and every instruction (ip, kind, address, dependency distance,
//! branch outcome), for all 22 generators in `suite::all_traces()`.
//!
//! A generator change that moves any instruction of any trace fails here
//! by trace name, before it can move a report digest somewhere
//! downstream. The short length runs in every `cargo test`; the
//! 200 000-instruction length (the full-scale window, 40 000 warm-up +
//! 160 000 measured) is `#[ignore]`d and runs in release:
//!
//! ```sh
//! cargo test --release -p secpref-trace --test suite_digests -- --ignored
//! ```
//!
//! On a mismatch the test prints the whole table as it now reads, in the
//! pins' own syntax. Re-pin only for a change meant to move traces, and
//! say why.

use secpref_trace::{suite, Instr, InstrKind};
use secpref_types::fnv::{fnv1a64, FNV_OFFSET};

/// Folds one instruction into `hash` as 19 fixed-width bytes: ip, a kind
/// tag, address (0 if none) and a payload (dependency distance, branch
/// outcome or 0).
fn digest_instr(hash: u64, i: &Instr) -> u64 {
    let (tag, addr, payload) = match i.kind {
        InstrKind::Alu => (0u8, 0, 0u16),
        InstrKind::Load { addr, dep_dist } => (1, addr.raw(), dep_dist),
        InstrKind::Store { addr } => (2, addr.raw(), 0),
        InstrKind::Branch { taken } => (3, 0, taken as u16),
    };
    let mut buf = [0u8; 19];
    buf[..8].copy_from_slice(&i.ip.raw().to_le_bytes());
    buf[8] = tag;
    buf[9..17].copy_from_slice(&addr.to_le_bytes());
    buf[17..].copy_from_slice(&payload.to_le_bytes());
    fnv1a64(&buf, hash)
}

/// Generates every suite trace at `n` instructions, one at a time, and
/// checks each digest against `pins` (in suite order).
fn check(n: usize, pins: &[(&str, u64)]) {
    let got: Vec<(String, u64)> = suite::all_traces()
        .iter()
        .map(|g| {
            let t = g.generate(n);
            assert_eq!(t.instrs.len(), n, "{}", t.name);
            let hash = t
                .instrs
                .iter()
                .fold(fnv1a64(t.name.as_bytes(), FNV_OFFSET), digest_instr);
            (t.name, hash)
        })
        .collect();
    let matches = got.len() == pins.len()
        && got
            .iter()
            .zip(pins)
            .all(|((name, hash), (pin_name, pin))| name == pin_name && hash == pin);
    if !matches {
        let table: String = got
            .iter()
            .map(|(name, hash)| format!("    (\"{name}\", {hash:#018x}),\n"))
            .collect();
        panic!("suite trace digests at n = {n} moved; they now read:\n{table}");
    }
}

/// The length every `cargo test` checks.
const SHORT: usize = 3_000;

const PINNED_SHORT: [(&str, u64); 22] = [
    ("mcf_like_a", 0xe833b46f373c0ed7),
    ("mcf_like_b", 0xed9e34e624d7310a),
    ("bwaves_like", 0x386ab65a3b99e7a3),
    ("lbm_like", 0xf04fa1c785a0b16d),
    ("omnetpp_like", 0x033af7798cc193ae),
    ("xalancbmk_like", 0x8e28d0d0c6c08363),
    ("gcc_like", 0x35d3a3d3df4d9a7d),
    ("cactu_like", 0xefaf98aca891d0c7),
    ("roms_like", 0x54fa10954a9b3d10),
    ("fotonik_like", 0xde125e3b0f3d4402),
    ("wrf_like", 0x4a9a13e7b57262f8),
    ("xz_like", 0x9c9b4d74c8b6ffee),
    ("leela_like", 0x9dc514733f490b43),
    ("perlbench_like", 0x2c829cbc2ed4b0ac),
    ("pop2_like", 0x5b07aaf4f63d6a60),
    ("bfs_small", 0xe5777a5fa6b5e6d6),
    ("bfs_large", 0xe094d41c5ec29dff),
    ("pr_large", 0x8177e5d8a1ceac16),
    ("cc_large", 0x8078764810274485),
    ("sssp_large", 0x3d6ee5e08e7d39a3),
    ("bc_large", 0x127030adf8f8e057),
    ("tc_small", 0x4c1d0667e04d1969),
];

/// ExpScale::Full's window: 40 000 warm-up + 160 000 measured.
const FULL: usize = 200_000;

const PINNED_FULL: [(&str, u64); 22] = [
    ("mcf_like_a", 0xac8afdb9c3aaf7db),
    ("mcf_like_b", 0x5be7c8fc92fe396c),
    ("bwaves_like", 0xa9c3c2a727427240),
    ("lbm_like", 0xd5d16be5f17f4f8f),
    ("omnetpp_like", 0xad87c79f75a2ff92),
    ("xalancbmk_like", 0xe8258a4447bc2c9a),
    ("gcc_like", 0x0bda2018d0f79662),
    ("cactu_like", 0xab3ecf134f56d68a),
    ("roms_like", 0xe2f7cee050f9e5f8),
    ("fotonik_like", 0x1aaa2955508dfe26),
    ("wrf_like", 0x28d148724509057a),
    ("xz_like", 0x2f17a83234791306),
    ("leela_like", 0xa6a9bc91b9497db5),
    ("perlbench_like", 0xfff565fa1b9d26d3),
    ("pop2_like", 0xe38d350c379c6a7c),
    ("bfs_small", 0x161fd92edd5c3ca8),
    ("bfs_large", 0xa0cb437398a31b80),
    ("pr_large", 0xe208dae36a96d4a1),
    ("cc_large", 0x61082c834ea01316),
    ("sssp_large", 0x90e846cd7025cccd),
    ("bc_large", 0xaa93b05abe4dee62),
    ("tc_small", 0x70b3ee5bf1dc0bd8),
];

#[test]
fn suite_traces_are_pinned_at_a_short_length() {
    check(SHORT, &PINNED_SHORT);
}

#[test]
#[ignore = "release-only: 22 traces at 200 000 instructions"]
fn suite_traces_are_pinned_at_full_scale() {
    check(FULL, &PINNED_FULL);
}
