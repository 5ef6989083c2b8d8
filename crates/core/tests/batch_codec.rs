//! The binary sample-batch codec (`encode_batch`/`decode_batch`) on
//! real and hostile input:
//!
//! * **Lossless** — real simulated `compress`/`gcc` batches and
//!   arbitrary generated samples (every `Option` field `None` and
//!   `Some`, empty slots, full-width values) decode to what was
//!   encoded.
//! * **Canonical** — the decoder accepts exactly the encoder's image:
//!   whatever decodes re-encodes to the same bytes, so no two byte
//!   strings name one batch.
//! * **Hostile bytes** — random bytes, every truncation, inflated
//!   sample counts, unaligned and out-of-range fields all return `Err`
//!   without panicking, and no decode reserves more than the payload
//!   pays for. A single flipped bit either fails or decodes to the
//!   *different* batch those exact bytes encode; catching flips is the
//!   transport's CRC's job.

use profileme_cfg::BranchHistory;
use profileme_core::{
    decode_batch, encode_batch, ProfileDatabase, ProfileMeConfig, Sample, SelectionMode, Session,
};
use profileme_isa::{OpClass, Pc};
use profileme_uarch::{CompletedSample, EventSet, StageLatencies, TagId, Timestamps};
use proptest::prelude::*;
use std::sync::OnceLock;

const BATCH: usize = 512;

/// Real samples from `compress` and `gcc`, under both selection modes
/// (fetch-opportunity counting delivers empty `record: None` slots).
fn real() -> &'static [Sample] {
    static REAL: OnceLock<Vec<Sample>> = OnceLock::new();
    REAL.get_or_init(|| {
        let mut all = Vec::new();
        for w in [
            profileme_workloads::compress(600),
            profileme_workloads::gcc(2),
        ] {
            for selection in [
                SelectionMode::FetchedInstructions,
                SelectionMode::FetchOpportunities,
            ] {
                let run = Session::builder(w.program.clone())
                    .memory(w.memory.clone())
                    .sampling(ProfileMeConfig {
                        mean_interval: 16,
                        selection,
                        ..Default::default()
                    })
                    .build()
                    .expect("config is valid")
                    .profile_single()
                    .expect("workload completes");
                all.extend(run.samples);
            }
        }
        assert!(all.len() > 4 * BATCH, "too few samples: {}", all.len());
        assert!(all.iter().any(|s| s.record.is_none()), "no empty slots");
        all
    })
}

fn encode(samples: &[Sample]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_batch(samples, &mut out);
    out
}

/// Decodes `bytes` and, when it succeeds, checks the canonical and
/// bounded-reservation contracts.
fn decode_checked(bytes: &[u8]) -> Option<Vec<Sample>> {
    let samples = decode_batch(bytes).ok()?;
    assert_eq!(
        encode(&samples),
        bytes,
        "decoder accepted a non-canonical encoding"
    );
    assert!(
        samples.capacity() <= bytes.len() / 2,
        "reserved {} samples for {} bytes",
        samples.capacity(),
        bytes.len()
    );
    Some(samples)
}

/// Small, mid-width and full-width values, so every varint length and
/// every wrapping delta shows up.
fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..128, 0u64..1 << 24, any::<u64>()]
}

fn arb_record() -> impl Strategy<Value = CompletedSample> {
    (
        (
            any::<u8>(),
            arb_u64(),
            0u64..1 << 62,
            arb_u64(),
            0usize..OpClass::ALL.len(),
            0u32..1 << 10,
        ),
        (any::<u16>(), any::<u64>(), 0usize..=64),
        (arb_u64(), prop::collection::vec(arb_u64(), 5)),
        (arb_u64(), prop::collection::vec(arb_u64(), 6), arb_u64()),
    )
        .prop_map(
            |(
                (tag, seq, pc_index, context, class, events),
                (present, history_bits, history_len),
                (fetched, milestones),
                (eff_addr, latencies, mem_latency),
            )| {
                let on = |bit: u32| present & (1 << bit) != 0;
                let at = |i: usize| on(i as u32).then_some(milestones[i]);
                let mask = if history_len == 64 {
                    u64::MAX
                } else {
                    (1 << history_len) - 1
                };
                CompletedSample {
                    tag: TagId(tag),
                    seq,
                    pc: Pc::new(pc_index * 4),
                    context,
                    class: OpClass::ALL[class],
                    events: EventSet::from_bits(events).expect("defined bits"),
                    retired: on(5),
                    eff_addr: on(6).then_some(eff_addr),
                    taken: on(7).then_some(on(8)),
                    history: BranchHistory::from_raw(history_bits & mask, history_len)
                        .expect("canonical history"),
                    timestamps: Timestamps {
                        fetched,
                        mapped: at(0),
                        data_ready: at(1),
                        issued: at(2),
                        retire_ready: at(3),
                        retired: at(4),
                    },
                    latencies: on(9).then_some(StageLatencies {
                        fetch_to_map: latencies[0],
                        map_to_data_ready: latencies[1],
                        data_ready_to_issue: latencies[2],
                        issue_to_retire_ready: latencies[3],
                        retire_ready_to_retire: latencies[4],
                        load_completion: latencies[5],
                    }),
                    mem_latency: on(10).then_some(mem_latency),
                }
            },
        )
}

fn arb_sample() -> impl Strategy<Value = Sample> {
    (any::<bool>(), arb_record(), arb_u64()).prop_map(|(empty, record, selected_cycle)| Sample {
        record: (!empty).then_some(record),
        selected_cycle,
    })
}

fn arb_batch() -> impl Strategy<Value = Vec<Sample>> {
    prop::collection::vec(arb_sample(), 0..24)
}

/// Re-encodes `bytes`' sample count as `count`, keeping the body.
fn with_count(bytes: &[u8], count: u64) -> Vec<u8> {
    let body = &bytes[4..];
    let old_len = body
        .iter()
        .position(|b| b & 0x80 == 0)
        .expect("count varint")
        + 1;
    let mut out = b"PMB1".to_vec();
    let mut v = count;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
    out.extend_from_slice(&body[old_len..]);
    out
}

#[test]
fn real_batches_round_trip_and_shrink_against_json() {
    let mut binary = 0usize;
    let mut json = 0usize;
    for batch in real().chunks(BATCH) {
        let bytes = encode(batch);
        let back = decode_checked(&bytes).expect("real batch decodes");
        assert_eq!(back, batch, "real batch changed across the codec");
        binary += bytes.len();
        json += serde_json::to_string(batch)
            .expect("samples serialize")
            .len();
    }
    let per_sample = binary as f64 / real().len() as f64;
    assert!(
        binary * 8 < json,
        "binary {binary} B is not 8x smaller than JSON {json} B"
    );
    assert!(per_sample < 64.0, "{per_sample:.1} B per sample");
}

#[test]
fn empty_batch_round_trips() {
    let bytes = encode(&[]);
    assert_eq!(bytes, b"PMB1\0");
    assert_eq!(decode_checked(&bytes), Some(Vec::new()));
}

#[test]
fn every_truncation_of_a_real_batch_fails() {
    let bytes = encode(&real()[..64]);
    for cut in 0..bytes.len() {
        assert!(
            decode_batch(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
}

#[test]
fn every_single_bit_flip_fails_or_names_another_batch() {
    let batch = &real()[..24];
    let bytes = encode(batch);
    let mut refused = 0;
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        match decode_checked(&flipped) {
            None => refused += 1,
            Some(other) => assert_ne!(other, batch, "flip at bit {bit} went unnoticed"),
        }
        if bit < 32 {
            assert!(
                decode_batch(&flipped).is_err(),
                "magic flip at bit {bit} decoded"
            );
        }
    }
    assert!(refused > 0);
}

#[test]
fn inflated_sample_counts_fail_without_reserving() {
    let bytes = encode(&real()[..BATCH]);
    for count in [BATCH as u64 + 1, 2 * BATCH as u64, 1 << 40, u64::MAX] {
        assert!(
            decode_batch(&with_count(&bytes, count)).is_err(),
            "count {count} decoded"
        );
    }
    // A deflated count leaves trailing bytes.
    assert!(decode_batch(&with_count(&bytes, BATCH as u64 - 1)).is_err());
}

#[test]
fn out_of_domain_fields_are_refused() {
    let good = real()
        .iter()
        .find(|s| s.record.is_some())
        .expect("a valid record")
        .clone();
    let mutate = |f: &dyn Fn(&mut CompletedSample)| {
        let mut s = good.clone();
        f(s.record.as_mut().expect("record"));
        encode(&[s])
    };
    // An unaligned PC (only a lenient decoder can build one) must not
    // alias its neighbouring row through truncating division.
    let unaligned: Pc = serde_json::from_str("4098").expect("serde builds any Pc");
    assert!(decode_batch(&mutate(&|r| r.pc = unaligned)).is_err());
    assert!(decode_checked(&mutate(&|r| r.pc = Pc::new(0x1004))).is_some());

    // Hand-built byte strings for the remaining domains: an empty slot
    // with stray flags, undefined flag bits, and `taken` without
    // `has_taken`.
    for body in [&[1u8, 2, 5][..], &[1, 0x81, 0x40, 5], &[1, 0x09, 5]] {
        let mut bytes = b"PMB1".to_vec();
        bytes.extend_from_slice(body);
        assert!(decode_batch(&bytes).is_err(), "{body:02x?} decoded");
    }
}

#[test]
fn hostile_pcs_aggregate_without_panicking() {
    let w = profileme_workloads::compress(10);
    let mut db = ProfileDatabase::new(&w.program, 64);
    let good = real()
        .iter()
        .find(|s| s.record.is_some())
        .expect("a valid record");
    let mut batch = Vec::new();
    for pc in [1 << 63, (1 << 63) + 4, u64::MAX - 3] {
        let mut s = good.clone();
        s.record.as_mut().expect("record").pc = Pc::new(pc);
        batch.push(s);
    }
    let decoded = decode_checked(&encode(&batch)).expect("aligned high PCs decode");
    for s in &decoded {
        db.add(s);
    }
    assert_eq!(db.total_samples, 0, "a PC outside the image was counted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary samples survive the codec exactly.
    #[test]
    fn arbitrary_batches_round_trip(batch in arb_batch()) {
        let bytes = encode(&batch);
        prop_assert_eq!(decode_checked(&bytes), Some(batch));
    }

    /// Every strict prefix of an arbitrary encoding is refused.
    #[test]
    fn truncated_arbitrary_batches_fail(batch in arb_batch()) {
        let bytes = encode(&batch);
        for cut in 0..bytes.len() {
            prop_assert!(decode_batch(&bytes[..cut]).is_err());
        }
    }

    /// Random bytes are refused; behind a valid magic they never panic
    /// and decode only if canonical.
    #[test]
    fn random_bytes_fail_or_are_canonical(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        prop_assert!(decode_batch(&bytes).is_err());
        let mut tagged = b"PMB1".to_vec();
        tagged.extend_from_slice(&bytes);
        drop(decode_checked(&tagged));
    }

    /// Flipping one bit of an arbitrary encoding never panics and never
    /// yields the original batch.
    #[test]
    fn flipped_arbitrary_batches_never_alias(batch in arb_batch(), pick in any::<u64>()) {
        let bytes = encode(&batch);
        let bit = (pick % (bytes.len() as u64 * 8)) as usize;
        let mut flipped = bytes;
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Some(other) = decode_checked(&flipped) {
            prop_assert_ne!(other, batch);
        }
    }
}
