//! Software-visible sample records — what the interrupt handler reads out
//! of the Profile Registers — and their compact binary batch encoding.

use crate::error::ProfileError;
use crate::sw::wire::{get_uv, malformed, put_uv};
use profileme_cfg::BranchHistory;
use profileme_isa::{OpClass, Pc};
use profileme_uarch::{CompletedSample, EventSet, StageLatencies, TagId, Timestamps};
use serde::{Deserialize, Serialize};

/// One instruction sample.
///
/// When instructions are selected by counting *fetch opportunities*
/// (§4.1.1), the selected slot may hold no instruction on the predicted
/// control path; such samples are delivered with `record == None` so
/// software can measure the useful-sampling-rate cost of that selection
/// scheme.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sample {
    /// The profile-register contents, or `None` for an empty selected
    /// slot.
    pub record: Option<CompletedSample>,
    /// Cycle at which the selection fired.
    pub selected_cycle: u64,
}

impl Sample {
    /// Whether the sample carries an instruction record.
    pub fn is_valid(&self) -> bool {
        self.record.is_some()
    }

    /// Whether the sampled instruction retired.
    pub fn retired(&self) -> bool {
        self.record.as_ref().is_some_and(|r| r.retired)
    }
}

/// A paired sample (§4.2): two potentially concurrent instructions plus
/// the fetch latency between them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairedSample {
    /// The first selected instruction.
    pub first: Sample,
    /// The second selected instruction (fetched `distance` instructions
    /// later).
    pub second: Sample,
    /// The minor interval actually used: fetched instructions between the
    /// two selections (1..=W).
    pub distance_instructions: u64,
    /// The inter-pair fetch latency register: cycles between the two
    /// selections.
    pub distance_cycles: u64,
}

impl PairedSample {
    /// Whether both halves carry instruction records.
    pub fn is_complete(&self) -> bool {
        self.first.is_valid() && self.second.is_valid()
    }
}

// ---------------------------------------------------------------------
// Batch encoding
// ---------------------------------------------------------------------

/// Leading tag of an encoded sample batch.
const BATCH_MAGIC: [u8; 4] = *b"PMB1";

/// Bytes the smallest sample (an empty slot) costs: its flags and its
/// `selected_cycle`. Bounds the count a payload can claim.
const MIN_SAMPLE_BYTES: usize = 2;

/// Per-sample flag bits: which record parts and `Option`s are present.
const HAS_RECORD: u64 = 1 << 0;
const RETIRED: u64 = 1 << 1;
const HAS_TAKEN: u64 = 1 << 2;
const TAKEN: u64 = 1 << 3;
const HAS_EFF_ADDR: u64 = 1 << 4;
const HAS_LATENCIES: u64 = 1 << 5;
const HAS_MEM_LATENCY: u64 = 1 << 6;
/// First of five bits, one per optional [`Timestamps`] milestone.
const HAS_MILESTONE: u32 = 7;
const ALL_FLAGS: u64 = (1 << (HAS_MILESTONE + 5)) - 1;

fn milestones(t: &Timestamps) -> [Option<u64>; 5] {
    [t.mapped, t.data_ready, t.issued, t.retire_ready, t.retired]
}

fn latency_fields(l: &StageLatencies) -> [u64; 6] {
    [
        l.fetch_to_map,
        l.map_to_data_ready,
        l.data_ready_to_issue,
        l.issue_to_retire_ready,
        l.retire_ready_to_retire,
        l.load_completion,
    ]
}

/// Appends the binary encoding of `samples` to `out`.
///
/// The layout is lossless and canonical — [`decode_batch`] accepts
/// exactly the byte strings this function emits:
///
/// ```text
/// magic "PMB1"
/// count                        varint
/// per sample:
///   flags                      varint: record, retired, taken?, taken,
///                              eff_addr?, latencies?, mem_latency?,
///                              then one bit per optional milestone
///   selected_cycle             varint
///   record (if flagged):
///     tag seq pc context       varints (pc as its byte address)
///     class                    varint index into OpClass::ALL
///     events                   varint of EventSet::bits
///     history len, bits        varints
///     fetched                  varint, wrapping delta from selected_cycle
///     milestones present       varints, wrapping deltas from fetched
///     eff_addr, latencies ×6,  varints, when flagged
///     mem_latency
/// ```
///
/// Cycles are deltas because one instruction's milestones lie a few
/// cycles apart: each costs about one byte instead of three or four.
pub fn encode_batch(samples: &[Sample], out: &mut Vec<u8>) {
    out.extend_from_slice(&BATCH_MAGIC);
    put_uv(out, samples.len() as u64);
    for s in samples {
        let Some(r) = &s.record else {
            put_uv(out, 0);
            put_uv(out, s.selected_cycle);
            continue;
        };
        let t = &r.timestamps;
        let mut flags = HAS_RECORD;
        let mut set = |bit: u64, on: bool| flags |= if on { bit } else { 0 };
        set(RETIRED, r.retired);
        set(HAS_TAKEN, r.taken.is_some());
        set(TAKEN, r.taken == Some(true));
        set(HAS_EFF_ADDR, r.eff_addr.is_some());
        set(HAS_LATENCIES, r.latencies.is_some());
        set(HAS_MEM_LATENCY, r.mem_latency.is_some());
        for (i, m) in milestones(t).iter().enumerate() {
            set(1 << (HAS_MILESTONE + i as u32), m.is_some());
        }
        put_uv(out, flags);
        put_uv(out, s.selected_cycle);
        put_uv(out, u64::from(r.tag.0));
        put_uv(out, r.seq);
        put_uv(out, r.pc.addr());
        put_uv(out, r.context);
        // The discriminant, which is the class's index in `OpClass::ALL`.
        put_uv(out, r.class as u64);
        put_uv(out, u64::from(r.events.bits()));
        let (bits, len) = r.history.to_raw();
        put_uv(out, len as u64);
        put_uv(out, bits);
        put_uv(out, t.fetched.wrapping_sub(s.selected_cycle));
        for m in milestones(t).into_iter().flatten() {
            put_uv(out, m.wrapping_sub(t.fetched));
        }
        if let Some(v) = r.eff_addr {
            put_uv(out, v);
        }
        for v in r
            .latencies
            .as_ref()
            .map(latency_fields)
            .into_iter()
            .flatten()
        {
            put_uv(out, v);
        }
        if let Some(v) = r.mem_latency {
            put_uv(out, v);
        }
    }
}

/// Decodes an [`encode_batch`] payload.
///
/// Everything is checked before it is trusted: the magic, the claimed
/// count against the bytes present (so a hostile count cannot reserve
/// memory the payload does not pay for), every varint, every flag,
/// tag, class, event, and history value against its domain, PC
/// alignment, and the absence of trailing bytes.
///
/// # Errors
///
/// Returns [`ProfileError::Net`] naming the first defect; the batch is
/// never partially decoded.
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<Sample>, ProfileError> {
    read_batch(bytes).map_err(|e| match e {
        ProfileError::Snapshot { reason } => ProfileError::net(format!("sample batch: {reason}")),
        other => other,
    })
}

fn read_batch(bytes: &[u8]) -> Result<Vec<Sample>, ProfileError> {
    if bytes.get(..4) != Some(&BATCH_MAGIC[..]) {
        return Err(malformed("not a PMB1 sample batch"));
    }
    let mut pos = 4;
    let count = get_uv(bytes, &mut pos)?;
    if count > ((bytes.len() - pos) / MIN_SAMPLE_BYTES) as u64 {
        return Err(malformed("sample count exceeds available data"));
    }
    let mut samples = Vec::with_capacity(count as usize);
    for _ in 0..count {
        samples.push(read_sample(bytes, &mut pos)?);
    }
    if pos != bytes.len() {
        return Err(malformed("trailing bytes after samples"));
    }
    Ok(samples)
}

/// Reads the next varint when `present`.
fn read_opt(bytes: &[u8], pos: &mut usize, present: bool) -> Result<Option<u64>, ProfileError> {
    present.then(|| get_uv(bytes, pos)).transpose()
}

fn read_sample(bytes: &[u8], pos: &mut usize) -> Result<Sample, ProfileError> {
    let flags = get_uv(bytes, pos)?;
    let selected_cycle = get_uv(bytes, pos)?;
    if flags & HAS_RECORD == 0 {
        if flags != 0 {
            return Err(malformed("flags on an empty sample"));
        }
        return Ok(Sample {
            record: None,
            selected_cycle,
        });
    }
    if flags & !ALL_FLAGS != 0 || (flags & TAKEN != 0 && flags & HAS_TAKEN == 0) {
        return Err(malformed("undefined sample flags"));
    }
    let has = |bit: u64| flags & bit != 0;
    let tag = u8::try_from(get_uv(bytes, pos)?).map_err(|_| malformed("tag out of range"))?;
    let seq = get_uv(bytes, pos)?;
    let pc = Pc::try_new(get_uv(bytes, pos)?).ok_or_else(|| malformed("unaligned pc"))?;
    let context = get_uv(bytes, pos)?;
    let class = usize::try_from(get_uv(bytes, pos)?)
        .ok()
        .and_then(|i| OpClass::ALL.get(i).copied())
        .ok_or_else(|| malformed("opcode class out of range"))?;
    let events = u32::try_from(get_uv(bytes, pos)?)
        .ok()
        .and_then(EventSet::from_bits)
        .ok_or_else(|| malformed("undefined event bits"))?;
    let len = usize::try_from(get_uv(bytes, pos)?).unwrap_or(usize::MAX);
    let history = BranchHistory::from_raw(get_uv(bytes, pos)?, len)
        .ok_or_else(|| malformed("branch history out of range"))?;
    let fetched = selected_cycle.wrapping_add(get_uv(bytes, pos)?);
    let mut milestones = [None; 5];
    for (i, m) in milestones.iter_mut().enumerate() {
        *m = read_opt(bytes, pos, has(1 << (HAS_MILESTONE + i as u32)))?
            .map(|d| fetched.wrapping_add(d));
    }
    let [mapped, data_ready, issued, retire_ready, retired] = milestones;
    let eff_addr = read_opt(bytes, pos, has(HAS_EFF_ADDR))?;
    let latencies = if has(HAS_LATENCIES) {
        let mut f = [0u64; 6];
        for v in &mut f {
            *v = get_uv(bytes, pos)?;
        }
        let [fetch_to_map, map_to_data_ready, data_ready_to_issue, issue_to_retire_ready, retire_ready_to_retire, load_completion] =
            f;
        Some(StageLatencies {
            fetch_to_map,
            map_to_data_ready,
            data_ready_to_issue,
            issue_to_retire_ready,
            retire_ready_to_retire,
            load_completion,
        })
    } else {
        None
    };
    let mem_latency = read_opt(bytes, pos, has(HAS_MEM_LATENCY))?;
    Ok(Sample {
        record: Some(CompletedSample {
            tag: TagId(tag),
            seq,
            pc,
            context,
            class,
            events,
            retired: has(RETIRED),
            eff_addr,
            taken: has(HAS_TAKEN).then_some(has(TAKEN)),
            history,
            timestamps: Timestamps {
                fetched,
                mapped,
                data_ready,
                issued,
                retire_ready,
                retired,
            },
            latencies,
            mem_latency,
        }),
        selected_cycle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_discriminant_is_its_index_in_all() {
        for (i, class) in OpClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i, "{class}");
        }
    }

    #[test]
    fn invalid_sample_predicates() {
        let s = Sample {
            record: None,
            selected_cycle: 42,
        };
        assert!(!s.is_valid());
        assert!(!s.retired());
    }
}
