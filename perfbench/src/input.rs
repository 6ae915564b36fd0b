//! Seeded field data: generated once per set-up, copied into checkpoints
//! by the application's fill callback, and compared byte for byte with
//! every restore.

use rbio::restart::RestoredData;

/// SplitMix64: a tiny, well-mixed generator; one stream per (seed, id).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `len` pseudo-random bytes of stream `stream` under `seed`.
pub fn bytes(seed: u64, stream: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut out = vec![0u8; len];
    for chunk in out.chunks_mut(8) {
        let word = rng.next().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    out
}

/// Every rank's bytes for every field of a uniform layout.
pub struct Fields {
    /// `data[rank][field]`.
    data: Vec<Vec<Vec<u8>>>,
}

impl Fields {
    pub fn generate(seed: u64, nranks: u32, nfields: usize, field_bytes: usize) -> Fields {
        let data = (0..nranks as u64)
            .map(|r| {
                (0..nfields as u64)
                    .map(|f| bytes(seed, (r << 16) | f, field_bytes))
                    .collect()
            })
            .collect();
        Fields { data }
    }

    pub fn nranks(&self) -> u32 {
        self.data.len() as u32
    }

    pub fn nfields(&self) -> usize {
        self.data.first().map_or(0, Vec::len)
    }

    pub fn field(&self, rank: u32, field: usize) -> &[u8] {
        &self.data[rank as usize][field]
    }

    /// The application's fill callback: a memcpy of the pre-generated
    /// bytes, with the step number stamped into the first eight bytes so
    /// a restore of the wrong generation cannot pass verification.
    pub fn fill(&self, step: u64, rank: u32, field: usize, buf: &mut [u8]) {
        buf.copy_from_slice(self.field(rank, field));
        stamp(step, buf);
    }

    /// Bytes of `restored` that differ from what `step` wrote (0 when the
    /// restore is exact, including its step number).
    pub fn mismatches(&self, step: u64, restored: &RestoredData) -> u64 {
        let mut bad = 0u64;
        if restored.step != step || restored.nranks as usize != self.data.len() {
            return u64::MAX;
        }
        let mut expect = Vec::new();
        for (r, fields) in self.data.iter().enumerate() {
            for (f, want) in fields.iter().enumerate() {
                let got = restored.field_data(r as u32, f);
                expect.clear();
                expect.extend_from_slice(want);
                stamp(step, &mut expect);
                bad += count_diff(&expect, got);
            }
        }
        bad
    }
}

fn stamp(step: u64, buf: &mut [u8]) {
    for (b, s) in buf.iter_mut().zip(step.to_le_bytes()) {
        *b ^= s;
    }
}

/// Differing bytes between two buffers; a length difference counts in
/// full.
pub fn count_diff(want: &[u8], got: &[u8]) -> u64 {
    if want == got {
        return 0;
    }
    let common = want.len().min(got.len());
    let differ = want[..common]
        .iter()
        .zip(&got[..common])
        .filter(|(a, b)| a != b)
        .count();
    (differ + want.len().abs_diff(got.len())) as u64
}
