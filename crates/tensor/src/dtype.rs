//! Data types and software IEEE-754 binary16 conversion.
//!
//! Consumer GPUs compute LLM fine-tuning in half precision; the paper's
//! Table II stores P16/G16/A16 at 2 bytes per element. We emulate that
//! storage format in software: values are converted to binary16 on the way
//! into a storage tier and back to `f32` on the way out, so offloaded
//! tensors really occupy 2 bytes per element and really lose the same
//! precision a GPU transfer would.

/// Element type of a stored tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit IEEE float (master weights, optimizer moments).
    F32,
    /// 16-bit IEEE float (parameter copies, gradients, activations).
    F16,
}

impl DType {
    /// Bytes per element.
    pub fn size(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 => 2,
        }
    }
}

/// Converts an `f32` to IEEE-754 binary16 bits with round-to-nearest-even,
/// handling subnormals, overflow to infinity, and NaN.
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN: keep a quiet NaN payload bit if any mantissa bit set.
        return sign | 0x7c00 | if mant != 0 { 0x0200 } else { 0 };
    }

    // Re-bias the exponent from 127 to 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow -> infinity
    }
    if unbiased >= -14 {
        // Normal half. Round the 23-bit mantissa to 10 bits (RNE).
        let mant16 = mant >> 13;
        let rest = mant & 0x1fff;
        let half = 0x1000;
        let mut out = ((unbiased + 15) as u32) << 10 | mant16;
        if rest > half || (rest == half && (mant16 & 1) == 1) {
            out += 1; // may carry into the exponent, which is still correct
        }
        return sign | out as u16;
    }
    if unbiased >= -24 {
        // Subnormal half: shift in the implicit leading 1, then round.
        let full = mant | 0x0080_0000;
        let shift = (-14 - unbiased) as u32 + 13;
        let mant16 = full >> shift;
        let rest = full & ((1 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let mut out = mant16;
        if rest > half || (rest == half && (mant16 & 1) == 1) {
            out += 1;
        }
        return sign | out as u16;
    }
    sign // underflow to signed zero
}

/// Converts IEEE-754 binary16 bits back to `f32` (exact).
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1f) as u32;
    let mant = (bits & 0x03ff) as u32;

    let out = if exp == 0 {
        if mant == 0 {
            sign // signed zero
        } else {
            // Subnormal: value = mant * 2^-24. Normalize into f32.
            let mut m = mant;
            let mut e = -14i32;
            while m & 0x0400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x03ff;
            sign | (((e + 127) as u32) << 23) | (m << 13)
        }
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (mant << 13) // Inf / NaN
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(out)
}

/// Rounds an `f32` through binary16 and back — the precision a value has
/// after being stored in a half-precision tier.
pub fn round_to_f16(value: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(value))
}

/// Converts a slice of binary16 bit patterns to `f32`, bitwise identical to
/// mapping [`f16_bits_to_f32`] element by element.
///
/// This is the decode half shared by the blob path ([`decode_f16_into`])
/// and the fused dequant GEMM packing in `gemm.rs`: on x86-64 with AVX2 it
/// runs a branchless 8-lane integer decode (F16C's `vcvtph2ps` is
/// deliberately not used — it quietizes signalling NaN payloads, which
/// would break bitwise equality with the software decoder).
///
/// # Panics
/// If `out.len() != bits.len()`.
pub fn f16_bits_to_f32_slice(bits: &[u16], out: &mut [f32]) {
    assert_eq!(bits.len(), out.len(), "f16 decode length mismatch");
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::avx2_available() {
        // SAFETY: AVX2 support was just checked at runtime, and on x86-64
        // (little-endian) `bits` is exactly `2 * out.len()` LE bytes.
        done = unsafe { decode_f16_avx2(bits.as_ptr().cast(), out) };
    }
    for (o, &b) in out[done..].iter_mut().zip(&bits[done..]) {
        *o = f16_bits_to_f32(b);
    }
}

/// Converts a slice of `f32` to binary16 bit patterns, bitwise identical to
/// mapping [`f32_to_f16_bits`] element by element (AVX2 when available).
///
/// # Panics
/// If `out.len() != values.len()`.
pub fn f32_to_f16_bits_slice(values: &[f32], out: &mut [u16]) {
    assert_eq!(values.len(), out.len(), "f16 encode length mismatch");
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::avx2_available() {
        // SAFETY: AVX2 support was just checked at runtime, and on x86-64
        // (little-endian) `out` is exactly `2 * values.len()` LE bytes.
        done = unsafe { encode_f16_avx2(values, out.as_mut_ptr().cast()) };
    }
    for (o, &v) in out[done..].iter_mut().zip(&values[done..]) {
        *o = f32_to_f16_bits(v);
    }
}

/// Branchless 8-lane binary16 → f32 decode of the longest multiple-of-8
/// prefix of `out`; returns how many elements it wrote.
///
/// Per lane, with `h` the half bits and `em = (h & 0x7fff) << 13`:
/// - normals add the exponent re-bias `(127-15) << 23` to `em`;
/// - Inf/NaN add `(255-31) << 23`, passing the mantissa payload through
///   untouched (so sNaN stays sNaN, unlike F16C);
/// - subnormals use the magic-number trick: `f32(em + (113<<23)) - 2^-14`
///   is exact by Sterbenz's lemma and yields `mant * 2^-24`.
///
/// All three results are computed for every lane and blended by exponent
/// class, then the sign is OR'd back in.
///
/// # Safety
/// The CPU must support AVX2, and `src` must point to at least
/// `2 * out.len()` readable bytes holding little-endian halves.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn decode_f16_avx2(src: *const u8, out: &mut [f32]) -> usize {
    use std::arch::x86_64::*;
    let n = out.len() / 8 * 8;
    unsafe {
        let exp_mask = _mm256_set1_epi32(0x7c00 << 13);
        let em_mask = _mm256_set1_epi32(0x7fff);
        let normal_bias = _mm256_set1_epi32(112 << 23);
        let naninf_bias = _mm256_set1_epi32(224 << 23);
        let sub_magic = _mm256_set1_epi32(113 << 23);
        for i in (0..n).step_by(8) {
            let h = _mm256_cvtepu16_epi32(_mm_loadu_si128(src.add(2 * i).cast()));
            let sign = _mm256_slli_epi32::<16>(_mm256_srli_epi32::<15>(h));
            let sign = _mm256_slli_epi32::<15>(sign);
            let em = _mm256_slli_epi32::<13>(_mm256_and_si256(h, em_mask));
            let exp = _mm256_and_si256(em, exp_mask);
            let normal = _mm256_add_epi32(em, normal_bias);
            let naninf = _mm256_add_epi32(em, naninf_bias);
            let sub = _mm256_castps_si256(_mm256_sub_ps(
                _mm256_castsi256_ps(_mm256_add_epi32(em, sub_magic)),
                _mm256_castsi256_ps(sub_magic),
            ));
            let is_naninf = _mm256_cmpeq_epi32(exp, exp_mask);
            let is_sub = _mm256_cmpeq_epi32(exp, _mm256_setzero_si256());
            let body = _mm256_blendv_epi8(normal, naninf, is_naninf);
            let body = _mm256_blendv_epi8(body, sub, is_sub);
            let res = _mm256_or_si256(body, sign);
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), res);
        }
    }
    n
}

/// Branchless 8-lane f32 → binary16 encode of the longest multiple-of-8
/// prefix of `values`; returns how many elements it wrote.
///
/// Every lane computes each exponent class of [`f32_to_f16_bits`] with
/// integer ops and blends by the f32 exponent `e`, so the result is
/// bitwise the scalar one (F16C's `vcvtps2ph` is not: it keeps NaN
/// payloads and rounds `(2^-25, 2^-24)` up instead of flushing):
/// - `e > 254`: Inf, or the canonical quiet NaN `0x7e00`;
/// - `e > 142`: overflow to Inf;
/// - `e > 112`: normal. Round-to-nearest-even is one add: with `lsb` the
///   bit that survives the 13-bit shift, `(|x| + 0xfff + lsb) >> 13`
///   rounds up exactly when the dropped bits exceed half, or equal it
///   with `lsb` set; a carry correctly bumps the exponent;
/// - `e > 102`: subnormal, the same add at the per-lane shift
///   `126 - e` (14..=23) over the mantissa with its implicit 1;
/// - otherwise signed zero.
///
/// # Safety
/// The CPU must support AVX2, and `out` must point to at least
/// `2 * values.len()` writable bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn encode_f16_avx2(values: &[f32], out: *mut u8) -> usize {
    use std::arch::x86_64::*;
    let n = values.len() / 8 * 8;
    unsafe {
        let one = _mm256_set1_epi32(1);
        let abs_mask = _mm256_set1_epi32(0x7fff_ffff);
        let mant_mask = _mm256_set1_epi32(0x007f_ffff);
        let implicit = _mm256_set1_epi32(0x0080_0000);
        let sign_bit = _mm256_set1_epi32(0x8000);
        let round_bias = _mm256_set1_epi32(0x0fff);
        let rebias = _mm256_set1_epi32(112 << 10);
        let inf = _mm256_set1_epi32(0x7c00);
        let quiet = _mm256_set1_epi32(0x0200);
        let zero = _mm256_setzero_si256();
        let e102 = _mm256_set1_epi32(102);
        let e112 = _mm256_set1_epi32(112);
        let e125 = _mm256_set1_epi32(125);
        let e126 = _mm256_set1_epi32(126);
        let e142 = _mm256_set1_epi32(142);
        let e254 = _mm256_set1_epi32(254);
        for i in (0..n).step_by(8) {
            let x = _mm256_loadu_si256(values.as_ptr().add(i).cast());
            let abs = _mm256_and_si256(x, abs_mask);
            let sign = _mm256_and_si256(_mm256_srli_epi32::<16>(x), sign_bit);
            let exp = _mm256_srli_epi32::<23>(abs);
            let mant = _mm256_and_si256(x, mant_mask);

            let lsb = _mm256_and_si256(_mm256_srli_epi32::<13>(abs), one);
            let normal = _mm256_sub_epi32(
                _mm256_srli_epi32::<13>(_mm256_add_epi32(abs, _mm256_add_epi32(round_bias, lsb))),
                rebias,
            );

            // Out-of-range shift counts (other classes) give 0 or garbage
            // that the blend below discards.
            let full = _mm256_or_si256(mant, implicit);
            let shift = _mm256_sub_epi32(e126, exp);
            let kept_lsb = _mm256_and_si256(_mm256_srlv_epi32(full, shift), one);
            let half_m1 =
                _mm256_sub_epi32(_mm256_sllv_epi32(one, _mm256_sub_epi32(e125, exp)), one);
            let sub = _mm256_srlv_epi32(
                _mm256_add_epi32(full, _mm256_add_epi32(half_m1, kept_lsb)),
                shift,
            );

            let has_payload = _mm256_andnot_si256(_mm256_cmpeq_epi32(mant, zero), quiet);
            let naninf = _mm256_or_si256(inf, has_payload);

            let r = _mm256_and_si256(sub, _mm256_cmpgt_epi32(exp, e102));
            let r = _mm256_blendv_epi8(r, normal, _mm256_cmpgt_epi32(exp, e112));
            let r = _mm256_blendv_epi8(r, inf, _mm256_cmpgt_epi32(exp, e142));
            let r = _mm256_blendv_epi8(r, naninf, _mm256_cmpgt_epi32(exp, e254));
            let r = _mm256_or_si256(r, sign);

            let packed =
                _mm_packus_epi32(_mm256_castsi256_si128(r), _mm256_extracti128_si256::<1>(r));
            _mm_storeu_si128(out.add(2 * i).cast(), packed);
        }
    }
    n
}

/// Encodes `values` into little-endian binary16 bytes in `out`, with no
/// intermediate buffer.
///
/// # Panics
/// If `out.len() != values.len() * 2`.
pub fn encode_f16_into(values: &[f32], out: &mut [u8]) {
    assert_eq!(out.len(), values.len() * 2, "f16 slot/byte length mismatch");
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::avx2_available() {
        // SAFETY: AVX2 support was just checked at runtime; `out` holds
        // `2 * values.len()` bytes.
        done = unsafe { encode_f16_avx2(values, out.as_mut_ptr()) };
    }
    for (&v, o) in values[done..]
        .iter()
        .zip(out[2 * done..].chunks_exact_mut(2))
    {
        o.copy_from_slice(&f32_to_f16_bits(v).to_le_bytes());
    }
}

/// Encodes a slice of `f32` into little-endian binary16 bytes.
pub fn encode_f16(values: &[f32]) -> Vec<u8> {
    let mut out = vec![0u8; values.len() * 2];
    encode_f16_into(values, &mut out);
    out
}

/// Decodes little-endian binary16 bytes into `f32`, writing into `out`,
/// with no intermediate buffer.
///
/// # Panics
/// If `bytes.len() != out.len() * 2`.
pub fn decode_f16_into(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(bytes.len(), out.len() * 2, "f16 byte/slot length mismatch");
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::avx2_available() {
        // SAFETY: AVX2 support was just checked at runtime; `bytes` holds
        // `2 * out.len()` bytes.
        done = unsafe { decode_f16_avx2(bytes.as_ptr(), out) };
    }
    for (o, c) in out[done..]
        .iter_mut()
        .zip(bytes[2 * done..].chunks_exact(2))
    {
        *o = f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]]));
    }
}

/// Decodes little-endian binary16 bytes into `f32`.
///
/// # Panics
/// If `bytes.len()` is odd.
pub fn decode_f16(bytes: &[u8]) -> Vec<f32> {
    assert!(
        bytes.len().is_multiple_of(2),
        "odd f16 byte length {}",
        bytes.len()
    );
    let mut out = vec![0.0f32; bytes.len() / 2];
    decode_f16_into(bytes, &mut out);
    out
}

/// Encodes `values` into little-endian f32 bytes in `out` (master states
/// and moments are stored at full precision).
///
/// # Panics
/// If `out.len() != values.len() * 4`.
pub fn encode_f32_into(values: &[f32], out: &mut [u8]) {
    assert_eq!(out.len(), values.len() * 4, "f32 slot/byte length mismatch");
    for (&v, o) in values.iter().zip(out.chunks_exact_mut(4)) {
        o.copy_from_slice(&v.to_le_bytes());
    }
}

/// Encodes a slice of `f32` into little-endian f32 bytes (a fresh,
/// unzeroed buffer; [`encode_f32_into`] fills an existing one).
pub fn encode_f32(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
    out
}

/// Decodes little-endian f32 bytes into `out`.
///
/// # Panics
/// If `bytes.len() != out.len() * 4`.
pub fn decode_f32_into(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(bytes.len(), out.len() * 4, "f32 byte/slot length mismatch");
    for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *o = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
}

/// Decodes little-endian f32 bytes.
///
/// # Panics
/// If `bytes.len()` is not a multiple of 4.
pub fn decode_f32(bytes: &[u8]) -> Vec<f32> {
    assert!(
        bytes.len().is_multiple_of(4),
        "bad f32 byte length {}",
        bytes.len()
    );
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Runs `f` over `bytes` read as little-endian `f32`s and keeps whatever
/// `f` writes — how the optimizer updates a stored f32 blob in place.
///
/// On a little-endian target with a 4-byte-aligned buffer the bytes are
/// viewed directly, with no copy. Otherwise (misaligned slice, big-endian
/// target) the values go through a temporary: decode, run `f`, encode
/// back. Both paths give bitwise the same bytes.
///
/// # Panics
/// If `bytes.len()` is not a multiple of 4.
pub fn with_f32_mut<R>(bytes: &mut [u8], f: impl FnOnce(&mut [f32]) -> R) -> R {
    assert!(
        bytes.len().is_multiple_of(4),
        "bad f32 byte length {}",
        bytes.len()
    );
    if cfg!(target_endian = "little") {
        // SAFETY: every 4-byte pattern is a valid `f32`, and `align_to_mut`
        // only hands out the correctly aligned middle part.
        let (head, body, tail) = unsafe { bytes.align_to_mut::<f32>() };
        if head.is_empty() && tail.is_empty() {
            return f(body);
        }
    }
    let mut values = vec![0.0f32; bytes.len() / 4];
    decode_f32_into(bytes, &mut values);
    let result = f(&mut values);
    encode_f32_into(&values, bytes);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_values_round_trip() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 1024.0, 0.25, -3.5] {
            assert_eq!(round_to_f16(v), v, "{v}");
        }
        assert!(f32_to_f16_bits(-0.0) & 0x8000 != 0);
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // max finite half
        assert_eq!(f32_to_f16_bits(65536.0), 0x7c00); // overflow -> inf
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f16_bits_to_f32(0x3c00), 1.0);
        assert_eq!(f16_bits_to_f32(0x7c00), f32::INFINITY);
    }

    #[test]
    fn nan_survives() {
        let bits = f32_to_f16_bits(f32::NAN);
        assert_eq!(bits & 0x7c00, 0x7c00);
        assert_ne!(bits & 0x03ff, 0);
        assert!(f16_bits_to_f32(bits).is_nan());
    }

    #[test]
    fn subnormals_round_trip() {
        // Smallest positive subnormal half = 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(round_to_f16(tiny), tiny);
        // Largest subnormal = (1023/1024) * 2^-14.
        let big_sub = 1023.0 / 1024.0 * 2.0f32.powi(-14);
        assert_eq!(round_to_f16(big_sub), big_sub);
        // Below half the smallest subnormal: flush to zero.
        assert_eq!(round_to_f16(2.0f32.powi(-26)), 0.0);
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half
        // (1 + 2^-10); RNE picks the even mantissa, i.e. 1.0.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(round_to_f16(halfway), 1.0);
        // Just above halfway rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(round_to_f16(above), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn encode_decode_round_trip() {
        let vals = vec![0.0f32, 1.5, -2.25, 100.0];
        assert_eq!(decode_f16(&encode_f16(&vals)), vals);
        assert_eq!(decode_f32(&encode_f32(&vals)), vals);
        assert_eq!(encode_f16(&vals).len(), 8);
        assert_eq!(encode_f32(&vals).len(), 16);
    }

    #[test]
    fn relative_error_is_bounded_for_normals() {
        let mut x = 1e-3f32;
        while x < 6e4 {
            let r = round_to_f16(x);
            let rel = ((r - x) / x).abs();
            assert!(rel <= 1.0 / 1024.0, "x={x} r={r} rel={rel}");
            x *= 1.37;
        }
    }

    #[test]
    #[should_panic(expected = "odd f16 byte length")]
    fn odd_byte_length_panics() {
        decode_f16(&[1, 2, 3]);
    }

    #[test]
    fn slice_decode_matches_scalar_for_every_bit_pattern() {
        // All 65536 half bit patterns, at a length that exercises both the
        // 8-lane AVX2 body and the scalar tail.
        let bits: Vec<u16> = (0..=u16::MAX).collect();
        let mut out = vec![0.0f32; bits.len()];
        f16_bits_to_f32_slice(&bits, &mut out);
        for (&b, &o) in bits.iter().zip(&out) {
            assert_eq!(
                o.to_bits(),
                f16_bits_to_f32(b).to_bits(),
                "half bits {b:#06x}"
            );
        }
        // Unaligned length: tail-only path.
        let mut tail = vec![0.0f32; 5];
        f16_bits_to_f32_slice(&bits[1000..1005], &mut tail);
        for (i, &o) in tail.iter().enumerate() {
            assert_eq!(o.to_bits(), f16_bits_to_f32(bits[1000 + i]).to_bits());
        }
    }

    #[test]
    fn slice_encode_matches_scalar() {
        let mut vals: Vec<f32> = (0..2000).map(|i| (i as f32 - 1000.0) * 1.37e-2).collect();
        vals.extend([
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            2.0f32.powi(-24),
            65504.0,
            65536.0,
            1.0 + 2.0f32.powi(-11),
        ]);
        let mut bits = vec![0u16; vals.len()];
        f32_to_f16_bits_slice(&vals, &mut bits);
        for (&v, &b) in vals.iter().zip(&bits) {
            assert_eq!(b, f32_to_f16_bits(v), "value {v}");
        }
    }

    #[test]
    fn blob_round_trip_through_slice_helpers() {
        let vals: Vec<f32> = (0..517).map(|i| (i as f32).sin() * 31.0).collect();
        let enc = encode_f16(&vals);
        assert_eq!(enc.len(), vals.len() * 2);
        let dec = decode_f16(&enc);
        for (&v, &d) in vals.iter().zip(&dec) {
            assert_eq!(d, round_to_f16(v));
        }
        let mut into = vec![0.0f32; vals.len()];
        decode_f16_into(&enc, &mut into);
        assert_eq!(dec, into);
    }

    /// Encodes through both slice encoders (AVX2 when available) and
    /// checks every element against the scalar reference.
    fn assert_encoders_match_scalar(values: &[f32]) {
        let mut bits = vec![0u16; values.len()];
        f32_to_f16_bits_slice(values, &mut bits);
        let mut bytes = vec![0u8; 2 * values.len()];
        encode_f16_into(values, &mut bytes);
        for (i, &v) in values.iter().enumerate() {
            let want = f32_to_f16_bits(v);
            assert_eq!(bits[i], want, "bits slice, f32 {:#010x}", v.to_bits());
            let got = u16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]);
            assert_eq!(got, want, "byte encoder, f32 {:#010x}", v.to_bits());
        }
    }

    #[test]
    fn simd_encode_matches_scalar_over_every_exponent() {
        // Mantissas that sit on the rounding decisions: ties, one either
        // side of a tie, odd-lsb ties, and all-ones carries, at the normal
        // shift (13) and at every subnormal shift (14..=23).
        let mut mants: Vec<u32> = vec![0, 1, 0x7f_ffff, 0x40_0000, 0x7f_f000, 0x7f_efff];
        for shift in 13..=23u32 {
            let half = 1u32 << (shift - 1);
            for m in [
                half - 1,
                half,
                half + 1,
                half | (1 << shift),
                (1 << shift) - 1,
            ] {
                mants.push(m & 0x7f_ffff);
            }
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut values = Vec::new();
        for exp in 0..=255u32 {
            for sign in [0u32, 1] {
                for &m in &mants {
                    values.push(f32::from_bits(sign << 31 | exp << 23 | m));
                }
                for _ in 0..4 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let m = (state >> 41) as u32 & 0x7f_ffff;
                    values.push(f32::from_bits(sign << 31 | exp << 23 | m));
                }
            }
        }
        // An odd length leaves a scalar tail after the 8-lane body.
        values.push(1.5);
        assert_eq!(values.len() % 8, 1);
        assert_encoders_match_scalar(&values);
    }

    #[test]
    fn dtype_encode_edge_ranges_match_scalar() {
        let p = |e: i32| 2.0f32.powi(e);
        let cases: &[(f32, u16)] = &[
            // (2^-25, 2^-24) flushes to zero, as the scalar encoder does.
            (p(-25), 0x0000),
            (p(-25) * 1.5, 0x0000),
            (f32::from_bits(p(-24).to_bits() - 1), 0x0000),
            (-p(-25) * 1.75, 0x8000),
            (p(-24), 0x0001),
            (p(-24) * 1.5, 0x0002),
            (p(-14), 0x0400),
            // NaN payloads all become the canonical quiet NaN.
            (f32::from_bits(0x7f80_0001), 0x7e00),
            (f32::from_bits(0x7fc0_0000), 0x7e00),
            (f32::from_bits(0x7fbf_ffff), 0x7e00),
            (f32::from_bits(0xffc0_1234), 0xfe00),
            (f32::INFINITY, 0x7c00),
            (f32::NEG_INFINITY, 0xfc00),
            // Overflow: 65520 is the tie above the max finite half.
            (65504.0, 0x7bff),
            (f32::from_bits(65520.0f32.to_bits() - 1), 0x7bff),
            (65520.0, 0x7c00),
            (-65520.0, 0xfc00),
            (f32::MAX, 0x7c00),
        ];
        for &(v, want) in cases {
            assert_eq!(
                f32_to_f16_bits(v),
                want,
                "scalar, f32 {:#010x}",
                v.to_bits()
            );
        }
        // Repeat each case across all eight lanes and the tail.
        let values: Vec<f32> = cases
            .iter()
            .flat_map(|&(v, _)| std::iter::repeat_n(v, 9))
            .collect();
        assert_encoders_match_scalar(&values);
    }

    #[test]
    fn dtype_byte_decoder_matches_bit_slice_decoder() {
        let bits: Vec<u16> = (0..=u16::MAX).collect();
        let bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
        let mut from_bits = vec![0.0f32; bits.len()];
        f16_bits_to_f32_slice(&bits, &mut from_bits);
        // Offset by one element so the byte source is not 4-aligned and
        // the tail length differs from the bit-slice run.
        let mut from_bytes = vec![0.0f32; bits.len() - 1];
        decode_f16_into(&bytes[2..], &mut from_bytes);
        for (i, o) in from_bytes.iter().enumerate() {
            assert_eq!(
                o.to_bits(),
                from_bits[i + 1].to_bits(),
                "half {:#06x}",
                i + 1
            );
        }
    }

    #[test]
    fn dtype_f32_codec_is_bitwise_including_nan_payloads() {
        let vals = [
            1.0f32,
            -0.0,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffc0_1234),
            f32::MIN_POSITIVE / 3.0,
        ];
        let mut bytes = vec![0u8; 4 * vals.len()];
        encode_f32_into(&vals, &mut bytes);
        assert_eq!(bytes, encode_f32(&vals));
        let mut back = vec![0.0f32; vals.len()];
        decode_f32_into(&bytes, &mut back);
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn dtype_f32_view_fallback_on_offset_slice() {
        let vals: Vec<f32> = (0..37).map(|i| i as f32 * 0.75 - 9.0).collect();
        let step = |x: &mut [f32]| {
            for v in x.iter_mut() {
                *v = *v * 2.0 + 1.0;
            }
            x.len()
        };
        let mut want = vals.clone();
        step(&mut want);
        let want = encode_f32(&want);

        // Place the blob at an offset that is deliberately not 4-aligned,
        // forcing the decode -> f -> encode fallback.
        let mut buf = vec![0u8; 4 * vals.len() + 4];
        let off = (0..4)
            .find(|o| (buf.as_ptr() as usize + o) % 4 == 1)
            .expect("some offset in 0..4 is misaligned");
        let blob = &mut buf[off..off + 4 * vals.len()];
        encode_f32_into(&vals, blob);
        let blob_ptr = blob.as_ptr() as usize;
        let mut seen = 0;
        let n = with_f32_mut(blob, |x| {
            seen = x.as_ptr() as usize;
            step(x)
        });
        assert_eq!(n, vals.len());
        assert_ne!(
            seen, blob_ptr,
            "a misaligned blob cannot be viewed in place"
        );
        assert_eq!(blob, &want[..]);

        // An aligned blob gives the same bytes; off miri it is viewed in
        // place, with no temporary.
        let mut aligned = encode_f32(&vals);
        let aligned_ptr = aligned.as_ptr() as usize;
        with_f32_mut(&mut aligned, |x| {
            seen = x.as_ptr() as usize;
            step(x)
        });
        assert_eq!(aligned, want);
        if cfg!(all(target_endian = "little", not(miri))) && aligned_ptr.is_multiple_of(4) {
            assert_eq!(seen, aligned_ptr, "aligned blob viewed in place");
        }
    }
}
