//! Vectorized ("SSE") nucleotide kernels.
//!
//! BEAGLE's SSE implementation parallelizes across the four character-state
//! values of a nucleotide model with vector intrinsics. In Rust the
//! equivalent is explicit 4-wide unrolling with `mul_add`, which the
//! compiler lowers to SSE/AVX vector instructions on x86-64 (verified via
//! `cargo asm`: the inner body compiles to `mulpd`/`fmadd` sequences).
//! All kernels here are specialized to `state_count == 4`; the instance
//! falls back to the scalar kernels for other state counts. Explicit
//! AVX2 intrinsic kernels live in [`crate::simd`]; these portable versions
//! double as the non-x86 / forced-scalar fallback of the dispatch table.
//!
//! The AVX2 nucleotide kernels in [`crate::simd`] replay these kernels'
//! exact operation sequences, so the portable table is also their
//! bit-exact reference.
//!
//! Like the scalar kernels, every function takes the stride `sp >= 4`:
//! pattern `p` starts at `p*sp`, matrix row `i` at `i*sp`, and only the
//! first 4 lanes are touched. CPU instances lay nucleotide buffers out
//! dense (`sp == 4`) in both precisions; a wider stride works the same.

use beagle_core::real::Real;
use beagle_core::GAP_STATE;

/// 4-state specialization of [`crate::kernels::partials_partials`].
pub fn partials_partials_4<T: Real>(
    dest: &mut [T],
    c1: &[T],
    c2: &[T],
    m1: &[T],
    m2: &[T],
    sp: usize,
) {
    debug_assert!(sp >= 4);
    debug_assert_eq!(m1.len(), 4 * sp);
    debug_assert_eq!(m2.len(), 4 * sp);
    debug_assert_eq!(dest.len() % sp, 0);
    for ((d, a), b) in dest
        .chunks_exact_mut(sp)
        .zip(c1.chunks_exact(sp))
        .zip(c2.chunks_exact(sp))
    {
        let (a0, a1, a2, a3) = (a[0], a[1], a[2], a[3]);
        let (b0, b1, b2, b3) = (b[0], b[1], b[2], b[3]);
        // Row i of each matrix dotted with the child vector, fully unrolled.
        let r = |m: &[T], i: usize| (m[i * sp], m[i * sp + 1], m[i * sp + 2], m[i * sp + 3]);
        let (q0, q1, q2, q3) = r(m1, 0);
        let s10 = q3.mul_add(a3, q2.mul_add(a2, q1.mul_add(a1, q0 * a0)));
        let (q0, q1, q2, q3) = r(m1, 1);
        let s11 = q3.mul_add(a3, q2.mul_add(a2, q1.mul_add(a1, q0 * a0)));
        let (q0, q1, q2, q3) = r(m1, 2);
        let s12 = q3.mul_add(a3, q2.mul_add(a2, q1.mul_add(a1, q0 * a0)));
        let (q0, q1, q2, q3) = r(m1, 3);
        let s13 = q3.mul_add(a3, q2.mul_add(a2, q1.mul_add(a1, q0 * a0)));
        let (q0, q1, q2, q3) = r(m2, 0);
        let s20 = q3.mul_add(b3, q2.mul_add(b2, q1.mul_add(b1, q0 * b0)));
        let (q0, q1, q2, q3) = r(m2, 1);
        let s21 = q3.mul_add(b3, q2.mul_add(b2, q1.mul_add(b1, q0 * b0)));
        let (q0, q1, q2, q3) = r(m2, 2);
        let s22 = q3.mul_add(b3, q2.mul_add(b2, q1.mul_add(b1, q0 * b0)));
        let (q0, q1, q2, q3) = r(m2, 3);
        let s23 = q3.mul_add(b3, q2.mul_add(b2, q1.mul_add(b1, q0 * b0)));
        d[0] = s10 * s20;
        d[1] = s11 * s21;
        d[2] = s12 * s22;
        d[3] = s13 * s23;
    }
}

/// 4-state specialization of [`crate::kernels::states_partials`].
pub fn states_partials_4<T: Real>(
    dest: &mut [T],
    s1: &[u32],
    c2: &[T],
    m1: &[T],
    m2: &[T],
    sp: usize,
) {
    debug_assert!(sp >= 4);
    debug_assert_eq!(dest.len(), s1.len() * sp);
    for ((d, &st), b) in dest
        .chunks_exact_mut(sp)
        .zip(s1.iter())
        .zip(c2.chunks_exact(sp))
    {
        let (b0, b1, b2, b3) = (b[0], b[1], b[2], b[3]);
        let r = |m: &[T], i: usize| (m[i * sp], m[i * sp + 1], m[i * sp + 2], m[i * sp + 3]);
        let (q0, q1, q2, q3) = r(m2, 0);
        let s20 = q3.mul_add(b3, q2.mul_add(b2, q1.mul_add(b1, q0 * b0)));
        let (q0, q1, q2, q3) = r(m2, 1);
        let s21 = q3.mul_add(b3, q2.mul_add(b2, q1.mul_add(b1, q0 * b0)));
        let (q0, q1, q2, q3) = r(m2, 2);
        let s22 = q3.mul_add(b3, q2.mul_add(b2, q1.mul_add(b1, q0 * b0)));
        let (q0, q1, q2, q3) = r(m2, 3);
        let s23 = q3.mul_add(b3, q2.mul_add(b2, q1.mul_add(b1, q0 * b0)));
        if st == GAP_STATE {
            d[0] = s20;
            d[1] = s21;
            d[2] = s22;
            d[3] = s23;
        } else {
            let j = st as usize;
            d[0] = m1[j] * s20;
            d[1] = m1[sp + j] * s21;
            d[2] = m1[2 * sp + j] * s22;
            d[3] = m1[3 * sp + j] * s23;
        }
    }
}

/// 4-state specialization of [`crate::kernels::states_states`].
///
/// The gap check is hoisted out of the per-state work: each child's matrix
/// column (or the all-ones gap column) is selected once per pattern, so the
/// four products are branch-free.
pub fn states_states_4<T: Real>(
    dest: &mut [T],
    s1: &[u32],
    s2: &[u32],
    m1: &[T],
    m2: &[T],
    sp: usize,
) {
    debug_assert!(sp >= 4);
    debug_assert_eq!(dest.len(), s1.len() * sp);
    let column = |m: &[T], st: u32| {
        if st == GAP_STATE {
            (T::ONE, T::ONE, T::ONE, T::ONE)
        } else {
            let j = st as usize;
            (m[j], m[sp + j], m[2 * sp + j], m[3 * sp + j])
        }
    };
    for ((d, &st1), &st2) in dest.chunks_exact_mut(sp).zip(s1.iter()).zip(s2.iter()) {
        let (p10, p11, p12, p13) = column(m1, st1);
        let (p20, p21, p22, p23) = column(m2, st2);
        d[0] = p10 * p20;
        d[1] = p11 * p21;
        d[2] = p12 * p22;
        d[3] = p13 * p23;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    fn mats() -> (Vec<f64>, Vec<f64>) {
        let m1: Vec<f64> = (0..16).map(|i| 0.05 + i as f64 * 0.013).collect();
        let m2: Vec<f64> = (0..16).map(|i| 0.9 - i as f64 * 0.021).collect();
        (m1, m2)
    }

    #[test]
    fn pp4_matches_scalar() {
        let (m1, m2) = mats();
        let c1: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin().abs()).collect();
        let c2: Vec<f64> = (0..40).map(|i| (i as f64 * 1.3).cos().abs()).collect();
        let mut dv = vec![0.0; 40];
        let mut ds = vec![0.0; 40];
        partials_partials_4(&mut dv, &c1, &c2, &m1, &m2, 4);
        kernels::partials_partials(&mut ds, &c1, &c2, &m1, &m2, 4, 4);
        for (a, b) in dv.iter().zip(&ds) {
            assert!((a - b).abs() < 1e-13);
        }
    }

    #[test]
    fn sp4_matches_scalar() {
        let (m1, m2) = mats();
        let s1: Vec<u32> = vec![0, 3, GAP_STATE, 2, 1];
        let c2: Vec<f64> = (0..20).map(|i| 0.1 + i as f64 * 0.04).collect();
        let mut dv = vec![0.0; 20];
        let mut ds = vec![0.0; 20];
        states_partials_4(&mut dv, &s1, &c2, &m1, &m2, 4);
        kernels::states_partials(&mut ds, &s1, &c2, &m1, &m2, 4, 4);
        for (a, b) in dv.iter().zip(&ds) {
            assert!((a - b).abs() < 1e-13);
        }
    }

    #[test]
    fn ss4_matches_scalar() {
        let (m1, m2) = mats();
        let s1: Vec<u32> = vec![1, GAP_STATE, 0];
        let s2: Vec<u32> = vec![2, 3, GAP_STATE];
        let mut dv = vec![0.0; 12];
        let mut ds = vec![0.0; 12];
        states_states_4(&mut dv, &s1, &s2, &m1, &m2, 4);
        kernels::states_states(&mut ds, &s1, &s2, &m1, &m2, 4, 4);
        for (a, b) in dv.iter().zip(&ds) {
            assert!((a - b).abs() < 1e-13);
        }
    }

    #[test]
    fn single_precision_path() {
        let m1: Vec<f32> = (0..16).map(|i| 0.05 + i as f32 * 0.013).collect();
        let m2: Vec<f32> = (0..16).map(|i| 0.9 - i as f32 * 0.021).collect();
        let c1 = vec![0.25f32; 8];
        let c2 = vec![0.5f32; 8];
        let mut dv = vec![0.0f32; 8];
        let mut ds = vec![0.0f32; 8];
        partials_partials_4(&mut dv, &c1, &c2, &m1, &m2, 4);
        kernels::partials_partials(&mut ds, &c1, &c2, &m1, &m2, 4, 4);
        for (a, b) in dv.iter().zip(&ds) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    /// A padded stride (4 states in 8 lanes) matches the dense run and
    /// leaves the pad lanes alone.
    #[test]
    fn padded_stride_matches_dense() {
        let sp = 8;
        let m_dense: Vec<f32> = (0..16).map(|i| 0.05 + i as f32 * 0.013).collect();
        let mut m_pad = vec![0.0f32; 4 * sp];
        for i in 0..4 {
            m_pad[i * sp..i * sp + 4].copy_from_slice(&m_dense[i * 4..(i + 1) * 4]);
        }
        let n_pat = 5;
        let c_dense: Vec<f32> = (0..n_pat * 4)
            .map(|i| (0.1 + i as f32 * 0.03).fract())
            .collect();
        let mut c_pad = vec![0.0f32; n_pat * sp];
        for p in 0..n_pat {
            c_pad[p * sp..p * sp + 4].copy_from_slice(&c_dense[p * 4..(p + 1) * 4]);
        }
        let mut d_dense = vec![0.0f32; n_pat * 4];
        let mut d_pad = vec![0.0f32; n_pat * sp];
        partials_partials_4(&mut d_dense, &c_dense, &c_dense, &m_dense, &m_dense, 4);
        partials_partials_4(&mut d_pad, &c_pad, &c_pad, &m_pad, &m_pad, sp);
        for p in 0..n_pat {
            for k in 0..4 {
                assert_eq!(d_dense[p * 4 + k], d_pad[p * sp + k]);
            }
            for k in 4..sp {
                assert_eq!(d_pad[p * sp + k], 0.0, "pad lane untouched");
            }
        }
    }
}
