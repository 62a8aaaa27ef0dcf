// signed_log.h — the signed logarithm y = sgn(x)·log10(|x| + 1) over a
// float span: the compression step of the band-wise CNN's input stage
// (core/pixel_transform.h).
//
// Its bits are those of `d < 0 ? -log10f(|d| + 1) : log10f(|d| + 1)` with
// glibc 2.36's log10f (fdlibm's log10f around ARM optimized-routines'
// table-driven logf), reproduced in the source so they no longer depend on
// the host's libm. A portable scalar reference and an AVX-512F kernel (16
// lanes per vector, run at the Avx2Fma GEMM tier on hosts with AVX-512F)
// execute the same IEEE operation sequence, so the two agree bit for bit.
// signed_log.cpp is compiled with -ffp-contract=off: a fused multiply-add
// where the sequence rounds twice would move bits.
#pragma once

#include <cstdint>

namespace sne {

/// out[i] = sgn(in[i])·log10(|in[i]| + 1) for i in [0, n). Negative inputs
/// give negative results (−0 for negative subnormals, whose |x| + 1 rounds
/// to 1); +0, −0 and NaN inputs give the sign-free result. `out` may equal
/// `in` (in-place); otherwise the spans must not overlap. Reads and writes
/// exactly n floats.
void signed_log_span(const float* in, float* out, std::int64_t n);

}  // namespace sne
