// gemm.h — matrix multiply kernels, the im2col/col2im lowering used by
// the convolution layers, and the serving convolutions: sconv_serial
// (fp32, optionally writing the 2×2 max-pool of its output) and
// iconv_serial (int8), each direct where the host and shape allow, with
// the same bits as the im2col lowering (and the pool). These are the hot
// loops of the whole training pipeline; everything else in the nn library
// reduces to calls into this file. Two precisions live here: the f32
// sgemm family (training and the fp32 serving path), which computes
// C = A·B + beta·C with no scale on the product, and the s8×s8→s32
// igemm_serial (the quantized serving path; see tensor/qtensor.h for how
// operands are produced).
//
// The inner panel kernel is runtime-dispatched: a portable scalar kernel
// (the bit-reference — its accumulation order has never changed and the
// determinism tests pin it) and an AVX2+FMA register-blocked kernel picked
// by CPUID at first use, which runs 512-bit tiles with identical bits on
// AVX-512F hosts, and whose int8 kernel uses vpdpbusd on AVX-512 VNNI
// hosts (exact, so again the same bits). Within either tier results are
// bitwise identical across thread counts and repeated runs; across tiers
// the f32 kernels agree only to float tolerance (the vector kernel
// re-associates the k reduction), except sgemm_bt, whose double dot
// products round exactly once per step and so agree bitwise. The int8
// GEMM is bitwise identical even ACROSS tiers — its accumulation is exact
// integer arithmetic, and the scalar and AVX2 requantization epilogues
// run the same per-element IEEE operation sequence (convert, fused
// multiply-add, PReLU select), so they produce the same bits.
// The tier is the best one the CPU supports; tests and benchmarks force
// one with set_gemm_tier().
#pragma once

#include <cstdint>

namespace sne {

/// Kernel tier for the GEMM panel micro-kernel.
enum class GemmTier {
  Scalar = 0,   ///< portable unrolled kernel; the determinism bit-reference
  /// FMA-chain register tiles: 6×16 on ymm, or up to 12×32 on zmm where
  /// the CPU and OS support AVX-512F; int8 via madd_epi16, or vpdpbusd
  /// where AVX-512 VNNI/BW/VL are present (same bits; not separate tiers)
  Avx2Fma = 1,
};

/// The tier all GEMM calls currently dispatch to: the best tier the CPU
/// supports, resolved once on first use, unless set_gemm_tier overrode it.
GemmTier gemm_tier();

/// Overrides the dispatch tier for the whole process (test/bench hook).
/// Requests for an unsupported tier are clamped to Scalar. Not intended to
/// be raced against in-flight GEMM calls: switch tiers only at quiescence.
void set_gemm_tier(GemmTier tier);

/// True when the running CPU can execute `tier`.
bool gemm_tier_supported(GemmTier tier) noexcept;

/// "scalar" / "avx2" — stable names (perfbench's --gemm-tier values).
const char* gemm_tier_name(GemmTier tier) noexcept;

/// True when the CPU and OS support AVX-512F. The Avx2Fma tier's 512-bit
/// kernels (here and in tensor/signed_log.h) run only where this holds.
bool cpu_has_avx512f() noexcept;

/// Optional per-row epilogue fused into the GEMM drivers: applied to each
/// finished row panel of C while it is still cache-hot, after the full k
/// accumulation (and after beta scaling). Element order and operations are
/// identical to running the equivalent separate passes over C, so fusing
/// changes no bits — only memory traffic. Pointers are borrowed and must
/// cover [0, m).
struct GemmEpilogue {
  /// Per-row additive bias: C[i][j] += bias[i]. Null to skip.
  const float* bias = nullptr;
  /// Per-row PReLU negative slope, applied after the bias:
  /// C[i][j] = C[i][j] > 0 ? C[i][j] : prelu[i] * C[i][j]. Null to skip.
  const float* prelu = nullptr;

  bool empty() const noexcept { return bias == nullptr && prelu == nullptr; }
};

/// C[m×n] = A[m×k] · B[k×n] + beta * C, then the epilogue (if any).
/// Row-major, contiguous. Cache-blocked with a runtime-dispatched inner
/// kernel and parallelized across row panels of C on the shared thread pool
/// (see tensor/thread_pool.h). Each panel's accumulation stays serial, so
/// within a dispatch tier the result is bitwise identical for any thread
/// count — determinism of accumulation order is a test invariant.
void sgemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
           const float* b, float beta, float* c,
           const GemmEpilogue& epilogue = {});

/// sgemm with the identical blocking and accumulation order, but guaranteed
/// never to dispatch to the thread pool and never to allocate. Bitwise
/// identical to sgemm at
/// the same tier (the parallel version keeps each panel's accumulation
/// serial). This is the GEMM substrate of the inference path, whose run()
/// contract is zero allocations after warmup; parallelism there comes from
/// running whole sessions on separate pool workers instead.
void sgemm_serial(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, const float* b, float beta, float* c,
                  const GemmEpilogue& epilogue = {});

/// fp32 convolution for serving, one image after another: for each of
/// `batch` consecutive C×H×W images (C = `channels`, row-major),
///   out[b] (out_channels × out_h·out_w) = epilogue(weight · im2col(image[b]))
/// with `weight` [out_channels × channels·kernel²] read in place and the
/// square `kernel`, `pad` and `stride` of im2col. Bitwise identical to
/// im2col + sgemm_serial with the same epilogue at the current tier, and
/// like sgemm_serial never dispatches to the pool and allocates nothing
/// after its per-thread scratch has warmed up. The lowering follows from
/// the tier, the CPU and the shape, never from a setting:
/// - 1×1, stride 1, no pad: the image is already the column matrix, so
///   sgemm_serial reads it directly.
/// - Avx2Fma tier on an AVX-512F host, stride 1, no pad: a direct kernel
///   reads the image in place. Wide planes (out_w ≥ 16) run strips of two
///   output rows × 16 columns, one masked load per row chunk and tap;
///   narrow ones gather each strip's 16 lanes of every tap once into a
///   per-thread k × 16 slab. In the im2col lowering the first
///   n − n % 8 outputs of each channel (n = out_h·out_w) are each one
///   fused multiply-add chain over k ascending from +0, followed by the
///   bias add and the PReLU select; the direct kernel runs exactly that
///   sequence, so no bit moves. The last n % 8 are sgemm's scalar tail
///   columns, whose bits are whatever the compiler made of them, so their
///   im2col columns are gathered into a k × (n % 8) slab and run through
///   sgemm_serial with the same weight, channel count and epilogue: the
///   very tail loops, row groups and k blocks that computed them before.
/// - Otherwise im2col into a per-thread column buffer, then sgemm_serial.
///
/// With `pool_2x2`, out[b] is instead the 2×2, stride-2 max-pool of that
/// output, out_channels × ⌊out_h/2⌋·⌊out_w/2⌋ (out_h, out_w ≥ 2), bitwise
/// equal to the plain output followed by maxpool_2x2 (tensor/pool.h,
/// which MaxPool2d(2) runs). The direct kernel then computes only the
/// 2·⌊out_h/2⌋ × 2·⌊out_w/2⌋ outputs a window reads and folds each window
/// in registers with maxpool_2x2's rule and order, storing only the
/// pooled plane. Where a window reads one of the n % 8 tail outputs
/// (their bits come only from the slab), and off the direct kernel (the
/// scalar tier, hosts without AVX-512F, stride or pad ≠ 1/0), each
/// image's plain output goes into a per-thread plane and maxpool_2x2
/// pools it.
/// The output extents must be positive (see conv_out_extent).
void sconv_serial(std::int64_t batch, const float* image,
                  std::int64_t channels, std::int64_t height,
                  std::int64_t width, std::int64_t kernel, std::int64_t pad,
                  std::int64_t stride, const float* weight,
                  std::int64_t out_channels, float* out,
                  const GemmEpilogue& epilogue = {}, bool pool_2x2 = false);

/// C[m×n] = Aᵀ (A is k×m) · B[k×n] + beta * C.
///
/// Epilogue fusion is a FORWARD-ONLY contract: the transpose variants
/// serve the backward pass, where the bias gradient is a reduction of
/// grad_output (not a broadcast add) and the activation gradient is a
/// masked scale applied by the activation layer itself — there is no
/// per-row (bias, PReLU) pass to fuse. The deleted overloads below make
/// a future backward path that tries to hand one an epilogue fail to
/// compile instead of silently dropping the bias+PReLU.
void sgemm_at(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
              const float* b, float beta, float* c);
void sgemm_at(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
              const float* b, float beta, float* c,
              const GemmEpilogue&) = delete;

/// C[m×n] = A[m×k] · Bᵀ (B is n×k) + beta * C. Same forward-only
/// epilogue contract as sgemm_at. Each output is a dot product in double,
/// even k into one chain and odd k into another, each ascending, then
/// C += float(their sum). float × float is exact in double, so every step
/// rounds once whether or not it is fused, and the result is bitwise the
/// same on every tier, build and thread count. At the Avx2Fma tier the
/// lanes of a vector carry 16 such dot products
/// (along C's rows when n < 16 and m > n, else along its columns) over a
/// per-thread packed copy of 16 rows of one operand, widened to double;
/// otherwise one scalar loop runs. Never dispatches to the pool;
/// allocates nothing once its per-thread strip has grown to 16·k.
void sgemm_bt(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
              const float* b, float beta, float* c);
void sgemm_bt(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
              const float* b, float beta, float* c,
              const GemmEpilogue&) = delete;

/// Requantization epilogue of the int8 GEMM: maps each finished int32
/// accumulator row back to f32 while it is still cache-hot,
///   C[i][j] = acc[i][j] · scale[i] + bias[i], then PReLU — exactly the
/// per-row (bias, PReLU) contract of GemmEpilogue with a per-row scale in
/// front. `scale` is required (it carries the input-scale × per-channel
/// weight-scale product); `bias`/`prelu` are optional. All pointers are
/// borrowed and must cover [0, m). The scalar and vector routines that
/// apply this run the identical per-element IEEE operation sequence
/// (int32→f32 convert, fused multiply-add — fmaf in the scalar routine,
/// vfmaddps in the vector one — then PReLU select), so
/// requantized outputs are bitwise identical across tiers and reruns —
/// the dispatch test pins the tier equality exactly.
struct IgemmEpilogue {
  const float* scale = nullptr;  ///< per-row requant scale (required)
  const float* bias = nullptr;   ///< per-row additive bias, after scaling
  const float* prelu = nullptr;  ///< per-row PReLU negative slope, last
};

/// Accumulator-overflow bound of the int8 GEMM: |acc| ≤ k · 127² must fit
/// int32, so k may not exceed this. Far above any conv lowering in the
/// paper's models (their largest k is Cin·kh·kw = 750); igemm_serial throws
/// std::invalid_argument beyond it rather than wrapping silently.
constexpr std::int64_t kIgemmMaxK = (std::int64_t{1} << 31) / (127 * 127) - 1;

/// C[m×n] = epilogue(A[m×k] · B[k×n]) with A, B int8 and the accumulation
/// exact in int32 (saturation can only happen in quantize_into when the
/// operands are produced — never inside the GEMM). C is fully
/// overwritten. Runs on the calling thread — the quantized-serving
/// analogue of sgemm_serial — and allocates nothing after its per-thread
/// scratch has warmed up. Accumulation order is irrelevant to the result
/// (integer arithmetic is exact), so the output is bitwise invariant
/// across tiers and reruns — a strictly stronger guarantee than the f32
/// within-tier contract. The AVX2 tier deliberately avoids the classic
/// `maddubs` u8×s8 path: its pairwise i16 sums saturate (2·127·255 > 2¹⁵),
/// which would silently break exactness. Its AVX2 kernel sign-extends to
/// i16 and uses madd_epi16 on k-pairs instead, which cannot overflow. On
/// AVX-512 VNNI hosts (avx512vnni + avx512bw + avx512vl) the same tier
/// runs vpdpbusd, which adds u8×s8 k-quads straight into int32 lanes
/// (nothing saturates): B is shifted to u8 as b + 128 (b ^ 0x80) and each
/// row's accumulator starts at −128·Σₚ a[i][p], so it ends at Σ a·b. Both
/// wrap modulo 2³² and the true sum fits int32 for k ≤ kIgemmMaxK, so the
/// result is exact even where the shifted sum alone wraps (k > 65,793).
/// The kernel is chosen once per process and has no setting: it cannot
/// change a bit.
void igemm_serial(std::int64_t m, std::int64_t n, std::int64_t k,
                  const std::int8_t* a, const std::int8_t* b, float* c,
                  const IgemmEpilogue& epilogue);

/// int8 convolution for quantized serving, one already-quantized C×H×W
/// image (C = `channels`, row-major):
///   out (out_channels × out_h·out_w) = epilogue(weight · im2col_i8(image))
/// with `weight` the int8 [out_channels × channels·kernel²] payload and the
/// square `kernel`, `pad` and `stride` of im2col_i8. Bitwise identical to
/// im2col_i8 + igemm_serial with the same epilogue, at any tier; like
/// igemm_serial it never dispatches to the pool and allocates nothing
/// after its per-thread scratch has warmed up. The lowering follows from
/// the tier, the CPU and the shape, never from a setting:
/// - 1×1, stride 1, no pad: the image is already the column matrix, so
///   igemm_serial reads it directly.
/// - Avx2Fma tier on an AVX-512 VNNI host, stride 1, no pad: the VNNI
///   kernel's B strips are packed straight from the image. Per 32-pixel
///   strip, each output row's pixels are one run (a lane mask and an
///   image offset); B row p is the merge of one masked byte load per run
///   at tap p's offset, and the k-quads go through the GEMM's own
///   transpose and b + 128 shift. The packed bytes are those of
///   im2col_i8 followed by that pack, and the tiles, −128·Σa start values
///   and requant epilogue are the GEMM's, so no bit moves; the exact
///   integer accumulation needs no shape gate.
/// - Otherwise im2col_i8 into a per-thread column buffer, then
///   igemm_serial.
/// The output extents must be positive (see conv_out_extent).
void iconv_serial(const std::int8_t* image, std::int64_t channels,
                  std::int64_t height, std::int64_t width, std::int64_t kernel,
                  std::int64_t pad, std::int64_t stride,
                  const std::int8_t* weight, std::int64_t out_channels,
                  float* out, const IgemmEpilogue& epilogue);

/// Lowers one image (C×H×W, row-major) into a column matrix of shape
/// [C·kh·kw] × [out_h·out_w] for convolution-as-GEMM. `pad` is zero padding
/// applied on all sides, `stride` the convolution stride.
void im2col(const float* image, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t pad, std::int64_t stride, float* columns);

/// im2col over an already-quantized int8 image, for the int8 conv path.
/// Identical traversal and zero padding; ¼ of the byte traffic.
void im2col_i8(const std::int8_t* image, std::int64_t channels,
               std::int64_t height, std::int64_t width, std::int64_t kh,
               std::int64_t kw, std::int64_t pad, std::int64_t stride,
               std::int8_t* columns);

/// Adjoint of im2col: scatters a column matrix back into (and accumulates
/// onto) an image buffer. Used for the convolution input gradient.
void col2im(const float* columns, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t pad, std::int64_t stride, float* image);

/// Output spatial extent of a convolution along one axis.
constexpr std::int64_t conv_out_extent(std::int64_t in, std::int64_t kernel,
                                       std::int64_t pad,
                                       std::int64_t stride) noexcept {
  return (in + 2 * pad - kernel) / stride + 1;
}

}  // namespace sne
