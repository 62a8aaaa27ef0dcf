// pool.h — the 2×2, stride-2 max-pool of the serving path. The band-wise
// CNN pools each conv stage's output this way (Fig. 7); MaxPool2d's
// inference pass and the pooled output of sconv_serial (tensor/gemm.h)
// both call it, so the two give the same bits by construction.
#pragma once

#include <cstdint>

namespace sne {

/// Max-pools `planes` consecutive h×w planes (row-major, h and w ≥ 2)
/// into `planes` consecutive ⌊h/2⌋×⌊w/2⌋ planes. Each output walks its
/// window top-left, top-right, bottom-left, bottom-right from best =
/// top-left and takes v when v > best, or when best is NaN and v is not:
/// the first maximum of the window in that order, NaNs skipped, and the
/// first NaN when all four are NaN. A trailing odd row or column is
/// never read. At the Avx2Fma GEMM tier, planes with ⌊w/2⌋ ≥ 8 run eight
/// outputs per AVX2 vector and narrower ones run eight flat outputs of
/// the batch per vector (gathers across plane boundaries, int32 offsets:
/// taken when 8·h·w ≤ INT32_MAX); otherwise one scalar loop runs. All
/// apply the rule lane by lane, so the bits never depend on the path.
/// Serial; allocates nothing once its per-thread offset table has grown.
void maxpool_2x2(const float* x, std::int64_t planes, std::int64_t h,
                 std::int64_t w, float* out);

}  // namespace sne
