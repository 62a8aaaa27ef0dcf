// snapshot.h — versioned binary cache of a fully rendered dataset, plus
// an mmap-backed Dataset that replays it. The simulator's lazy datasets
// re-render every sample each epoch; for multi-epoch training runs the
// render cost dominates ingest. A snapshot renders the dataset exactly
// once (through the same pool-parallel get_batch path training uses, so
// the bytes are bitwise-identical to a live epoch) and later epochs
// replay it with pure pointer arithmetic: SnapshotDataset::get_batch_into
// is one per-row memcpy out of the mapping and allocates nothing after
// the first batch.
//
// On-disk layout (all integers u64 little-endian, payload float32 LE;
// the 8-byte magic keeps every header field and the offset table 8-byte
// aligned in the mapping) — see docs/FORMATS.md:
//
//   [0]  magic   "SNESNAP\0"
//   [8]  version (currently 1)
//   [16] dtype   (1 = float32 little-endian)
//   [24] x_rank, then x_rank extents   — per-sample x shape
//   [..] y_rank, then y_rank extents   — per-sample y shape
//   [..] count                         — number of samples
//   [..] count offsets                 — byte offset of each sample's
//                                        record from the payload start
//   [..] payload                       — per sample: x floats, y floats
//
// The offset table is redundant for the fixed-shape v1 records (offset i
// is i · record_bytes) but is validated on load and keeps the format
// extensible to variable-size records without a version bump of the
// reader's skeleton.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/dataset.h"
#include "tensor/tensor.h"

namespace sne::data {

/// Parsed snapshot header.
struct SnapshotInfo {
  std::uint64_t version = 0;
  Shape x_shape;  ///< per-sample x shape (no batch axis)
  Shape y_shape;  ///< per-sample y shape
  std::int64_t count = 0;

  std::int64_t x_numel() const noexcept;
  std::int64_t y_numel() const noexcept;
};

/// Renders every sample of `data` once — `batch_size` rows at a time
/// through get_batch, so batch-parallel datasets render on the shared
/// thread pool — and writes the snapshot to `path`. Throws on an empty
/// dataset or I/O failure.
void write_snapshot(const std::string& path, const nn::Dataset& data,
                    std::int64_t batch_size = 64);

/// Reads and validates just the header of a snapshot file.
SnapshotInfo read_snapshot_info(const std::string& path);

/// Replays a snapshot written by write_snapshot. The payload is memory-
/// mapped read-only where the platform supports it (the OS page cache
/// then shares one copy across processes); otherwise it is read into an
/// owned buffer once at construction. Either way get() and
/// get_batch_into() are pure gathers out of resident float data.
class SnapshotDataset final : public nn::Dataset {
 public:
  explicit SnapshotDataset(const std::string& path);
  ~SnapshotDataset() override;

  SnapshotDataset(const SnapshotDataset&) = delete;
  SnapshotDataset& operator=(const SnapshotDataset&) = delete;

  std::int64_t size() const override { return info_.count; }
  nn::Sample get(std::int64_t index) const override;

  /// One memcpy per row straight from the mapping into the caller's
  /// batch buffer; with a warm `out` this allocates nothing.
  void get_batch_into(const std::vector<std::int64_t>& indices,
                      std::size_t first, std::size_t count,
                      nn::Sample& out) const override;

  const SnapshotInfo& info() const noexcept { return info_; }

 private:
  const float* record(std::int64_t index) const;

  SnapshotInfo info_;
  std::vector<std::uint64_t> offsets_;  ///< validated at load
  std::int64_t x_numel_ = 0;
  std::int64_t y_numel_ = 0;

  const float* payload_ = nullptr;  ///< into map_base_ or owned_
  void* map_base_ = nullptr;        ///< whole-file mapping, if active
  std::size_t map_len_ = 0;
  std::vector<float> owned_;  ///< fallback storage
};

}  // namespace sne::data
