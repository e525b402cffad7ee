// Sparse, copy-on-write model of one DPU's 64 MiB MRAM bank.
//
// A full PIM machine would need 8 ranks x 64 DPUs x 64 MiB = 32 GiB of
// backing store if MRAM were allocated eagerly; instead pages materialize on
// first write and broadcast transfers (same host buffer pushed to every DPU,
// e.g. the UPMEM checksum demo) share immutable pages across banks.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "upmem/layout.h"

namespace vpim::upmem {

struct MramPage {
  std::array<std::uint8_t, kMramPageSize> bytes;
};
using MramPageRef = std::shared_ptr<MramPage>;

class MramBank {
 public:
  // The page table itself is sized to the bank's high-water mark: it holds
  // one slot per page up to the highest page ever written, adopted or
  // imported, and clear() releases it. Machines construct 8 ranks x 64
  // banks up front, and a full 16384-slot table per bank (256 KiB) is real
  // memory, zeroing and teardown time for pages most kernels never touch.
  // Slots past the table's end read as absent (zero) pages.
  MramBank() = default;

  // Reads `out.size()` bytes starting at `offset`; absent pages read as 0.
  // A non-empty access inside one present page is a single memcpy (the
  // common small DMA of a DPU kernel); everything else takes read_slow.
  // The page index bounds the table, so the fast path needs no separate
  // range check.
  void read(std::uint64_t offset, std::span<std::uint8_t> out) const {
    const std::uint64_t page = offset / kMramPageSize;
    const std::uint64_t in_page = offset % kMramPageSize;
    if (!out.empty() && out.size() <= kMramPageSize - in_page &&
        page < pages_.size() && pages_[page]) {
      std::memcpy(out.data(), pages_[page]->bytes.data() + in_page,
                  out.size());
      return;
    }
    read_slow(offset, out);
  }

  // Writes `in.size()` bytes starting at `offset` (copy-on-write). Same
  // single-page fast path as read, taken only when this bank is the page's
  // sole owner: a page shared with another bank goes through write_slow,
  // which copies it first.
  void write(std::uint64_t offset, std::span<const std::uint8_t> in) {
    const std::uint64_t page = offset / kMramPageSize;
    const std::uint64_t in_page = offset % kMramPageSize;
    if (!in.empty() && in.size() <= kMramPageSize - in_page &&
        page < pages_.size() && pages_[page] &&
        pages_[page].use_count() == 1) {
      std::memcpy(pages_[page]->bytes.data() + in_page, in.data(),
                  in.size());
      return;
    }
    write_slow(offset, in);
  }

  // Shares pre-built immutable pages starting at page-aligned `offset`.
  // Used by broadcast transfers: N banks end up referencing one page set.
  void adopt_pages(std::uint64_t offset, std::span<const MramPageRef> pages);

  // Builds shareable pages from a host buffer (zero-padded tail).
  static std::vector<MramPageRef> build_pages(
      std::span<const std::uint8_t> data);

  // Adopts the full content of another bank by sharing its pages
  // (copy-on-write). Used by rank migration: the physical copy is modeled
  // in virtual time by the caller.
  void copy_from(const MramBank& other) { pages_ = other.pages_; }

  // Drops every page and releases the page table (rank reset; content
  // reads back as zero).
  void clear();

  // Number of materialized (non-shared-null) pages, for memory accounting.
  std::size_t resident_pages() const;

  // Enumerates resident pages as (page index, shared ref) pairs.
  std::vector<std::pair<std::uint32_t, MramPageRef>> export_pages() const;
  // Replaces the whole bank content with the given page set.
  void import_pages(
      const std::vector<std::pair<std::uint32_t, MramPageRef>>& pages);

 private:
  // General paths: bounds check, then page by page across the access.
  void read_slow(std::uint64_t offset, std::span<std::uint8_t> out) const;
  void write_slow(std::uint64_t offset, std::span<const std::uint8_t> in);
  MramPage& page_for_write(std::uint64_t page_index);
  // Grows the table to hold at least `nr_pages` slots (never shrinks).
  void ensure_table(std::uint64_t nr_pages);

  std::vector<MramPageRef> pages_;  // up to the highest touched page
};

}  // namespace vpim::upmem
